"""Typed, timestamped simulation events (the telemetry wire format).

Every observable state transition of a run — enqueues, dispatches,
finishes, aborts (with cause), squashes, conflicts (with addresses and
VTs), commits, spills, zooms, tiebreaker wraparounds, GVT ticks — is one
:class:`Event` subclass. Producers construct events only when the run's
:class:`repro.telemetry.bus.EventBus` has subscribers, so a disabled bus
costs one truthiness check per site.

Each event serializes to a flat JSON-safe dict (``to_dict``) whose
``kind`` field selects the class; :data:`EVENT_SCHEMA` maps every kind to
its required field names and is what the JSONL validator and the CI smoke
job check against.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar, Dict, List, Optional, Tuple, Type


@dataclass
class Event:
    """Base event: ``t`` is the simulated cycle of the occurrence."""

    KIND: ClassVar[str] = "event"

    t: int

    def to_dict(self) -> dict:
        d = {"kind": self.KIND}
        for f in fields(self):
            d[f.name] = getattr(self, f.name)
        return d

    @property
    def kind(self) -> str:
        return self.KIND


@dataclass
class EnqueueEvent(Event):
    """A task entered a tile's task queue (creation or re-enqueue)."""

    KIND: ClassVar[str] = "enqueue"

    tid: int
    label: str
    tile: int
    depth: int
    parent: Optional[int]


@dataclass
class DispatchEvent(Event):
    """A core started executing one attempt of a task."""

    KIND: ClassVar[str] = "dispatch"

    tid: int
    label: str
    core: int
    tile: int
    attempt: int


@dataclass
class FinishEvent(Event):
    """An attempt ran to completion (now awaiting commit)."""

    KIND: ClassVar[str] = "finish"

    tid: int
    core: int
    cycles: int


@dataclass
class CommitEvent(Event):
    """The GVT frontier committed a finished task."""

    KIND: ClassVar[str] = "commit"

    tid: int
    label: str
    core: int
    start: int
    duration: int
    depth: int


@dataclass
class AbortEvent(Event):
    """A speculative attempt was rolled back.

    ``executed`` is the wasted work in cycles; ``parked`` marks zoom parks
    (attempt rolled back to wait for a zoom — not a counted abort);
    ``cascade``/``hop`` place the event inside one abort cascade
    (``hop`` = distance from the cascade's seed victims, -1 = no cascade).
    """

    KIND: ClassVar[str] = "abort"

    tid: int
    label: str
    core: int
    start: int
    executed: int
    reason: str
    parked: bool
    cascade: int
    hop: int


@dataclass
class SquashEvent(Event):
    """A task was discarded because its parent aborted (no re-execution)."""

    KIND: ClassVar[str] = "squash"

    tid: int
    label: str
    reason: str
    cascade: int
    hop: int


@dataclass
class ConflictEvent(Event):
    """A memory conflict: the access that triggered an abort decision.

    ``line`` is the conflicting cache line; ``cause`` is one of
    ``read-write`` / ``write`` / ``premature-access`` / ``false-positive``;
    ``tid``/``vt``/``core`` describe the accessor, the ``victim*`` lists
    the tasks chosen to die (VT order decides).
    """

    KIND: ClassVar[str] = "conflict"

    line: int
    cause: str
    tid: int
    vt: str
    core: Optional[int]
    victims: List[int]
    victim_vts: List[str]
    victim_cores: List[Optional[int]]


@dataclass
class SpillEvent(Event):
    """A coalescer stored tasks to memory or a splitter restored them."""

    KIND: ClassVar[str] = "spill"

    tile: int
    op: str              # "coalescer" | "splitter"
    n_tasks: int
    duration: int


@dataclass
class ZoomEvent(Event):
    """A zoom-in/out completed; ``depth`` is the new zoom-stack depth."""

    KIND: ClassVar[str] = "zoom"

    direction: str       # "in" | "out"
    depth: int
    n_spilled: int


@dataclass
class WraparoundEvent(Event):
    """The tiebreaker allocator wrapped and compacted all live VTs."""

    KIND: ClassVar[str] = "wraparound"

    n_live: int


@dataclass
class GvtTickEvent(Event):
    """One GVT arbiter update (every ``commit_interval`` cycles)."""

    KIND: ClassVar[str] = "gvt_tick"

    n_live: int
    n_finished: int
    commits: int


@dataclass
class DivertEvent(Event):
    """The hint scheduler load-balanced a task away from its home tile."""

    KIND: ClassVar[str] = "divert"

    hint: int
    home: int
    tile: int


@dataclass
class FaultInjectedEvent(Event):
    """The fault injector fired at one of its sites (see repro.faults)."""

    KIND: ClassVar[str] = "fault_injected"

    site: str            # "task_exception" | "conflict" | "slow_task"
    tid: int
    label: str
    attempt: int
    detail: str


@dataclass
class RetryBackoffEvent(Event):
    """An aborted attempt was requeued with an exponential-backoff delay."""

    KIND: ClassVar[str] = "retry_backoff"

    tid: int
    label: str
    attempt: int
    delay: int
    reason: str


@dataclass
class LivelockThrottleEvent(Event):
    """The livelock detector changed the dispatch throttle.

    ``action`` is ``"throttle"`` (one task per tile from now on) or
    ``"release"`` (normal dispatch restored); the rates describe the
    sliding window that drove the decision.
    """

    KIND: ClassVar[str] = "livelock_throttle"

    action: str
    abort_rate: float
    window_aborts: int
    window_commits: int


@dataclass
class SafeModeEnterEvent(Event):
    """Abort-storm escalation: execution is now fully serialized."""

    KIND: ClassVar[str] = "safe_mode_enter"

    abort_rate: float
    n_live: int
    cause: str           # "livelock" | "queue_overflow"


@dataclass
class SafeModeExitEvent(Event):
    """Safe mode released after the required serialized commits."""

    KIND: ClassVar[str] = "safe_mode_exit"

    commits: int
    cycles: int          # cycles spent serialized


@dataclass
class QueuePressureEvent(Event):
    """A task queue exceeded its hard capacity and degradation kicked in.

    ``action`` is ``"emergency_spill"``, ``"safe_mode"`` or ``"fail"``.
    """

    KIND: ClassVar[str] = "queue_pressure"

    tile: int
    pending: int
    capacity: int
    action: str


@dataclass
class WatchdogEvent(Event):
    """The resilience watchdog stopped the run (partial stats returned)."""

    KIND: ClassVar[str] = "watchdog_fire"

    limit_kind: str      # "max_cycles" | "max_wall_seconds"
    limit: float
    n_live: int


# --- speculative-for events (repro.specfor) ---------------------------


@dataclass
class SpecForRoundEvent(Event):
    """One reserve→check→commit round of a :mod:`repro.specfor` engine.

    Emitted by the round controller via the deferred ``ctx.emit`` path,
    so ``t`` is the cycle the controller *committed* (aborted attempts
    never publish). ``size`` = iterations active this round (``fresh``
    of them newly injected); each is then ``committed`` (commit step
    succeeded), ``filtered`` (reserve step declared it done without a
    commit), or ``carried`` into the next round after losing a
    reservation. ``done``/``total`` track overall progress and ``stage``
    is the livelock ladder rung (0 full rounds, 1 halved, 2 serialized).
    """

    KIND: ClassVar[str] = "specfor_round"

    engine: str
    round: int
    size: int
    fresh: int
    committed: int
    filtered: int
    carried: int
    done: int
    total: int
    stage: int

    def fold_metrics(self, metrics) -> None:
        """Commit-time counter folds (see ``TaskContext.emit``)."""
        metrics.inc("specfor_rounds", engine=self.engine)
        if self.committed:
            metrics.inc("specfor_commits", self.committed,
                        engine=self.engine)
        if self.carried:
            metrics.inc("specfor_reserve_failures", self.carried,
                        engine=self.engine)


#: every concrete event class, keyed by its wire ``kind``
EVENT_TYPES: Dict[str, Type[Event]] = {
    cls.KIND: cls
    for cls in (EnqueueEvent, DispatchEvent, FinishEvent, CommitEvent,
                AbortEvent, SquashEvent, ConflictEvent, SpillEvent,
                ZoomEvent, WraparoundEvent, GvtTickEvent, DivertEvent,
                FaultInjectedEvent, RetryBackoffEvent,
                LivelockThrottleEvent, SafeModeEnterEvent,
                SafeModeExitEvent, QueuePressureEvent, WatchdogEvent,
                SpecForRoundEvent)
}

#: kind -> required field names (the JSONL schema)
EVENT_SCHEMA: Dict[str, Tuple[str, ...]] = {
    kind: tuple(f.name for f in fields(cls))
    for kind, cls in EVENT_TYPES.items()
}


def event_from_dict(d: dict) -> Event:
    """Rebuild a typed event from its ``to_dict`` form (JSONL import)."""
    try:
        cls = EVENT_TYPES[d["kind"]]
    except KeyError:
        raise ValueError(f"unknown event kind {d.get('kind')!r}")
    return cls(**{name: d[name] for name in EVENT_SCHEMA[d["kind"]]})
