"""The low-level Fractal task interface (paper Sec. 3.1, Listing 1).

Task functions have the signature ``fn(ctx, *args)`` and receive a
:class:`TaskContext` exposing:

- ``load`` / ``store`` — speculative memory access (via the typed wrappers
  in :mod:`repro.mem.data`),
- ``compute(cycles)`` — explicit computation cost,
- ``enqueue`` / ``create_subdomain`` / ``enqueue_sub`` / ``enqueue_super``
  — the Fractal enqueue family, with optional timestamps (ordered domains)
  and spatial hints,
- ``timestamp`` — the running task's own timestamp.

Control-flow exceptions (:class:`TaskAborted`, the internal zoom requests)
unwind a task body when hardware kills or parks the attempt; application
code must let them propagate (never swallow exceptions inside task bodies
with a bare ``except``).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..errors import DomainError, FractalError
from ..vt import Ordering
from ..vt.domain_vt import DOMAIN_VT_BITS
from .domain import Domain
from .task import TaskDesc


class TaskAborted(FractalError):
    """The running attempt was aborted mid-execution (conflict); unwinds
    the task body back to the dispatch loop.

    Carries the task itself: the dispatch loop catches nearly every one of
    these unread, so the message (the task and its VT) is formatted only
    when something asks for it. ``BaseException.__new__`` already sets
    ``args`` to ``(task,)``, so ``__init__`` only names the task.
    """

    def __init__(self, task):
        self.task = task

    def __str__(self) -> str:
        return repr(self.task)


class NeedZoomIn(FractalError):
    """Internal: the attempted subdomain enqueue does not fit the VT bit
    budget; the attempt rolls back and waits for a zoom-in."""

    direction = "in"

    def __init__(self, needed_bits: int):
        super().__init__(f"zoom-in needed for {needed_bits} extra VT bits")
        self.needed_bits = needed_bits


class NeedZoomOut(FractalError):
    """Internal: a base-domain task enqueued to its superdomain, which is
    currently zoomed out of the hardware VT window."""

    direction = "out"
    needed_bits = 0


class TaskContext:
    """Execution context of the task attempts one core runs on the
    speculative simulator.

    The simulator builds one per core and, at each dispatch, points it at
    the new attempt: ``task`` becomes the attempt's task and ``cycles``
    restarts at the dequeue cost.
    """

    __slots__ = ("sim", "task", "tile_id", "core_id", "cycles",
                 "_cache", "_memory", "_l1_hit", "_check_cost")

    def __init__(self, sim, tile_id: int, core_id: int):
        self.sim = sim
        self.task: Optional[TaskDesc] = None
        self.tile_id = tile_id
        self.core_id = core_id
        self.cycles = 0
        # load/store run once per memory access: resolve the simulator's
        # fixed collaborators and latency constants up front
        self._cache = sim.cache
        self._memory = sim.memory
        self._l1_hit = sim.config.latency.l1_hit
        self._check_cost = sim.config.conflict_check_cost

    # ------------------------------------------------------------------
    # program-visible state
    # ------------------------------------------------------------------
    @property
    def timestamp(self) -> Optional[int]:
        """The running task's program timestamp (None in unordered domains)."""
        return self.task.timestamp

    @property
    def hint(self) -> Optional[int]:
        """The running task's spatial hint (None when unhinted)."""
        return self.task.hint

    # ------------------------------------------------------------------
    # memory
    # ------------------------------------------------------------------
    def load(self, addr: int) -> Any:
        """Speculative load (used via the typed wrappers)."""
        task = self.task
        if task.aborted:
            raise TaskAborted(task)
        lat = self._cache.access_latency(task, self.tile_id, addr)
        if lat > self._l1_hit:
            # first touch of a line: the coherence request triggers a
            # distributed conflict check (Table 2: 5 cycles per tile check)
            lat += self._check_cost
        self.cycles += lat
        value = self._memory.load(task, addr)
        if task.aborted:
            raise TaskAborted(task)
        return value

    def store(self, addr: int, value: Any) -> None:
        """Speculative store (used via the typed wrappers)."""
        task = self.task
        if task.aborted:
            raise TaskAborted(task)
        lat = self._cache.access_latency(task, self.tile_id, addr)
        if lat > self._l1_hit:
            lat += self._check_cost
        self.cycles += lat
        self._memory.store(task, addr, value)
        if task.aborted:
            raise TaskAborted(task)

    def compute(self, cycles: int) -> None:
        """Charge ``cycles`` of pure computation to this task."""
        if cycles < 0:
            raise FractalError("compute cycles must be >= 0")
        self.cycles += cycles

    def emit(self, event) -> None:
        """Defer a telemetry event to this task's *commit*.

        Task bodies re-execute after aborts, so emitting straight to the
        bus from inside one would double-count. Deferred events are held
        on the attempt (reset by :meth:`TaskDesc.begin_attempt`) and
        published exactly once, at commit time, stamped with the commit
        cycle; an event with a ``fold_metrics`` method also folds its
        counters into the run's :class:`~repro.telemetry.MetricsRegistry`
        there (metrics fold even with no bus subscribers).
        """
        task = self.task
        if task.emits is None:
            task.emits = [event]
        else:
            task.emits.append(event)

    # ------------------------------------------------------------------
    # enqueues (paper Listing 1)
    # ------------------------------------------------------------------
    def enqueue(self, fn: Callable, *args, ts: Optional[int] = None,
                hint: Optional[int] = None, label: Optional[str] = None) -> TaskDesc:
        """Enqueue a child into the caller's own domain."""
        domain = self.task.domain
        timestamp = domain.validate_child_timestamp(self.task.timestamp, ts)
        return self._spawn(fn, args, domain, timestamp if domain.ordering.is_ordered
                           else None, hint, label, kind="same")

    def create_subdomain(self, ordering: Ordering = Ordering.UNORDERED,
                         flattenable: bool = False) -> Domain:
        """Create this task's (single) subdomain (paper: exactly once).

        ``flattenable`` declares that the subdomain exists only to
        decompose work — its tasks do not rely on executing as one atomic
        unit. When ``config.flatten_nesting`` is on and this task is
        already nested past ``config.flatten_depth_threshold``, such a
        subdomain is elided and its tasks join the caller's domain (the
        paper's Sec. 6.3 future-work compiler pass, as a runtime policy).
        """
        if self.task.subdomain is not None:
            raise DomainError(
                f"{self.task} already created a subdomain; a task may call "
                f"create_subdomain exactly once")
        if not isinstance(ordering, Ordering):
            raise DomainError(f"expected an Ordering, got {ordering!r}")
        self.cycles += self.sim.config.create_subdomain_cost
        cfg = self.sim.config
        if (flattenable and cfg.flatten_nesting
                and ordering is Ordering.UNORDERED
                and self.task.domain.depth >= cfg.flatten_depth_threshold):
            # Elide the level: mark the caller's own domain as the
            # "subdomain" so enqueue_sub routes tasks to it.
            self.task.subdomain = self.task.domain
            self.sim.metrics.inc("domains_flattened")
            return self.task.domain
        sub = Domain(ordering, creator=self.task, parent=self.task.domain)
        self.task.subdomain = sub
        self.sim._note_subdomain(sub)
        return sub

    def enqueue_sub(self, fn: Callable, *args, ts: Optional[int] = None,
                    hint: Optional[int] = None,
                    label: Optional[str] = None) -> TaskDesc:
        """Enqueue a child into the subdomain created by this task."""
        sub = self.task.subdomain
        if sub is None:
            raise DomainError(
                "enqueue_sub before create_subdomain (call it exactly once "
                "before the first subdomain enqueue)")
        if sub is self.task.domain:
            # flattened level: the tasks join the caller's own domain at
            # the caller's timestamp (they were unordered siblings)
            return self.enqueue(fn, *args, ts=self.task.timestamp,
                                hint=hint, label=label)
        timestamp = sub.ordering.validate_timestamp(ts)
        # Budget check: the child VT appends one domain VT to ours.
        needed = DOMAIN_VT_BITS[sub.ordering]
        vt = self.task.vt
        if vt.bits + needed > self.sim.vt_budget:
            if not self.sim.config.enable_zooming:
                vt.child_sub(sub.ordering, 0, 0).check_budget(
                    self.sim.vt_budget)
            raise NeedZoomIn(needed)
        return self._spawn(fn, args, sub, timestamp if sub.ordering.is_ordered
                           else None, hint, label, kind="sub")

    def enqueue_super(self, fn: Callable, *args, ts: Optional[int] = None,
                      hint: Optional[int] = None,
                      label: Optional[str] = None) -> TaskDesc:
        """Enqueue a child into the caller's superdomain."""
        sup = self.task.domain.require_super()
        if self.task.vt.depth == 1:
            # Our domain is currently the hardware base domain: the
            # superdomain lives on the zoom stack. Park and restore it.
            raise NeedZoomOut(repr(self.task))
        # Causality: in an ordered superdomain the child cannot precede the
        # task that created our domain (its position in the superdomain).
        creator = self.task.domain.creator
        timestamp = sup.validate_child_timestamp(
            creator.timestamp if creator is not None else None, ts)
        return self._spawn(fn, args, sup, timestamp if sup.ordering.is_ordered
                           else None, hint, label, kind="super")

    # ------------------------------------------------------------------
    def _spawn(self, fn, args, domain, timestamp, hint, label, kind) -> TaskDesc:
        self.cycles += self.sim.config.enqueue_cost
        child = TaskDesc(fn, args, domain, timestamp=timestamp, hint=hint,
                         parent=self.task, label=label)
        self.task.children.append(child)
        self.sim._enqueue_child(self, child, kind)
        return child

    def __repr__(self) -> str:
        return f"TaskContext({self.task!r} on core {self.core_id})"
