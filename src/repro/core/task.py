"""Task descriptors and their lifecycle (paper Sec. 4.1).

A :class:`TaskDesc` is a task's hardware descriptor: function pointer,
arguments, timestamp, spatial hint, and fractal VT. The same descriptor is
reused across re-executions (attempts) after aborts; all speculative state
(undo log, read/write sets, dependences — installed by
:meth:`repro.mem.memory.SpecMemory.attach_owner`) is per-attempt.

That state is released when the attempt ends, as hardware frees task- and
commit-queue entries: at commit or rollback, ``SpecMemory`` drops the undo
log, the read/write line sets and the Bloom signatures and points
``deps`` / ``dependents`` at one shared empty set. At commit the simulator
also drops ``children``. The ``reads`` / ``writes`` value records exist
only in audited runs, for the serializability audit to replay. So a run
holds memory for its live tasks, not for every task it ever created.

State machine; each edge names the one method that makes it (a
``Simulator`` method unless qualified)::

    PENDING -> RUNNING                          _dispatch_task
    RUNNING -> FINISHED | FINISH_STALLED        _on_finish (entry free | not)
    FINISH_STALLED -> FINISHED                  _leave_commit_queue
    FINISHED | FINISH_STALLED -> COMMITTED      _commit_one
    RUNNING | FINISHED | FINISH_STALLED -> PENDING (in limbo)   _undo_one
    PENDING (in limbo) -> PENDING (queued)      _on_requeue
    any live state -> SQUASHED                  _undo_one (ancestor aborted)
    RUNNING -> WAIT_ZOOM                        _zoom_park
    WAIT_ZOOM -> PENDING                        _zoom_release
    PENDING -> SPILLED                          SpillBuffer() (coalescer)
    PENDING | SPILLED | WAIT_ZOOM -> SPILLED    SpillBuffer() (zoom-in)
    SPILLED -> PENDING                          SpillBuffer.drain

A task waits in its task queue or limbo (PENDING), a spill buffer or zoom
frame (SPILLED), a zoom request (WAIT_ZOOM) or the commit queue; every
abort and zoom-in takes a waiting task out through ``_unqueue``.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, List, Optional, Tuple

from ..mem.memory import NO_EDGES
from ..vt import FractalVT
from .domain import Domain

#: the tid the next TaskDesc will take (process-global, monotonic)
_tid_watermark = 0


def tid_watermark() -> int:
    """The tid the *next* TaskDesc will receive.

    Tids are process-global, so within one process a second run of the
    same workload sees different absolute tids. Anything that needs a
    per-run task identity (e.g. hash-keyed fault injection) subtracts the
    watermark captured at run construction.
    """
    return _tid_watermark


class TaskState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    FINISH_STALLED = "finish-stalled"
    FINISHED = "finished"
    COMMITTED = "committed"
    SQUASHED = "squashed"
    SPILLED = "spilled"
    WAIT_ZOOM = "wait-zoom"


# Each member bound once as a plain module global: reading one costs a
# global lookup, where ``TaskState.RUNNING`` costs an enum class attribute
# lookup several times slower, and the hot path tests states with ``is``
# on every dispatch, abort and GVT scan.
PENDING = TaskState.PENDING
RUNNING = TaskState.RUNNING
FINISH_STALLED = TaskState.FINISH_STALLED
FINISHED = TaskState.FINISHED
COMMITTED = TaskState.COMMITTED
SQUASHED = TaskState.SQUASHED
SPILLED = TaskState.SPILLED
WAIT_ZOOM = TaskState.WAIT_ZOOM


class TaskDesc:
    """One Fractal task."""

    __slots__ = (
        # descriptor
        "tid", "fn", "args", "timestamp", "hint", "domain", "parent", "label",
        # lifecycle
        "state", "_vt", "order_key", "attempt", "aborted", "n_aborts",
        "n_exec_faults", "children", "subdomain",
        # placement
        "queue_tile", "queue_token", "core", "spill_buffer",
        # GVT frontier entry version (see arch.gvt.GvtFrontier)
        "_gvt_token",
        # timing (current attempt)
        "dispatch_time", "duration", "finish_time", "retry_after",
        # deferred app events (ctx.emit), published at commit
        "emits",
        # commit record
        "commit_seq",
        # speculative owner state (installed by SpecMemory.attach_owner)
        "undo", "reads", "writes", "read_lines", "write_lines",
        "deps", "dependents", "sig_read", "sig_write", "_fp_cached",
    )

    def __init__(self, fn: Callable, args: Tuple, domain: Domain,
                 timestamp: Optional[int] = None, hint: Optional[int] = None,
                 parent: Optional["TaskDesc"] = None,
                 label: Optional[str] = None):
        global _tid_watermark
        self.tid = _tid_watermark
        _tid_watermark += 1
        self.fn = fn
        self.args = args
        self.timestamp = timestamp
        self.hint = hint
        self.domain = domain
        self.parent = parent
        self.label = label or getattr(fn, "__name__", "task")

        self.state = PENDING
        self._vt: Optional[FractalVT] = None
        #: the VT's flat sort key, kept in step with ``vt`` (the SpecMemory
        #: owner protocol; queues and the GVT frontier read it too)
        self.order_key: Optional[tuple] = None
        self.attempt = 0
        self.aborted = False
        self.n_aborts = 0
        # attempts that died to an exception escaping the task body
        # (injected or app-code); bounds the resilience retry budget
        self.n_exec_faults = 0
        self.children: List[TaskDesc] = []
        self.subdomain: Optional[Domain] = None

        self.queue_tile = -1
        self.queue_token = 0
        self._gvt_token = 0
        self.core = None
        self.spill_buffer = None

        self.dispatch_time = 0
        self.duration = 0
        self.finish_time = 0
        self.retry_after = 0
        self.emits = None
        self.commit_seq = -1
        # Dependence edges exist even before the first dispatch (the abort
        # cascade walks children's dependents); SpecMemory gives each
        # attempt its own set at the attempt's first edge.
        self.deps = self.dependents = NO_EDGES

    # ------------------------------------------------------------------
    @property
    def vt(self) -> Optional[FractalVT]:
        """The task's current fractal VT."""
        return self._vt

    @vt.setter
    def vt(self, vt: FractalVT) -> None:
        self._vt = vt
        self.order_key = vt.key

    def still_executing(self) -> bool:
        """True while this attempt's finish event is still in the future
        (its stores are conceptually in flight). ``SpecMemory`` tracks this
        itself (``attach_owner`` to ``finish``); the tests' chain-walk
        oracle (``tests/mem/inflight_oracle.py``) reads this method."""
        return self.state is RUNNING

    @property
    def is_speculative(self) -> bool:
        """True while this attempt holds speculative state."""
        state = self.state
        return (state is RUNNING or state is FINISHED
                or state is FINISH_STALLED)

    @property
    def zoom_parked(self) -> bool:
        """True while a zoom frame holds this task: it belongs to a
        zoomed-out base domain and neither runs nor bounds the GVT."""
        return self.state is SPILLED and self.spill_buffer.is_zoom

    @property
    def is_live(self) -> bool:
        """Unfinished or uncommitted — bounds the GVT."""
        state = self.state
        return state is not COMMITTED and state is not SQUASHED

    def begin_attempt(self) -> None:
        """Reset per-attempt state at dispatch."""
        self.attempt += 1
        self.aborted = False
        self.children = []
        self.subdomain = None
        self.retry_after = 0
        self.emits = None

    def __repr__(self) -> str:
        vt = f" vt={self.vt!r}" if self.vt is not None else ""
        return f"<{self.label}#{self.tid} {self.state.value}{vt}>"
