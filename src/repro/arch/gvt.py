"""The global virtual time (GVT) arbiter (paper Sec. 4.1, 4.3, 4.5).

Tiles periodically report their earliest unfinished work; everything that
precedes the global minimum can safely commit (Jefferson's virtual time
algorithm). The arbiter here only paces those ticks; the zoom-in /
zoom-out arbitration and the stack of saved base-domain timestamps that
the paper also places in the arbiter live in :mod:`repro.core.zoom`.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

from ..core.task import TaskState
from ..telemetry.events import GvtTickEvent
from .frontier import StrippedIndex


class GvtFrontier:
    """Incrementally-maintained earliest-unfinished frontier.

    Replaces the per-tick linear re-minimization over every live task with
    two lazy-deletion structures mirroring the GVT's state classification:

    - RUNNING tasks bound the GVT by their *full* finalized key, which is
      fixed for the attempt's lifetime — one ordinary heap suffices.
    - PENDING / WAIT_ZOOM / non-zoom SPILLED tasks bound it by their
      *stripped* key (final tiebreaker tightened to the present), whose
      time-invariant prefix lives in a :class:`StrippedIndex`.
    - FINISHED / FINISH_STALLED / zoom-parked tasks do not bound the GVT
      and are simply invalidated.

    Entries are versioned by the task's ``_gvt_token``; every add bumps it
    first, so at most one entry per task is valid across both structures,
    and a state transition is one O(log n) push (or an O(1) bump for
    discards). Global VT rewrites (zooming, tiebreaker compaction) call
    :meth:`rebuild`. :meth:`min_key` returns exactly the minimum a
    linear scan over the live set would find (the test suite checks it
    against one on every tick).
    """

    __slots__ = ("_dyn", "_run", "_seq", "scan_steps", "queries")

    def __init__(self):
        self._dyn = StrippedIndex("_gvt_token")
        self._run: List[tuple] = []  # (full_key, seq, token, task)
        self._seq = 0
        #: profile counters (run-heap entries examined / min queries)
        self.scan_steps = 0
        self.queries = 0

    def add_dyn(self, task) -> None:
        """Track a task that bounds the GVT by its stripped key."""
        task._gvt_token += 1
        self._dyn.push(task)

    def add_run(self, task) -> None:
        """Track a dispatched task by its full (finalized) key."""
        task._gvt_token += 1
        self._seq += 1
        heapq.heappush(self._run,
                       (task.order_key, self._seq, task._gvt_token, task))

    def discard(self, task) -> None:
        """The task no longer bounds the GVT (finished/squashed/parked)."""
        task._gvt_token += 1

    def min_key(self, now_lb: int) -> Optional[tuple]:
        """The GVT bound: min over running full keys and dynamic stripped
        keys with ``now_lb`` as the tightened final tiebreaker."""
        self.queries += 1
        best: Optional[tuple] = None
        run = self._run
        while run:
            key, seq, token, task = run[0]
            self.scan_steps += 1
            if token != task._gvt_token:
                heapq.heappop(run)
                continue
            best = key
            break
        dyn = self._dyn.min_candidate(now_lb)
        if dyn is not None and (best is None or dyn < best):
            best = dyn
        return best

    def rebuild(self, live) -> None:
        """Re-key everything after a global VT rewrite (zoom/compaction)."""
        self._dyn.clear()
        self._run.clear()
        for task in live:
            state = task.state
            if state is TaskState.RUNNING:
                self.add_run(task)
            elif state in (TaskState.PENDING, TaskState.WAIT_ZOOM):
                self.add_dyn(task)
            elif state is TaskState.SPILLED:
                if getattr(task.spill_buffer, "is_zoom", False):
                    continue  # parked outer domains are later than all live
                self.add_dyn(task)

    def __repr__(self) -> str:
        return (f"GvtFrontier(run={len(self._run)}, dyn={self._dyn!r})")


class GvtArbiter:
    """Paces GVT ticks."""

    def __init__(self, commit_interval: int = 200):
        self.commit_interval = commit_interval
        #: telemetry bus (installed by the simulator; None/falsy = off)
        self.bus = None
        self.ticks = 0

    def next_tick(self, now: int) -> int:
        """Cycle of the next arbiter update after ``now``."""
        return now + self.commit_interval

    def note_tick(self, now: int, n_live: int, n_finished: int,
                  commits: int) -> None:
        """Record one arbiter update (and emit its telemetry event);
        ``commits`` is the number of commits so far."""
        self.ticks += 1
        if self.bus:
            self.bus.emit(GvtTickEvent(now, n_live, n_finished, commits))
