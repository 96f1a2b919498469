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

from ..core.task import RUNNING
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

    A dead entry leaves a heap only when it surfaces at the top, so
    without help the heaps would keep every discarded task (and its key
    tuples) alive until then. The simulator calls :meth:`trim` once per
    GVT tick, which compacts the heaps whenever dead entries could
    outnumber live ones: run memory follows the live tasks.
    """

    __slots__ = ("_dyn", "_run", "_seq", "scan_steps", "queries",
                 "peak_entries")

    def __init__(self):
        self._dyn = StrippedIndex("_gvt_token")
        self._run: List[tuple] = []  # (full_key, seq, token, task)
        self._seq = 0
        #: profile counters (run-heap entries examined / min queries)
        self.scan_steps = 0
        self.queries = 0
        #: most entries (dead ones included) seen by :meth:`trim`
        self.peak_entries = 0

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

    def __len__(self) -> int:
        """Entries held, dead ones included."""
        return len(self._run) + len(self._dyn)

    def trim(self, n_live: int) -> None:
        """Compact when the heaps hold more than ``2 * n_live + 64``
        entries. Each live task has at most one valid entry, so at least
        half are dead when this fires, and the pass costs amortized O(1)
        per push."""
        n = len(self)
        if n > self.peak_entries:
            self.peak_entries = n
        if n > 2 * n_live + 64:
            self.compact()

    def compact(self) -> None:
        """Drop every dead entry and re-heapify what is left.

        Filtering by token is correct at any moment, unlike
        :meth:`rebuild`, which would misclassify a task whose body is
        executing (its run entry is pushed only once the body returns).
        :meth:`min_key` returns a key, not an entry, so the heaps' new
        storage order changes nothing it reports.
        """
        run = self._run
        run[:] = [e for e in run if e[2] == e[3]._gvt_token]
        heapq.heapify(run)
        self._dyn.compact()

    def rebuild(self, live) -> None:
        """Re-key everything after a global VT rewrite (zoom/compaction)."""
        self._dyn.clear()
        self._run.clear()
        for task in live:
            if task.state is RUNNING:
                self.add_run(task)
            elif not (task.is_speculative or task.zoom_parked):
                # pending, waiting for a zoom, or spilled by a coalescer;
                # parked outer domains are later than all live tasks
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
