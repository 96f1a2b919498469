"""Per-tile task units: task queues and commit queues (paper Sec. 4.1).

The task queue holds pending (not yet dispatched) task descriptors ordered
by fractal VT; the commit queue holds the speculative state of finished
tasks awaiting commit. Together they form a task-level reorder buffer.

The pending queue is one lazy-deletion binary heap of
``(key, seq, token, task)``: the lowest key pops first, FIFO ``seq``
order breaks ties. Squashes, spills and VT rewrites (zooming, tiebreaker
compaction) invalidate entries in place via a per-enqueue token, and
:meth:`rebuild` re-keys everything after a global VT rewrite. The heap is
the only copy of the queue: the scheduler's stripped-key query, asked
only while a splitter waits on the tile, reads the same entries. Spill
victim selection and rebuilds walk the heap in storage order, so that
order is part of what a run produces.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from ..errors import SimulationError


class TaskUnit:
    """Task queue + commit queue of one tile."""

    def __init__(self, tile_id: int, task_queue_cap: int, commit_queue_cap: int):
        self.tile_id = tile_id
        self.task_queue_cap = task_queue_cap
        self.commit_queue_cap = commit_queue_cap
        self._heap: List[Tuple[tuple, int, int, object]] = []  # (key, seq, token, task)
        self._seq = 0
        #: exact number of live pending tasks in this queue
        self.pending_count = 0
        #: finished tasks holding commit-queue entries
        self.commit_occupancy = 0
        #: tasks that finished but found the commit queue full (stall)
        self.finish_stalled: List[object] = []
        # stats
        self.peak_pending = 0
        self.peak_commit = 0
        #: profile counters for :meth:`peek_min_stripped`: heap entries
        #: examined and queries answered
        self.scan_steps = 0
        self.queries = 0

    # ------------------------------------------------------------------
    # pending (task queue)
    # ------------------------------------------------------------------
    def enqueue(self, task) -> None:
        """Queue a pending task (its ``vt`` must be set to its lower bound)."""
        task.queue_tile = self.tile_id
        task.queue_token += 1
        self._seq += 1
        heapq.heappush(self._heap,
                       (task.order_key, self._seq, task.queue_token, task))
        self.pending_count += 1
        if self.pending_count > self.peak_pending:
            self.peak_pending = self.pending_count

    def remove(self, task) -> None:
        """Lazily remove a pending task (squash or spill)."""
        task.queue_token += 1  # invalidates the heap entry
        self.pending_count -= 1
        if self.pending_count < 0:
            raise SimulationError("task queue pending_count underflow")

    def pop_best(self) -> Optional[object]:
        """Dequeue the lowest-VT live pending task, skipping stale entries."""
        heap = self._heap
        while heap:
            key, seq, token, task = heapq.heappop(heap)
            if token != task.queue_token:
                continue
            task.queue_token += 1
            self.pending_count -= 1
            return task
        return None

    def peek_min_key(self) -> Optional[tuple]:
        """Lowest live pending VT key (for GVT), or None when empty."""
        heap = self._heap
        while heap:
            key, seq, token, task = heap[0]
            if token != task.queue_token:
                heapq.heappop(heap)
                continue
            return key
        return None

    def peek_min_stripped(self, now_lb: int) -> Optional[tuple]:
        """Lowest live pending key under the stripped transform with
        ``now_lb`` as the dynamic final tiebreaker, or None when empty.
        Equals ``min(stripped(t.order_key) for t in live_pending())``.

        Stripped keys of different lengths reorder as ``now_lb`` grows
        (see :mod:`repro.arch.frontier`), but within one key length the
        smallest key has the smallest prefix. So one pass keeps the
        smallest live key per length and splices ``now_lb`` onto each.
        The scan leaves the heap untouched: its storage order is
        observable (:meth:`live_pending`).
        """
        self.queries += 1
        heap = self._heap
        self.scan_steps += len(heap)
        mins: Dict[int, tuple] = {}
        for key, seq, token, task in heap:
            if token == task.queue_token:
                low = mins.get(len(key))
                if low is None or key < low:
                    mins[len(key)] = key
        return min((key[:-1] + (now_lb,) for key in mins.values()),
                   default=None)

    def live_pending(self) -> List[object]:
        """All live pending tasks in heap storage order (O(queue); used by
        spills and rebuilds). The token discipline leaves at most one live
        entry per task."""
        return [task for key, seq, token, task in self._heap
                if token == task.queue_token]

    def rebuild(self) -> None:
        """Re-key every live entry after a global VT rewrite."""
        tasks = self.live_pending()
        self._heap.clear()
        self.pending_count = 0
        for task in tasks:
            self.enqueue(task)

    @property
    def fill_fraction(self) -> float:
        """Occupied fraction of the task queue (spill trigger input)."""
        return self.pending_count / self.task_queue_cap

    def snapshot(self) -> dict:
        """JSON-safe queue state for crash bundles (repro.faults)."""
        return {
            "tile": self.tile_id,
            "pending": self.pending_count,
            "task_queue_cap": self.task_queue_cap,
            "commit_occupancy": self.commit_occupancy,
            "commit_queue_cap": self.commit_queue_cap,
            "finish_stalled": [getattr(t, "tid", -1)
                               for t in self.finish_stalled],
            "peak_pending": self.peak_pending,
            "peak_commit": self.peak_commit,
        }

    # ------------------------------------------------------------------
    # commit queue
    # ------------------------------------------------------------------
    def commit_queue_full(self) -> bool:
        """True when no commit-queue entry is free."""
        return self.commit_occupancy >= self.commit_queue_cap

    def acquire_commit_entry(self) -> bool:
        """Reserve a commit-queue entry; False when full."""
        if self.commit_queue_full():
            return False
        self.commit_occupancy += 1
        if self.commit_occupancy > self.peak_commit:
            self.peak_commit = self.commit_occupancy
        return True

    def release_commit_entry(self) -> None:
        """Free a commit-queue entry (commit or abort of a finished task)."""
        self.commit_occupancy -= 1
        if self.commit_occupancy < 0:
            raise SimulationError("commit queue occupancy underflow")

    def __repr__(self) -> str:
        return (f"TaskUnit(tile={self.tile_id}, pending={self.pending_count}, "
                f"commitq={self.commit_occupancy}/{self.commit_queue_cap})")
