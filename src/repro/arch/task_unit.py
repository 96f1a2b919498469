"""Per-tile task units: task queues and commit queues (paper Sec. 4.1).

The task queue holds pending (not yet dispatched) task descriptors ordered
by fractal VT; the commit queue holds the speculative state of finished
tasks awaiting commit. Together they form a task-level reorder buffer.

The pending queue is a lazy-deletion binary heap: squashes, spills and VT
rewrites (zooming, tiebreaker compaction) invalidate entries in place via a
per-enqueue token, and :meth:`rebuild` re-keys everything after a global VT
rewrite.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from ..errors import SimulationError
from .frontier import StrippedIndex


class TaskUnit:
    """Task queue + commit queue of one tile."""

    def __init__(self, tile_id: int, task_queue_cap: int, commit_queue_cap: int):
        self.tile_id = tile_id
        self.task_queue_cap = task_queue_cap
        self.commit_queue_cap = commit_queue_cap
        self._heap: List[Tuple[tuple, int, int, object]] = []  # (key, seq, token, task)
        # Mirror of the live entries keyed on stripped VT prefixes, so the
        # scheduler's "earliest pending under the stripped transform" query
        # stops scanning the whole queue. Shares the queue_token discipline:
        # every enqueue/remove/pop bump invalidates both structures at once.
        self._stripped_idx = StrippedIndex("queue_token")
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
        self._stripped_idx.push(task)
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
            key, seq, token, task = heap[0]
            if token != task.queue_token:
                heapq.heappop(heap)
                continue
            heapq.heappop(heap)
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
        Equals ``min(stripped(t.order_key) for t in live_pending())``."""
        return self._stripped_idx.min_candidate(now_lb)

    def live_pending(self) -> List[object]:
        """All live pending tasks (O(queue); used by spills and rebuilds)."""
        seen = set()
        out = []
        for key, seq, token, task in self._heap:
            if token == task.queue_token and id(task) not in seen:
                seen.add(id(task))
                out.append(task)
        return out

    def rebuild(self) -> None:
        """Re-key every live entry after a global VT rewrite."""
        tasks = self.live_pending()
        self._heap.clear()
        self._stripped_idx.clear()
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
