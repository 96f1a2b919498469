"""Test oracle for the task queue: one heap plus a per-depth stripped mirror.

This is the pending-queue half of the earlier ``TaskUnit``. A single
lazy-deletion heap of ``(key, seq, token, task)`` answers ``pop_best``,
``peek_min_key`` and ``live_pending``, and a
:class:`~repro.arch.frontier.StrippedIndex` that mirrors every enqueue
answers ``peek_min_stripped``. The mirror was read only while a splitter
waited on the tile, yet it held an entry for every task the tile ever
queued. Production (:class:`repro.arch.task_unit.TaskUnit`) keeps the
heap and answers the stripped query from it; ``test_queue_oracle.py``
drives both with the same operations and checks they agree.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from repro.arch.frontier import StrippedIndex


class HeapQueueOracle:
    """Pending task queue as one heap plus a stripped-prefix mirror."""

    def __init__(self):
        self._heap: List[Tuple[tuple, int, int, object]] = []
        self._stripped_idx = StrippedIndex("queue_token")
        self._seq = 0
        self.pending_count = 0

    def enqueue(self, task) -> None:
        task.queue_token += 1
        self._seq += 1
        heapq.heappush(self._heap,
                       (task.order_key, self._seq, task.queue_token, task))
        self._stripped_idx.push(task)
        self.pending_count += 1

    def remove(self, task) -> None:
        task.queue_token += 1
        self.pending_count -= 1

    def pop_best(self) -> Optional[object]:
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
        heap = self._heap
        while heap:
            key, seq, token, task = heap[0]
            if token != task.queue_token:
                heapq.heappop(heap)
                continue
            return key
        return None

    def peek_min_stripped(self, now_lb: int) -> Optional[tuple]:
        return self._stripped_idx.min_candidate(now_lb)

    def live_pending(self) -> List[object]:
        seen = set()
        out = []
        for key, seq, token, task in self._heap:
            if token == task.queue_token and id(task) not in seen:
                seen.add(id(task))
                out.append(task)
        return out

    def rebuild(self) -> None:
        tasks = self.live_pending()
        self._heap.clear()
        self._stripped_idx.clear()
        self.pending_count = 0
        for task in tasks:
            self.enqueue(task)
