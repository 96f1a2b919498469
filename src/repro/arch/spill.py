"""Task spilling: coalescers and splitters (paper Sec. 4.1, Table 2).

When a tile's task queue passes its fill threshold, the task unit dispatches
a *coalescer* — a special job that removes up to ``spill_batch`` of the
latest-VT pending tasks whose parents have committed, stores them in a
memory buffer, and enqueues a *splitter* that will re-enqueue them later.
Splitters are deprioritized relative to all regular tasks, so spilled work
returns only when the tile would otherwise idle.

Zooming (paper Sec. 4.3) reuses this machinery to park whole base domains;
those buffers live on the zoom stack in :mod:`repro.core.zoom`.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.task import COMMITTED, PENDING, SPILLED
from ..telemetry.events import SpillEvent
from .frontier import StrippedIndex


def select_spill_victims(pending: List, now_lb: int, batch: int) -> List:
    """Choose up to ``batch`` tasks to spill from ``pending``.

    Only tasks whose parents have committed (or are roots) can leave the
    queue — spilled tasks must survive any abort cascade. Victims are the
    *latest* in program order under the stripped transform with ``now_lb``
    as every final tiebreaker (frozen lower bounds would mark
    freshly-requeued early work as "latest" and bounce it straight back to
    memory), and the earliest spillable task always stays resident:
    spilling it while it holds the GVT starves every commit.
    """
    spillable = [t for t in pending
                 if t.parent is None
                 or t.parent.state is COMMITTED]
    spillable.sort(key=lambda t: t.order_key[:-1] + (now_lb,), reverse=True)
    if spillable:
        spillable.pop()
    return spillable[:batch]


class SpillBuffer:
    """An in-memory buffer of spilled tasks (one per splitter or zoom
    frame). Building one marks its tasks SPILLED; :meth:`drain` marks
    them PENDING again.

    Buffered tasks are indexed by stripped VT prefix so the scheduler's
    splitter-priority check is O(depths) instead of O(buffer). The index
    piggybacks on ``queue_token``: tasks enter a buffer only after leaving
    their task queue (which bumped the token), so bumping again here never
    invalidates a live queue entry, and every exit path — :meth:`remove`,
    re-enqueue after :meth:`drain` — bumps it once more.
    """

    __slots__ = ("tasks", "is_zoom", "_index")

    def __init__(self, tasks: List, is_zoom: bool = False):
        self.tasks = list(tasks)
        #: True for buffers holding a zoomed-out base domain
        self.is_zoom = is_zoom
        self._index = StrippedIndex("queue_token")
        for t in self.tasks:
            t.state = SPILLED
            t.spill_buffer = self
            t.queue_token += 1
            self._index.push(t)

    def remove(self, task) -> bool:
        """Take one task out (squash, zoom-in); True when it was here."""
        try:
            self.tasks.remove(task)
        except ValueError:
            return False
        task.queue_token += 1  # invalidates the index entry
        task.spill_buffer = None
        return True

    def drain(self) -> List:
        """Empty the buffer: its tasks, PENDING again, in buffer order."""
        tasks, self.tasks = self.tasks, []
        self._index.clear()
        for t in tasks:
            t.state = PENDING
            t.spill_buffer = None
        return tasks

    def min_stripped(self, now_lb: int) -> Optional[tuple]:
        """Lowest stripped key inside, with ``now_lb`` as the final
        tiebreaker — equals ``min(stripped(t.order_key) for t in tasks)``."""
        return self._index.min_candidate(now_lb)

    def reindex(self) -> None:
        """Re-key every entry after a global VT rewrite (compaction)."""
        self._index.clear()
        for t in self.tasks:
            t.queue_token += 1
            self._index.push(t)

    def __len__(self) -> int:
        return len(self.tasks)


class CoalescerJob:
    """A pending spill operation, dispatched like a (non-speculative) task."""

    __slots__ = ("tile_id", "duration")

    kind = "coalescer"

    def __init__(self, tile_id: int, duration: int):
        self.tile_id = tile_id
        self.duration = duration

    def finish_event(self, now: int, n_tasks: int) -> SpillEvent:
        """The telemetry event for this job's completion."""
        return SpillEvent(now, self.tile_id, self.kind, n_tasks,
                          self.duration)

    def __repr__(self) -> str:
        return f"Coalescer(tile={self.tile_id})"


class SplitterJob:
    """A pending re-enqueue of a spill buffer. Deprioritized.

    Spilled tasks keep their GVT frontier entries, standing in for the
    paper's lowest-timestamp tracking of spilled tasks.
    """

    __slots__ = ("tile_id", "buffer", "duration")

    kind = "splitter"

    def __init__(self, tile_id: int, buffer: SpillBuffer, duration: int):
        self.tile_id = tile_id
        self.buffer = buffer
        self.duration = duration

    def finish_event(self, now: int, n_tasks: int) -> SpillEvent:
        """The telemetry event for this job's completion."""
        return SpillEvent(now, self.tile_id, self.kind, n_tasks,
                          self.duration)

    def __repr__(self) -> str:
        return f"Splitter(tile={self.tile_id}, {len(self.buffer)} tasks)"
