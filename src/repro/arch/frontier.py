"""Incrementally-maintained VT frontier indexes (hot-path structures).

The simulator repeatedly needs "the earliest pending work under the
*stripped* VT transform" — a task's key with its final lower-bound
tiebreaker replaced by the present cycle's bound (see
``Simulator._stripped``). Recomputing that minimum by scanning queues,
spill buffers and the whole live set on every dispatch/GVT tick is what
made the simulator core O(live) per event; these indexes make it
O(log n) amortized per queue operation with lazy deletion, following the
order-maintenance approach of DePa (Westrick et al., 2022) adapted to
fractal VTs.

The subtlety that shapes the design: stripped keys of tasks at
*different* nesting depths are not comparable time-invariantly. Two
stripped candidates share the dynamic bound ``now_lb`` in their final
position, so within one depth (one key length) their order never changes
as ``now`` advances — but across depths, a shallow task's final
``now_lb`` is compared against a deep task's *frozen* ancestor
tiebreaker, and that comparison flips as ``now_lb`` grows past it. Hence
:class:`StrippedIndex` keeps **one lazy-deletion heap per depth**
(time-invariant order inside each) and takes the minimum across the few
live depths at query time, splicing the caller's current ``now_lb`` into
each depth's top entry. This yields exactly the value the linear scan
would produce, at O(depths) per query.

Entry invalidation is by token: each entry snapshots the owner task's
token attribute at push time and is dead once the token moved on. Pushes
always bump the token first, so at most one entry per task is ever
valid. A dead entry leaves its heap only when it surfaces at the top, so
an owner that keeps the heaps small (the GVT frontier) calls
:meth:`StrippedIndex.compact` to drop the dead entries in one pass.
"""

from __future__ import annotations

import heapq
from operator import attrgetter
from typing import Dict, List, Optional, Tuple


class StrippedIndex:
    """Per-depth lazy-deletion heaps over stripped VT prefixes.

    A key's stripped transform is ``key[:-1] + (now_lb,)`` (see
    ``Simulator._stripped``); everything but ``now_lb`` is fixed at
    enqueue time (requeues replace only the lower bound, and global VT
    rewrites rebuild the indexes wholesale), so each entry stores the
    prefix ``key[:-1]`` in the heap for its key length.

    ``token_attr`` names the integer attribute on tasks that versions
    their entries (``queue_token`` for queue/buffer indexes,
    ``_gvt_token`` for the GVT frontier). The caller is responsible for
    bumping it to invalidate; :meth:`push` records the current value.
    """

    __slots__ = ("_heaps", "_seq", "_token_of", "scan_steps", "queries")

    def __init__(self, token_attr: str = "queue_token"):
        # depth -> heap of (prefix, seq, token, task)
        self._heaps: Dict[int, List[Tuple[tuple, int, int, object]]] = {}
        self._seq = 0
        self._token_of = attrgetter(token_attr)
        #: profile counters: heap entries examined (incl. stale pops) and
        #: min queries answered — the measured frontier-scan length
        self.scan_steps = 0
        self.queries = 0

    def push(self, task) -> None:
        """Index ``task`` under its current key (token already bumped)."""
        key = task.order_key
        heap = self._heaps.get(len(key))
        if heap is None:
            heap = self._heaps[len(key)] = []
        self._seq += 1
        heapq.heappush(heap, (key[:-1], self._seq, self._token_of(task), task))

    def min_candidate(self, now_lb: int) -> Optional[tuple]:
        """The minimum stripped key over all live entries, with ``now_lb``
        appended as the dynamic final tiebreaker — equal to
        ``min(stripped(t.order_key) for t in live)``."""
        self.queries += 1
        best: Optional[tuple] = None
        token_of = self._token_of
        for heap in self._heaps.values():
            while heap:
                prefix, seq, token, task = heap[0]
                self.scan_steps += 1
                if token != token_of(task):
                    heapq.heappop(heap)
                    continue
                cand = prefix + (now_lb,)
                if best is None or cand < best:
                    best = cand
                break
        return best

    def clear(self) -> None:
        """Drop every entry (global VT rewrite: caller re-pushes)."""
        self._heaps.clear()

    def compact(self) -> None:
        """Drop every dead entry and re-heapify what is left.

        Correct at any moment, since an entry's validity is its token
        alone: the minimum :meth:`min_candidate` returns is unchanged, and
        only the heaps' storage order moves.
        """
        token_of = self._token_of
        for heap in self._heaps.values():
            heap[:] = [e for e in heap if e[2] == token_of(e[3])]
            heapq.heapify(heap)

    def __len__(self) -> int:
        """Entries held, dead ones included."""
        return sum(map(len, self._heaps.values()))

    def __repr__(self) -> str:
        sizes = {d: len(h) for d, h in self._heaps.items()}
        return f"StrippedIndex(depths={sizes})"
