"""Swarm sssp: single-source shortest paths with timestamp = tentative
distance (speculative Dijkstra).

Each task visits one (node, distance) candidate: the first visit of a node
(smallest timestamp — the execution model guarantees timestamp order)
claims its distance and relaxes its out-edges by enqueueing candidates at
``ts = dist + weight``. Later candidates for a settled node are no-ops.
Integer weights keep timestamps exact.
"""

from __future__ import annotations

import random
from typing import Dict

from ...errors import AppError
from ...graphs import Graph, rmat
from ...graphs.reference import dijkstra_lengths
from ...vt import Ordering
from ..common import require_variant

UNSETTLED = -1


def make_input(scale: int = 7, edge_factor: int = 4, max_weight: int = 16,
               seed: int = 22) -> Graph:
    g = rmat(scale, edge_factor, seed=seed)
    rng = random.Random(seed ^ 0x55)
    for u, v in g.edges():
        w = rng.randint(1, max_weight)
        g.weights[(u, v)] = w
        g.weights[(v, u)] = w
    return g


def build(host, g: Graph, variant: str = "swarm", source: int = 0) -> Dict:
    require_variant(variant, ("swarm",))
    dist = host.array("sssp.dist", g.n * 8, fill=UNSETTLED)
    adj = [tuple((ngh, int(g.weight(v, ngh))) for ngh in g.neighbors(v))
           for v in range(g.n)]

    def visit(ctx, v, d):
        if dist.get(ctx, v * 8) != UNSETTLED:
            return
        dist.set(ctx, v * 8, d)
        ctx.compute(6)
        for (ngh, w) in adj[v]:
            ctx.enqueue(visit, ngh, d + w, ts=d + w, hint=ngh,
                        label="visit")

    host.enqueue_root(visit, source, 0, ts=0, hint=source, label="visit")
    return {"dist": dist, "graph": g, "source": source}


def root_ordering(variant: str) -> Ordering:
    return Ordering.ORDERED_32


def check(handles: Dict, g: Graph) -> int:
    """Distances must match the reference Dijkstra; returns reached
    count."""
    want = dijkstra_lengths(g, handles["source"])
    reached = 0
    for v in range(g.n):
        got = handles["dist"].peek(v * 8)
        if v in want:
            reached += 1
            if got != int(want[v]):
                raise AppError(f"dist[{v}] = {got}, expected {int(want[v])}")
        elif got != UNSETTLED:
            raise AppError(f"unreachable node {v} got distance {got}")
    return reached
