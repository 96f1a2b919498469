"""Swarm bfs: breadth-first search with timestamp = BFS level.

The canonical Swarm kernel: one tiny task per (node, level) candidate;
the task claims its node's distance word and blindly enqueues its
neighbours at the next level (duplicates detect themselves on their own
node — the same discipline maxflow's nested global relabel uses).
"""

from __future__ import annotations

from typing import Dict

from ...errors import AppError
from ...graphs import Graph, rmat
from ...graphs.reference import bfs_levels
from ...vt import Ordering
from ..common import require_variant

UNREACHED = -1


def make_input(scale: int = 7, edge_factor: int = 4, seed: int = 21) -> Graph:
    return rmat(scale, edge_factor, seed=seed)


def build(host, g: Graph, variant: str = "swarm", source: int = 0) -> Dict:
    require_variant(variant, ("swarm",))
    dist = host.array("bfs.dist", g.n * 8, fill=UNREACHED)
    adj = [tuple(g.neighbors(v)) for v in range(g.n)]

    def visit(ctx, v, level):
        if dist.get(ctx, v * 8) != UNREACHED:
            return
        dist.set(ctx, v * 8, level)
        ctx.compute(4)
        for ngh in adj[v]:
            ctx.enqueue(visit, ngh, level + 1, ts=level + 1, hint=ngh,
                        label="visit")

    host.enqueue_root(visit, source, 0, ts=0, hint=source, label="visit")
    return {"dist": dist, "graph": g, "source": source}


def root_ordering(variant: str) -> Ordering:
    return Ordering.ORDERED_32


def check(handles: Dict, g: Graph) -> int:
    """Distances must equal the reference BFS levels; returns reached
    count."""
    want = bfs_levels(g, handles["source"])
    reached = 0
    for v in range(g.n):
        got = handles["dist"].peek(v * 8)
        if v in want:
            reached += 1
            if got != want[v]:
                raise AppError(f"dist[{v}] = {got}, expected {want[v]}")
        elif got != UNREACHED:
            raise AppError(f"unreachable node {v} got distance {got}")
    return reached
