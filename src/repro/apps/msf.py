"""Minimum spanning forest (paper Sec. 6.2; PBBS-derived [54]; input stands
in for kron_g500-logn16).

Kruskal-style: edges are processed in weight order against a union-find
structure (union by root id, no path compression — keeping finds read-only
makes the nested parallelism meaningful). Includes the PBBS filter
optimization [9]: an edge task first checks the endpoint roots and only
pays the union machinery for candidate spanning edges (this improves
absolute performance but reduces highly-parallel work, lowering
scalability — exactly the paper's note in Sec. 5).

Variants (Table 4: msf is ord-64b -> unord):

- ``flat`` — one ordered task per edge (ts = weight rank, 64-bit): find
  both roots, link if distinct.
- ``fractal`` — each edge task opens an *unordered* subdomain with two
  find tasks (one per endpoint); the last find to arrive (join counter)
  enqueues the link task into the same subdomain.
- ``swarm`` — swarm-fg: the same fine tasks with a disjoint timestamp
  range per edge (rank * 4 + k) in the ordered root domain.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import AppError
from ..graphs import Graph, rmat
from ..graphs.reference import component_count, msf_weight
from ..vt import Ordering
from .common import VARIANTS_ALL, join_increment, require_variant

_SWARM_STRIDE = 2


def make_input(scale: int = 6, edge_factor: int = 3, seed: int = 3) -> Graph:
    return rmat(scale, edge_factor, seed=seed, weighted=True)


def sorted_edges(g: Graph) -> List[Tuple[int, int, float]]:
    """Edges in increasing weight order (ties by endpoints: deterministic)."""
    return sorted(((u, v, g.weight(u, v)) for u, v in g.edges()),
                  key=lambda e: (e[2], e[0], e[1]))


def build(host, g: Graph, variant: str = "fractal") -> Dict:
    require_variant(variant, VARIANTS_ALL)
    edges = sorted_edges(g)
    parent = host.array("msf.parent", g.n, init=range(g.n))
    in_msf = host.array("msf.in_msf", max(len(edges), 1))
    # fractal/swarm per-edge scratch: two root slots + a join counter,
    # one cache line each so the two finds never false-share
    scratch = host.array("msf.scratch", max(len(edges) * 3, 1) * 8)

    def find_root(ctx, v) -> int:
        while True:
            p = parent.get(ctx, v)
            if p == v:
                return v
            v = p

    def link(ctx, eidx, ru, rv):
        """Re-validate roots (they may be stale) and union."""
        ru = find_root(ctx, ru)
        rv = find_root(ctx, rv)
        if ru == rv:
            return
        hi, lo = (ru, rv) if ru > rv else (rv, ru)
        parent.set(ctx, hi, lo)
        in_msf.set(ctx, eidx, 1)

    def edge_flat(ctx, eidx):
        u, v, _w = edges[eidx]
        ru = find_root(ctx, u)
        rv = find_root(ctx, v)
        if ru != rv:
            link(ctx, eidx, ru, rv)

    def find_task(ctx, eidx, endpoint, slot):
        root = find_root(ctx, endpoint)
        scratch.set(ctx, (eidx * 3 + slot) * 8, root)
        if join_increment(ctx, _counter(eidx), 2):
            ru = scratch.get(ctx, eidx * 3 * 8)
            rv = scratch.get(ctx, (eidx * 3 + 1) * 8)
            ctx.enqueue(link, eidx, ru, rv, hint=eidx, label="link")

    class _CellView:
        """Adapter presenting one scratch word as a SpecCell for the join."""

        __slots__ = ("addr",)

        def __init__(self, addr):
            self.addr = addr

        def add(self, ctx, delta):
            value = ctx.load(self.addr) + delta
            ctx.store(self.addr, value)
            return value

    def _counter(eidx):
        return _CellView(scratch.addr((eidx * 3 + 2) * 8))

    def edge_fractal(ctx, eidx):
        u, v, _w = edges[eidx]
        # filter optimization: cheap connectivity pre-check
        if find_root(ctx, u) == find_root(ctx, v):
            return
        ctx.create_subdomain(Ordering.UNORDERED)
        ctx.enqueue_sub(find_task, eidx, u, 0, hint=u, label="find")
        ctx.enqueue_sub(find_task, eidx, v, 1, hint=v, label="find")

    def swarm_find(ctx, eidx, endpoint, slot):
        root = find_root(ctx, endpoint)
        scratch.set(ctx, (eidx * 3 + slot) * 8, root)

    def swarm_link(ctx, eidx):
        link(ctx, eidx, scratch.get(ctx, eidx * 3 * 8),
             scratch.get(ctx, (eidx * 3 + 1) * 8))

    def edge_swarm(ctx, eidx):
        u, v, _w = edges[eidx]
        if find_root(ctx, u) == find_root(ctx, v):
            return
        base = ctx.timestamp
        ctx.enqueue(swarm_find, eidx, u, 0, ts=base, hint=u, label="find")
        ctx.enqueue(swarm_find, eidx, v, 1, ts=base, hint=v, label="find")
        ctx.enqueue(swarm_link, eidx, ts=base + 1, hint=eidx, label="link")

    fn = {"flat": edge_flat, "fractal": edge_fractal,
          "swarm": edge_swarm}[variant]
    stride = _SWARM_STRIDE if variant == "swarm" else 1
    for eidx in range(len(edges)):
        host.enqueue_root(fn, eidx, ts=eidx * stride,
                          hint=edges[eidx][0], label="edge")
    return {"parent": parent, "in_msf": in_msf, "edges": edges, "graph": g}


def root_ordering(variant: str) -> Ordering:
    return Ordering.ORDERED_64


def check(handles: Dict, g: Graph) -> float:
    """Forest weight must match Kruskal's MSF weight; returns the weight."""
    edges = handles["edges"]
    flags = handles["in_msf"].snapshot()
    chosen = [edges[i] for i in range(len(edges)) if flags[i]]
    weight = sum(w for _, _, w in chosen)

    want = msf_weight(g)
    if abs(weight - want) > 1e-9:
        raise AppError(f"MSF weight {weight} != oracle {want}")
    # chosen edges must form a forest covering every component
    n_components = component_count(g.n, g.edges())
    if len(chosen) != g.n - n_components:
        raise AppError(
            f"forest has {len(chosen)} edges, expected {g.n - n_components}")
    return weight
