"""Spanning forest via deterministic reservations (PBBS ``spanningTree``).

Unweighted union-find spanning forest: edges are processed in index order;
an edge whose endpoints lie in different components links them and joins
the forest. The canonical result is the ``in_forest`` flag per edge —
provably identical across variants (and equal to the sequential greedy
loop), unlike the raw ``parent`` array whose intermediate bytes depend on
commit interleaving.

The ``specfor`` step reserves the *larger* endpoint root with priority
writeMin. A single cell per edge means every contended cell's winner
commits in that round, so rounds always progress. Committed links turn
the reserved root into a non-root that no later iteration ever reserves,
which is why stale reservations need no explicit release (the PBBS
``spanningTree.C`` trick).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ...errors import AppError
from ...graphs import Graph, rmat
from ...graphs.reference import component_count, spanning_forest
from ...specfor import DomainSpecFor, ReservationTable, SpecForPolicy
from ...vt import Ordering
from ..common import join_increment, require_variant
from . import VARIANTS_PBBS

_SWARM_STRIDE = 2


def make_input(scale: int = 6, edge_factor: int = 3, seed: int = 5) -> Graph:
    return rmat(scale, edge_factor, seed=seed)


def edge_list(g: Graph) -> List[Tuple[int, int]]:
    """Edges in deterministic index order (the loop's iteration space)."""
    return list(g.edges())


def reference_flags(g: Graph) -> List[int]:
    """Sequential greedy union-find in edge order: 1 for each edge that
    joins two components."""
    edges = edge_list(g)
    flags = [0] * len(edges)
    indexed = ((u, v, i) for i, (u, v) in enumerate(edges))
    for _, _, i in spanning_forest(g.n, indexed):
        flags[i] = 1
    return flags


def build(host, g: Graph, variant: str = "specfor",
          granularity: int = 8) -> Dict:
    require_variant(variant, VARIANTS_PBBS)
    edges = edge_list(g)
    parent = host.array("spanning.parent", g.n, init=range(g.n))
    in_forest = host.array("spanning.in_forest", max(len(edges), 1))
    # swarm/fractal per-edge scratch: two root slots + a join counter,
    # one cache line apart so concurrent finds never false-share
    scratch = host.array("spanning.scratch", max(len(edges) * 3, 1) * 8)
    resv = ReservationTable.alloc(host, "spanning.resv", g.n)

    def find_root(ctx, v) -> int:
        while True:
            p = parent.get(ctx, v)
            if p == v:
                return v
            v = p

    def link(ctx, eidx, ru, rv):
        """Union by root id; records the accepted edge."""
        hi, lo = (ru, rv) if ru > rv else (rv, ru)
        parent.set(ctx, hi, lo)
        in_forest.set(ctx, eidx, 1)

    # --- flat: whole edge in one ordered transaction ------------------
    def edge_flat(ctx, eidx):
        u, v = edges[eidx]
        ru, rv = find_root(ctx, u), find_root(ctx, v)
        if ru != rv:
            link(ctx, eidx, ru, rv)

    # --- fractal: filter, then finds in an unordered subdomain --------
    class _CellView:
        """One scratch word presented as a join-counter cell."""

        __slots__ = ("addr",)

        def __init__(self, addr):
            self.addr = addr

        def add(self, ctx, delta):
            value = ctx.load(self.addr) + delta
            ctx.store(self.addr, value)
            return value

    def _counter(eidx):
        return _CellView(scratch.addr((eidx * 3 + 2) * 8))

    def link_checked(ctx, eidx, ru, rv):
        """Re-validate roots (stale after concurrent links) and union."""
        ru, rv = find_root(ctx, ru), find_root(ctx, rv)
        if ru != rv:
            link(ctx, eidx, ru, rv)

    def find_task(ctx, eidx, endpoint, slot):
        root = find_root(ctx, endpoint)
        scratch.set(ctx, (eidx * 3 + slot) * 8, root)
        if join_increment(ctx, _counter(eidx), 2):
            ru = scratch.get(ctx, eidx * 3 * 8)
            rv = scratch.get(ctx, (eidx * 3 + 1) * 8)
            ctx.enqueue(link_checked, eidx, ru, rv, hint=eidx,
                        label="link")

    def edge_fractal(ctx, eidx):
        u, v = edges[eidx]
        if find_root(ctx, u) == find_root(ctx, v):
            return
        ctx.create_subdomain(Ordering.UNORDERED)
        ctx.enqueue_sub(find_task, eidx, u, 0, hint=u, label="find")
        ctx.enqueue_sub(find_task, eidx, v, 1, hint=v, label="find")

    # --- swarm: fine tasks on a disjoint timestamp range --------------
    def swarm_find(ctx, eidx, endpoint, slot):
        scratch.set(ctx, (eidx * 3 + slot) * 8, find_root(ctx, endpoint))

    def swarm_link(ctx, eidx):
        link_checked(ctx, eidx, scratch.get(ctx, eidx * 3 * 8),
                     scratch.get(ctx, (eidx * 3 + 1) * 8))

    def edge_swarm(ctx, eidx):
        u, v = edges[eidx]
        if find_root(ctx, u) == find_root(ctx, v):
            return
        base = ctx.timestamp
        ctx.enqueue(swarm_find, eidx, u, 0, ts=base, hint=u, label="find")
        ctx.enqueue(swarm_find, eidx, v, 1, ts=base, hint=v, label="find")
        ctx.enqueue(swarm_link, eidx, ts=base + 1, hint=eidx, label="link")

    # --- specfor: reserve the larger root, link on a held cell --------
    class SpanningStep:
        def reserve(self, ctx, i):
            u, v = edges[i]
            ru, rv = find_root(ctx, u), find_root(ctx, v)
            if ru == rv:
                return False  # filter: already connected
            resv.write_min(ctx, max(ru, rv), i)
            return True

        def commit(self, ctx, i):
            u, v = edges[i]
            ru, rv = find_root(ctx, u), find_root(ctx, v)
            if ru == rv:
                # connected by a same-phase commit; next round's reserve
                # filters this iteration out
                return False
            if resv.holds(ctx, max(ru, rv), i):
                link(ctx, i, ru, rv)
                # the linked root is no longer a root, so its stale
                # reservation can never block anyone: no reset needed
                return True
            return False

    if variant == "specfor":
        engine = DomainSpecFor(host, "spanning", SpanningStep(),
                               len(edges),
                               policy=SpecForPolicy(granularity=granularity))
        engine.enqueue_driver(host)
        return {"parent": parent, "in_forest": in_forest, "edges": edges,
                "graph": g, "engine": engine}

    fn = {"flat": edge_flat, "fractal": edge_fractal,
          "swarm": edge_swarm}[variant]
    stride = _SWARM_STRIDE if variant == "swarm" else 1
    for eidx in range(len(edges)):
        host.enqueue_root(fn, eidx, ts=eidx * stride,
                          hint=edges[eidx][0], label="edge")
    return {"parent": parent, "in_forest": in_forest, "edges": edges,
            "graph": g}


def root_ordering(variant: str) -> Ordering:
    # specfor: a single unordered driver; rounds are ordered inside its
    # subdomain. Other variants timestamp the root loop directly.
    return Ordering.UNORDERED if variant == "specfor" else Ordering.ORDERED_32


def result_arrays(handles: Dict) -> Dict[str, list]:
    """The canonical (order-invariant) result of a run."""
    return {"in_forest": handles["in_forest"].snapshot()}


def check(handles: Dict, g: Graph) -> int:
    """Flags must equal the sequential greedy reference *and* form a
    spanning forest of the graph; returns the forest size."""
    flags = handles["in_forest"].snapshot()
    want = reference_flags(g)
    if flags != want:
        diff = [i for i, (a, b) in enumerate(zip(flags, want)) if a != b]
        raise AppError(
            f"in_forest differs from the sequential reference at edge "
            f"indices {diff[:10]} ({len(diff)} total)")
    edges = handles["edges"]
    chosen = [edges[i] for i in range(len(edges)) if flags[i]]
    n_components = component_count(g.n, g.edges())
    if len(chosen) != g.n - n_components:
        raise AppError(
            f"forest has {len(chosen)} edges, expected "
            f"{g.n - n_components}")
    if component_count(g.n, chosen) != n_components:
        raise AppError("chosen edges do not span the graph's components")
    return len(chosen)
