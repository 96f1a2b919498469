"""Maximum flow via push-relabel with global relabeling (paper Secs. 2.1,
6.1; adapted from prsn [8]; input: rmf-wide networks).

Push-relabel maintains per-node heights and excesses. Active nodes (excess
> 0) push flow downhill along residual edges, relabeling (raising their
height) when stuck. The *global relabeling* heuristic periodically
recomputes heights as exact BFS distances to the sink in the residual
graph, which is essential for performance but, as one huge atomic task,
serializes everything it touches (Fig. 1a).

Variants:

- ``flat`` — unordered active-node tasks plus a single monolithic
  global-relabel task that performs the whole backward BFS atomically:
  a giant read/write footprint that conflicts with every concurrent push
  (and overflows Bloom signatures, Fig. 14).
- ``fractal`` — maxflow-fractal: the global-relabel task opens an
  *ordered* subdomain and runs the BFS as per-node wavefront tasks
  (timestamp = BFS level, Fig. 2). The relabel remains atomic relative to
  active-node tasks, but is internally parallel and each task's footprint
  is tiny.

Heights only ever increase (global relabel takes ``max`` with the BFS
distance), preserving the push-relabel invariants.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from ..errors import AppError
from ..graphs import Graph, rmf_wide
from ..vt import Ordering
from .common import VARIANTS_FLAT_FRACTAL, require_variant


class MaxflowInput:
    """Residual-graph arrays precomputed from a capacity graph."""

    def __init__(self, g: Graph, source: int, sink: int):
        self.graph = g
        self.source = source
        self.sink = sink
        self.n = g.n
        # Edge list with paired residuals: edge 2k = forward, 2k+1 = back.
        self.eu: List[int] = []
        self.ev: List[int] = []
        self.cap0: List[int] = []
        self.adj: List[List[Tuple[int, int]]] = [[] for _ in range(g.n)]
        for (u, v) in g.edges():
            c = int(g.weight(u, v))
            e = len(self.cap0)
            self.eu += [u, v]
            self.ev += [v, u]
            self.cap0 += [c, 0]
            self.adj[u].append((v, e))
            self.adj[v].append((u, e + 1))

    @property
    def m(self) -> int:
        return len(self.cap0)


def make_input(b: int = 4, layers: int = 4, seed: int = 4) -> MaxflowInput:
    """An rmf-wide network (paper: 65 K nodes; toy default 64 nodes)."""
    g, s, t = rmf_wide(b, layers, seed=seed)
    return MaxflowInput(g, s, t)


def build(host, inp: MaxflowInput, variant: str = "fractal",
          global_relabel: bool = True,
          relabel_period: Optional[int] = None) -> Dict:
    require_variant(variant, VARIANTS_FLAT_FRACTAL)
    n, s, t = inp.n, inp.source, inp.sink
    # Global relabeling fires roughly every 2n units of push/relabel work
    # (the classic heuristic period); counters are sharded 16 ways.
    period = relabel_period if relabel_period is not None else 2 * n
    shard_threshold = max(period // 16, 2)
    # Hot per-node/per-edge state gets one cache line per entry: at toy
    # input scales, packing nodes 8-per-line makes *every* task falsely
    # share lines with every other, which the paper's 65 K-node inputs do
    # not suffer proportionally. One line per node restores realistic
    # conflict density. Helpers below hide the stride.
    height_a = host.array("mf.height", n * 8,
                          init=_spread((n if v == s else (0 if v == t else 1))
                                       for v in range(n)))
    excess_a = host.array("mf.excess", n * 8)
    cap_a = host.array("mf.cap", (inp.m // 2) * 8, init=_spread_pairs(inp.cap0))
    # Sharded global-relabel trigger counters (one cache line per shard):
    # a single shared counter would serialize every discharge through one
    # word, which real implementations avoid with distributed counters.
    n_shards = 16
    work = host.array("mf.work", n_shards * 8)
    gr_active = host.cell("mf.gr_active", 0)
    gr_epoch = host.cell("mf.gr_epoch", 0)
    gr_mark_a = host.array("mf.gr_mark", n * 8, fill=-1)
    adj = [tuple(a) for a in inp.adj]

    class _Strided:
        """View of a line-spread array with logical indices."""

        __slots__ = ("arr", "scale")

        def __init__(self, arr, scale=8):
            self.arr = arr
            self.scale = scale

        def get(self, ctx, i):
            return self.arr.get(ctx, i * self.scale)

        def set(self, ctx, i, v):
            self.arr.set(ctx, i * self.scale, v)

    class _PairStrided(_Strided):
        """Residual-edge capacities: one line per edge pair (eid, eid^1)."""

        def get(self, ctx, eid):
            return self.arr.get(ctx, (eid >> 1) * 8 + (eid & 1))

        def set(self, ctx, eid, v):
            self.arr.set(ctx, (eid >> 1) * 8 + (eid & 1), v)

    height = _Strided(height_a)
    excess = _Strided(excess_a)
    gr_mark = _Strided(gr_mark_a)
    cap = _PairStrided(cap_a)

    # ---------------- active-node (push/relabel) tasks -----------------
    def discharge(ctx, v):
        e = excess.get(ctx, v)
        if e <= 0 or v in (s, t):
            return
        h = height.get(ctx, v)
        pushed_any = False
        for (ngh, eid) in adj[v]:
            if e <= 0:
                break
            c = cap.get(ctx, eid)
            if c <= 0 or h != height.get(ctx, ngh) + 1:
                continue
            delta = min(e, c)
            cap.set(ctx, eid, c - delta)
            rev = eid ^ 1
            cap.set(ctx, rev, cap.get(ctx, rev) + delta)
            e -= delta
            old = excess.get(ctx, ngh)
            excess.set(ctx, ngh, old + delta)
            pushed_any = True
            if old == 0 and ngh not in (s, t):
                ctx.enqueue(discharge, ngh, hint=ngh, label="active")
        excess.set(ctx, v, e)
        if e > 0:
            # relabel: rise to 1 + min residual-neighbour height
            best = None
            for (ngh, eid) in adj[v]:
                if cap.get(ctx, eid) > 0:
                    hn = height.get(ctx, ngh)
                    if best is None or hn < best:
                        best = hn
            if best is not None:
                height.set(ctx, v, best + 1)
                ctx.enqueue(discharge, v, hint=v, label="active")
        if global_relabel and (pushed_any or e > 0):
            slot = (v % 16) * 8
            w = work.add(ctx, slot, 1)
            if w >= shard_threshold and gr_active.get(ctx) == 0:
                gr_active.set(ctx, 1)
                work.set(ctx, slot, 0)
                ctx.enqueue(relabel_fn[0], hint=t, label="global_relabel")

    # ---------------- global relabel: flat (one giant task) --------------
    def global_relabel_flat(ctx):
        dist = {t: 0}
        frontier = [t]
        while frontier:
            nxt = []
            for v in frontier:
                for (w_, eid) in adj[v]:
                    # residual edge w_ -> v exists if cap(w_ -> v) > 0;
                    # that is the paired edge of (v -> w_).
                    if w_ not in dist and cap.get(ctx, eid ^ 1) > 0:
                        dist[w_] = dist[v] + 1
                        nxt.append(w_)
            frontier = nxt
        for v, d in dist.items():
            if v not in (s, t) and d > height.get(ctx, v):
                height.set(ctx, v, d)
                if excess.get(ctx, v) > 0:
                    ctx.enqueue(discharge, v, hint=v, label="active")
        gr_active.set(ctx, 0)

    # ---------------- global relabel: fractal (ordered BFS) --------------
    def bfs_visit(ctx, v, level, epoch):
        # Swarm-style BFS: no neighbour pre-checks (reading a sibling's
        # visited mark while it runs is a guaranteed conflict); duplicate
        # visits detect themselves on their own node's mark and bail.
        if gr_mark.get(ctx, v) == epoch:
            return
        gr_mark.set(ctx, v, epoch)
        if v not in (s, t) and level > height.get(ctx, v):
            height.set(ctx, v, level)
            if excess.get(ctx, v) > 0:
                ctx.enqueue_super(discharge, v, hint=v, label="active")
        for (w_, eid) in adj[v]:
            if cap.get(ctx, eid ^ 1) > 0:
                ctx.enqueue(bfs_visit, w_, level + 1, epoch,
                            ts=level + 1, hint=w_, label="bfs")

    def gr_done(ctx):
        gr_active.set(ctx, 0)

    def global_relabel_fractal(ctx):
        epoch = gr_epoch.add(ctx, 1)
        ctx.create_subdomain(Ordering.ORDERED_32)
        ctx.enqueue_sub(bfs_visit, t, 0, epoch, ts=0, hint=t, label="bfs")
        ctx.enqueue_sub(gr_done, ts=inp.n + 1, label="gr_done")

    relabel_fn = [global_relabel_flat if variant == "flat"
                  else global_relabel_fractal]

    # ---------------- initialization: saturate source edges -------------
    def init_source(ctx):
        for (ngh, eid) in adj[s]:
            c = cap.get(ctx, eid)
            if c > 0:
                cap.set(ctx, eid, 0)
                rev = eid ^ 1
                cap.set(ctx, rev, cap.get(ctx, rev) + c)
                excess.set(ctx, ngh, excess.get(ctx, ngh) + c)
                if ngh not in (s, t):
                    ctx.enqueue(discharge, ngh, hint=ngh, label="active")

    host.enqueue_root(init_source, label="init")
    return {"excess": excess_a, "height": height_a, "cap": cap_a,
            "input": inp}


def root_ordering(variant: str) -> Ordering:
    return Ordering.UNORDERED


def _spread(values, scale: int = 8):
    """Lay logical values out one per cache line."""
    out = []
    for v in values:
        out.append(v)
        out.extend([0] * (scale - 1))
    return out


def _spread_pairs(cap0):
    """Lay residual capacity pairs out one pair per cache line."""
    out = []
    for k in range(0, len(cap0), 2):
        out.extend([cap0[k], cap0[k + 1], 0, 0, 0, 0, 0, 0])
    return out


def reference_maxflow(inp: MaxflowInput) -> int:
    """Oracle flow value by Edmonds–Karp: augment along shortest residual
    paths over the input's paired edges, where ``e ^ 1`` is ``e``'s
    reverse."""
    s, t = inp.source, inp.sink
    if s == t:
        raise AppError("source and sink are the same node")
    cap = list(inp.cap0)
    value = 0
    while True:
        via = {s: -1}  # node -> residual edge that first reached it
        frontier = deque([s])
        while frontier and t not in via:
            u = frontier.popleft()
            for v, e in inp.adj[u]:
                if cap[e] > 0 and v not in via:
                    via[v] = e
                    frontier.append(v)
        if t not in via:
            return value
        path = []
        v = t
        while v != s:
            path.append(via[v])
            v = inp.eu[via[v]]
        push = min(cap[e] for e in path)
        for e in path:
            cap[e] -= push
            cap[e ^ 1] += push
        value += push


def check(handles: Dict, inp: MaxflowInput) -> int:
    """Flow value at the sink must match the Edmonds–Karp oracle;
    capacities must be conserved per edge pair."""
    flow = handles["excess"].peek(inp.sink * 8)
    want = reference_maxflow(inp)
    if flow != want:
        raise AppError(f"max flow {flow} != oracle {want}")
    cap = handles["cap"]
    for k in range(0, inp.m, 2):
        fwd = cap.peek((k >> 1) * 8)
        bwd = cap.peek((k >> 1) * 8 + 1)
        if fwd + bwd != inp.cap0[k] + inp.cap0[k + 1]:
            raise AppError(f"capacity not conserved on edge pair {k}")
        if fwd < 0 or bwd < 0:
            raise AppError(f"negative residual on edge pair {k}")
    # no excess may remain stranded anywhere but source and sink
    excess = handles["excess"]
    for v in range(inp.n):
        if v not in (inp.source, inp.sink) and excess.peek(v * 8) != 0:
            raise AppError(f"node {v} retains excess {excess.peek(v * 8)}")
    return flow
