"""STAMP yada: Delaunay mesh refinement (Ruppert's algorithm).

The real yada repeatedly fixes "bad" (skinny) triangles by collecting the
*cavity* around each one, deleting it, and re-triangulating — cavities
that overlap must be fixed atomically, which is the speculation workload.

Per DESIGN.md, geometry is substituted by a conflict-equivalent kernel.
The initial mesh is a Delaunay triangulation of random points, read from
the committed table :mod:`.yada_mesh` the way STAMP's yada reads its mesh
from input files (the table is Qhull's output, which the tests regenerate
with scipy). Its triangle-adjacency graph and a min-angle badness test
are real. The *retriangulation* is abstracted — a cavity (a bad triangle
plus its alive neighbours) is killed and replaced by the same number of
fresh triangles from a pool, wired into the cavity's frontier, with
deterministic hash-derived badness that decays with generation
(guaranteeing termination). Speculation behaviour depends on cavity
overlap and pool contention, both of which this kernel preserves.

TM mode consumes the bad-triangle worklist through a software queue
(STAMP's actual design; the Fig. 17 "+HWQueues" step is what makes yada
scale).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ...errors import AppError
from ...vt import Ordering
from .common import drive_workload, require_stamp_variant
from ..common import splitmix

MAX_GENERATION = 3
_BAD_ANGLE_DEG = 25.0


@dataclass
class YadaInput:
    n_triangles: int
    neighbors: List[Tuple[int, ...]]
    bad: List[int]                  # initially-bad triangle ids
    pool_capacity: int
    seed: int


def _min_angle(p0, p1, p2) -> float:
    def ang(a, b, c):
        v1 = (b[0] - a[0], b[1] - a[1])
        v2 = (c[0] - a[0], c[1] - a[1])
        dot = v1[0] * v2[0] + v1[1] * v2[1]
        n1 = math.hypot(*v1)
        n2 = math.hypot(*v2)
        if n1 == 0 or n2 == 0:
            return 0.0
        return math.degrees(math.acos(max(-1.0, min(1.0, dot / (n1 * n2)))))
    return min(ang(p0, p1, p2), ang(p1, p2, p0), ang(p2, p0, p1))


def make_input(n_points: int = 48, seed: int = 13) -> YadaInput:
    # input data: loaded when an input is built, as STAMP reads its mesh file
    from .yada_mesh import MESHES

    mesh = MESHES.get((n_points, seed))
    if mesh is None:
        raise AppError(
            f"no committed yada mesh for n_points={n_points}, seed={seed}; "
            f"print one with `python tests/apps/yada_mesh_oracle.py "
            f"{n_points} {seed}` and add it to repro/apps/stamp/yada_mesh.py")
    pts, simplices, tri_neighbors = mesh
    n = len(simplices)
    neighbors = [tuple(x for x in row if x >= 0) for row in tri_neighbors]
    bad = []
    for t in range(n):
        p = [pts[i] for i in simplices[t]]
        if _min_angle(*p) < _BAD_ANGLE_DEG:
            bad.append(t)
    pool_capacity = n + 64 * max(len(bad), 1)
    return YadaInput(n, neighbors, bad, pool_capacity, seed)


def _new_is_bad(tid: int, gen: int, seed: int) -> bool:
    """Deterministic decaying badness for pool-allocated triangles."""
    if gen >= MAX_GENERATION:
        return False
    return splitmix(tid * 2654435761 + seed) % 100 < 30 // (gen + 1)


def build(host, inp: YadaInput, variant: str = "fractal") -> Dict:
    require_stamp_variant(variant)
    cap = inp.pool_capacity
    alive = host.array("yada.alive", cap, init=[1] * inp.n_triangles)
    # neighbour tuples live one-per-line (hot, mutated on every cavity)
    nbr = host.array("yada.nbr", cap * 8,
                     init=_spread([inp.neighbors[t]
                                   for t in range(inp.n_triangles)], cap))
    pool = host.array("yada.pool", 8 * 8)       # sharded next-id counters
    shard_size = (cap - inp.n_triangles) // 8
    # processed counters are sharded too — one global cell would serialize
    # every cavity through a single word
    processed = host.array("yada.processed", 8 * 8)

    def alloc_ids(ctx, shard, count) -> List[int]:
        base = pool.get(ctx, shard * 8)
        pool.set(ctx, shard * 8, base + count)
        start = inp.n_triangles + shard * shard_size + base
        if base + count > shard_size:
            raise AppError("yada pool shard exhausted; grow pool_capacity")
        return list(range(start, start + count))

    def refine(ctx, t, gen):
        if not alive.get(ctx, t):
            return
        # --- collect the cavity: t plus its alive neighbours ------------
        cavity = [t]
        frontier = []
        for ngh in nbr.get(ctx, t * 8) or ():
            if alive.get(ctx, ngh):
                cavity.append(ngh)
                for outer in nbr.get(ctx, ngh * 8) or ():
                    if outer not in cavity and alive.get(ctx, outer):
                        frontier.append(outer)
        ctx.compute(30 * len(cavity))
        # --- kill the cavity --------------------------------------------
        for c in cavity:
            alive.set(ctx, c, 0)
        # --- re-triangulate: same count of fresh triangles ---------------
        shard = splitmix(t) % 8
        fresh = alloc_ids(ctx, shard, len(cavity))
        ring = tuple(fresh)
        for idx, f in enumerate(fresh):
            others = tuple(x for x in ring if x != f)
            outer = tuple(frontier[idx::len(fresh)])
            alive.set(ctx, f, 1)
            nbr.set(ctx, f * 8, others + outer)
        # --- stitch the frontier back ------------------------------------
        for idx, outer in enumerate(frontier):
            old = nbr.get(ctx, outer * 8) or ()
            patched = tuple(x for x in old if x not in cavity)
            patched += (fresh[idx % len(fresh)],)
            nbr.set(ctx, outer * 8, patched)
        processed.add(ctx, shard * 8, 1)
        for f in fresh:
            if _new_is_bad(f, gen + 1, inp.seed):
                ctx.enqueue(refine, f, gen + 1, hint=f, label="refine")

    def unit(ctx, k):
        refine(ctx, inp.bad[k], 0)

    drive_workload(host, len(inp.bad), unit, variant,
                   hint_fn=lambda k: inp.bad[k], label="refine")
    return {"alive": alive, "nbr": nbr, "processed": processed,
            "pool": pool, "input": inp}


def root_ordering(variant: str) -> Ordering:
    return Ordering.UNORDERED


def _spread(tuples, cap, scale: int = 8):
    out = []
    for t in tuples:
        out.append(tuple(t))
        out.extend([0] * (scale - 1))
    return out


def check(handles: Dict, inp: YadaInput) -> int:
    alive = handles["alive"]
    nbr = handles["nbr"]
    # every initially-bad triangle was refined away
    for t in inp.bad:
        if alive.peek(t):
            raise AppError(f"initially-bad triangle {t} still alive")
    # alive triangles never reference dead cavity members as neighbours
    # that are themselves... (weak symmetric consistency: all alive
    # neighbours of an alive triangle must be alive ids within the pool)
    alive_ids = [t for t in range(inp.pool_capacity) if alive.peek(t)]
    alive_set = set(alive_ids)
    dangling = 0
    for t in alive_ids:
        for ngh in (nbr.peek(t * 8) or ()):
            if ngh >= inp.pool_capacity:
                raise AppError(f"triangle {t} references out-of-pool {ngh}")
            if ngh not in alive_set:
                dangling += 1
    # dead references may remain on triangles the stitching never saw;
    # they must be a small minority of total references
    total_refs = sum(len(nbr.peek(t * 8) or ()) for t in alive_ids) or 1
    if dangling > total_refs // 2:
        raise AppError(
            f"{dangling}/{total_refs} dangling neighbour references")
    # Some initially-bad triangles die as members of another cavity before
    # their own refine runs, so processed <= |bad| + pool-born cavities —
    # but at least one cavity must have been fixed when any existed.
    total = sum(handles["processed"].peek(s * 8) for s in range(8))
    if inp.bad and total < 1:
        raise AppError("no cavity was ever processed")
    return total
