"""Ablation: flattening unnecessary nesting (paper Sec. 6.3 future work).

"Nesting could be overused (e.g., increasing the nesting depth at every
intermediate step of a divide-and-conquer algorithm), which would limit
parallelism. ... a compiler pass may be able to safely flatten unnecessary
nesting levels." This bench over-nests the domain-tree microbenchmark
under a tight VT budget and shows the flattening policy removing the
zooming cost.
"""

from _common import core_counts, emit, run_once, shape_checks_at
from repro.apps import zoomtree
from repro.bench.report import format_table
from repro.config import SystemConfig


def sweep(n_cores):
    inp = zoomtree.make_input(fanout=3, depth=6)
    rows = []
    results = {}
    for name, flatten in (("nested", False), ("flattened", True)):
        cfg = SystemConfig.with_cores(
            n_cores, vt_bits=64, conflict_mode="precise",
            flatten_nesting=flatten, flatten_depth_threshold=2)
        # result check runs inside run_once (check=True); cached repeats
        # are served straight from the result cache
        run = run_once(zoomtree, inp, "fractal", n_cores, config=cfg,
                       flattenable=True, max_cycles=200_000_000)
        results[name] = run
        rows.append([name, f"{run.makespan:,}", run.stats.zoom_ins,
                     run.stats.domains_flattened, run.stats.max_depth])
    emit(f"ablation_flatten_{n_cores}c", format_table(
        ["policy", "makespan", "zoom-ins", "levels flattened",
         "max depth"], rows))
    return results


if __name__ == "__main__":
    n = max(core_counts())
    results = sweep(n)
    if shape_checks_at(n):
        assert results["nested"].stats.zoom_ins > 0
        assert results["flattened"].stats.zoom_ins == 0
        assert results["flattened"].makespan <= results["nested"].makespan
