"""Fig. 16: zooming overheads on the nested-domain-tree microbenchmark.

Paper: a depth-8 tree with fanout F in 4..12, hardware depth D in 2..8;
1500-cycle tasks. At 1 core, limiting D costs at most 21% (F=4, D=2) and
the cost shrinks as F or D grows. At 256 cores small D also costs
parallelism. Scaled here to a depth-5 tree, F in 2..6, D in 2..5 (the
paper's 39 M-task tree is beyond a Python-resident simulation; the
normalized shape is what is compared).
"""

from _common import core_counts, emit, run_once, shape_checks_at
from repro.apps import zoomtree
from repro.bench.report import format_table
from repro.config import SystemConfig

FANOUTS = (2, 3, 4, 6)
DEPTHS = (2, 3, 4, 5)
TREE_DEPTH = 5


def run_tree(fanout, max_depth, n_cores):
    inp = zoomtree.make_input(fanout=fanout, depth=TREE_DEPTH)
    cfg = SystemConfig.with_cores(
        n_cores, vt_bits=zoomtree.vt_bits_for_depth(max_depth),
        conflict_mode="precise")
    # result check runs inside run_once (check=True); cached repeats are
    # served straight from the result cache
    return run_once(zoomtree, inp, "fractal", n_cores, config=cfg)


def sweep(n_cores):
    rows = []
    results = {}
    for fanout in FANOUTS:
        baseline = run_tree(fanout, TREE_DEPTH, n_cores)
        results[(fanout, TREE_DEPTH)] = baseline
        row = [f"F={fanout}"]
        for d in DEPTHS:
            run = (baseline if d == TREE_DEPTH
                   else run_tree(fanout, d, n_cores))
            results[(fanout, d)] = run
            rel = baseline.makespan / run.makespan
            row.append(f"{rel:.2f} ({run.stats.zoom_ins}z)")
        rows.append(row)
    emit(f"fig16_zooming_{n_cores}c",
         format_table(["fanout"] + [f"D={d}" for d in DEPTHS], rows))
    return results


if __name__ == "__main__":
    results = sweep(1)
    for fanout in (2, 4):
        # performance is monotone in supported depth (Fig. 16a)
        spans = [results[(fanout, d)].makespan for d in DEPTHS]
        assert spans[0] >= spans[-1]
        assert results[(fanout, 2)].stats.zoom_ins > 0
        assert results[(fanout, TREE_DEPTH)].stats.zoom_ins == 0
    n = max(core_counts())
    results = sweep(n)
    if shape_checks_at(n):
        assert results[(4, TREE_DEPTH)].stats.tasks_committed > 0
