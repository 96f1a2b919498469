"""Ablation: task-queue and commit-queue capacity (paper Table 2: 64 + 16
entries per core; Sec. 4.1 spills and stalls).

Shrinking the commit queue forces finish-stalls and pressure aborts;
shrinking the task queue forces coalescer/splitter spills. Both must show
up in the cycle breakdown, and capacity should buy performance back.
"""

from _common import core_counts, emit, shape_checks_at
from repro.apps import mis
from repro.bench.harness import run_app
from repro.bench.report import format_table
from repro.config import SystemConfig

CONFIGS = [
    ("tiny", dict(task_queue_per_core=12, commit_queue_per_core=4)),
    ("small", dict(task_queue_per_core=24, commit_queue_per_core=8)),
    ("paper", dict(task_queue_per_core=64, commit_queue_per_core=16)),
]


def sweep(n_cores):
    inp = mis.make_input(scale=7, edge_factor=4)
    rows = []
    results = {}
    for name, params in CONFIGS:
        cfg = SystemConfig.with_cores(n_cores, **params)
        run = run_app(mis, inp, variant="fractal", n_cores=n_cores,
                      config=cfg)
        results[name] = run
        f = run.stats.breakdown.fractions()
        rows.append([name, f"{run.makespan:,}",
                     f"{f['spill']:.1%}", f"{f['stall']:.1%}",
                     run.stats.tasks_spilled])
    emit(f"ablation_queues_{n_cores}c", format_table(
        ["config", "makespan", "spill", "stall", "tasks spilled"], rows))
    return results


if __name__ == "__main__":
    n = max(core_counts())
    results = sweep(n)
    if shape_checks_at(n):
        # constrained queues must spill more tasks than the paper config
        assert (results["tiny"].stats.tasks_spilled
                >= results["paper"].stats.tasks_spilled)
