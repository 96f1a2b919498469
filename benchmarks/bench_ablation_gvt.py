"""Ablation: GVT commit interval (paper Table 2: tiles update the arbiter
every 200 cycles).

A longer interval delays commits: commit queues stay full longer, stalls
grow, and makespan inflates; a very short interval approaches continuous
commit. The paper's 200-cycle choice sits on the flat part of this curve.
"""

from _common import core_counts, emit, shape_checks_at
from repro.apps import silo
from repro.bench.harness import run_app
from repro.bench.report import format_table
from repro.config import SystemConfig

INTERVALS = (50, 200, 1000, 4000)


def sweep(n_cores):
    inp = silo.make_input(n_txns=96)
    rows = []
    results = {}
    for interval in INTERVALS:
        cfg = SystemConfig.with_cores(n_cores, commit_interval=interval)
        run = run_app(silo, inp, variant="fractal", n_cores=n_cores,
                      config=cfg)
        results[interval] = run
        rows.append([f"{interval}", f"{run.makespan:,}",
                     run.stats.gvt_ticks,
                     f"{run.stats.breakdown.fractions()['stall']:.1%}"])
    emit(f"ablation_gvt_{n_cores}c", format_table(
        ["commit interval", "makespan", "gvt ticks", "stall"], rows))
    return results


if __name__ == "__main__":
    n = max(core_counts())
    results = sweep(n)
    if shape_checks_at(n):
        # a pathologically long interval must not beat the paper setting
        assert results[4000].makespan >= results[200].makespan
