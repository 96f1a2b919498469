"""Ablation: conflict detection scheme (Bloom filter size vs precise).

DESIGN.md calls out the 2 Kbit 8-way H3 Bloom filters as the mechanism
that punishes coarse tasks (Sec. 6.1). This ablation sweeps the filter
size on maxflow-flat (large footprints) and maxflow-fractal (tiny
footprints): smaller filters must hurt flat progressively while leaving
fractal nearly untouched.
"""

from _common import core_counts, emit, run_once, shape_checks_at
from repro.apps import maxflow
from repro.bench.report import format_table
from repro.config import SystemConfig
from repro.bench.harness import run_app

SIZES = (256, 1024, 2048)


def sweep(n_cores):
    inp = maxflow.make_input(b=4, layers=4)
    results = {}
    rows = []
    for variant in ("flat", "fractal"):
        row = [variant]
        for bits in SIZES:
            cfg = SystemConfig.with_cores(n_cores, conflict_mode="bloom",
                                          bloom_bits=bits)
            run = run_app(maxflow, inp, variant=variant, n_cores=n_cores,
                          config=cfg)
            results[(variant, bits)] = run
            row.append(f"{run.makespan:,}")
        precise = run_once(maxflow, inp, variant, n_cores,
                           conflict_mode="precise")
        results[(variant, "precise")] = precise
        row.append(f"{precise.makespan:,}")
        rows.append(row)
    emit(f"ablation_conflict_{n_cores}c", format_table(
        ["variant"] + [f"bloom-{b}b" for b in SIZES] + ["precise"], rows))
    return results


if __name__ == "__main__":
    n = max(core_counts())
    results = sweep(n)
    if shape_checks_at(n):
        # tiny filters must cost flat more false positives than fractal
        flat_fp = results[("flat", 256)].stats.false_positive_conflicts
        frac_fp = results[("fractal", 256)].stats.false_positive_conflicts
        assert flat_fp >= frac_fp
