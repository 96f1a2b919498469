"""Fig. 6: speedup of mis versions on 1..N cores.

Paper at 256 cores: mis-fractal 145x, mis-swarm 117x (24% slower from
over-serialization), mis-flat 98x. Expected shape: all three scale;
fractal on top, swarm penalized by its fixed order, flat lowest.
"""

from _common import core_counts, emit, run_once, shape_checks_at
from repro.apps import mis
from repro.bench.report import format_table

VARIANTS = ("flat", "swarm", "fractal")


def _input():
    return mis.make_input(scale=7, edge_factor=5)


def sweep(cores):
    inp = _input()
    runs = {(v, n): run_once(mis, inp, v, n)
            for v in VARIANTS for n in cores}
    base = runs[("flat", 1)].makespan
    rows = [[f"{n}c"] + [f"{base / runs[(v, n)].makespan:.2f}x"
                         for v in VARIANTS]
            for n in cores]
    emit("fig06_mis_speedup", format_table(["cores"] + list(VARIANTS), rows),
         runs=runs.values())
    return runs


if __name__ == "__main__":
    cores = core_counts()
    runs = sweep(cores)
    top = max(cores)
    if shape_checks_at(top):
        assert runs[("fractal", top)].stats.tasks_committed > 0
        # swarm's extra order constraints cause more aborted work than
        # fractal
        assert (runs[("swarm", top)].stats.tasks_aborted
                >= runs[("fractal", top)].stats.tasks_aborted * 0.5)
