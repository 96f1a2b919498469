"""Fig. 4: speedup of silo versions on 1..N cores.

Paper at 256 cores: silo-fractal 206x, silo-swarm within ~5% of fractal,
silo-flat only 9.7x. Expected shape: fractal and swarm close together,
both far above flat at the largest core count.
"""

from _common import core_counts, emit, run_once, shape_checks_at
from repro.apps import silo
from repro.bench.report import format_table

VARIANTS = ("flat", "swarm", "fractal")


def _input():
    return silo.make_input(n_warehouses=2, n_districts=4, n_txns=128)


def sweep(cores):
    inp = _input()
    runs = {(v, n): run_once(silo, inp, v, n)
            for v in VARIANTS for n in cores}
    base = runs[("flat", 1)].makespan
    rows = [[f"{n}c"] + [f"{base / runs[(v, n)].makespan:.2f}x"
                         for v in VARIANTS]
            for n in cores]
    emit("fig04_silo_speedup", format_table(["cores"] + list(VARIANTS), rows))
    return runs


if __name__ == "__main__":
    cores = core_counts()
    runs = sweep(cores)
    top = max(cores)
    if shape_checks_at(top):
        assert runs[("fractal", top)].stats.tasks_committed > 0
        assert (runs[("fractal", top)].makespan
                < runs[("flat", top)].makespan)
        # silo-swarm approaches fractal (paper: within 4.5%; loose at toy
        # scale)
        assert (runs[("swarm", top)].makespan
                < 2.0 * runs[("fractal", top)].makespan)
