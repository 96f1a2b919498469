"""Fig. 3: speedup of maxflow versions on 1..N cores.

Paper: maxflow-flat saturates at 4.9x while maxflow-fractal reaches 322x
at 256 cores (over 1-core flat). Expected shape here: flat saturates
early; fractal keeps scaling and clearly wins at the largest core count.
"""

from _common import core_counts, emit, run_once, shape_checks_at
from repro.apps import maxflow
from repro.bench.report import format_table


def _input():
    return maxflow.make_input(b=4, layers=4)


def sweep(cores):
    inp = _input()
    runs = {(v, n): run_once(maxflow, inp, v, n)
            for v in ("flat", "fractal") for n in cores}
    base = runs[("flat", 1)].makespan
    rows = [[f"{n}c",
             f"{base / runs[('flat', n)].makespan:.2f}x",
             f"{base / runs[('fractal', n)].makespan:.2f}x"]
            for n in cores]
    emit("fig03_maxflow_speedup",
         format_table(["cores", "flat", "fractal"], rows))
    return runs


if __name__ == "__main__":
    cores = core_counts()
    runs = sweep(cores)
    top = max(cores)
    if shape_checks_at(top):
        assert runs[("fractal", top)].stats.tasks_committed > 0
        assert (runs[("fractal", top)].makespan
                < runs[("flat", top)].makespan), \
            "fractal must beat flat at the largest core count (Fig. 3)"
