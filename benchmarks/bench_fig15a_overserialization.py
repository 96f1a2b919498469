"""Fig. 15a: flat vs swarm-fg vs fractal on mis, color, and msf.

Paper at 256 cores: fractal best (mis 145x, color 126x, msf 40x);
swarm-fg follows the same trend but is 6-93% slower from its fixed order;
flat lowest (mis 98x, color 74x, msf 9.3x). Expected shape: at the top
core count, fractal <= swarm-fg <= flat in makespan per app (loosely for
color/mis whose gaps are small).
"""

from _common import core_counts, emit, run_once, shape_checks_at
from repro.apps import color, mis, msf
from repro.bench.report import format_table

APPS = [
    ("mis", mis, dict(scale=7, edge_factor=5)),
    ("color", color, dict(scale=6, edge_factor=4)),
    ("msf", msf, dict(scale=6, edge_factor=3)),
]
VARIANTS = ("flat", "swarm", "fractal")


def sweep(cores):
    results = {}
    rows = []
    for name, app, params in APPS:
        inp = app.make_input(**params)
        base = None
        for v in VARIANTS:
            for n in cores:
                run = run_once(app, inp, v, n)
                results[(name, v, n)] = run
                if base is None:
                    base = run.makespan
        for n in cores:
            rows.append([name, f"{n}c"]
                        + [f"{base / results[(name, v, n)].makespan:.2f}x"
                           for v in VARIANTS])
    emit("fig15a_overserialization",
         format_table(["app", "cores"] + list(VARIANTS), rows))
    return results


if __name__ == "__main__":
    cores = core_counts()
    results = sweep(cores)
    top = max(cores)
    if shape_checks_at(top):
        assert results[("mis", "fractal", top)].stats.tasks_committed > 0
        # swarm-fg's static conflict-resolution priority causes more
        # aborted work than fractal's dynamic tiebreakers (paper Sec. 6.2)
        assert (results[("msf", "fractal", top)].makespan
                <= results[("msf", "swarm", top)].makespan * 1.5)
