"""Fig. 15b: core-cycle breakdowns for mis, color, msf at the top core
count (flat vs swarm-fg vs fractal).

Paper: flat dominated by aborts (up to 73% in color) and emptiness;
swarm-fg aborts more than fractal (static conflict priority); fractal
spends the most cycles on committed work.
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


def breakdowns(top):
    rows = []
    results = {}
    for name, app, params in APPS:
        inp = app.make_input(**params)
        for v in VARIANTS:
            run = run_once(app, inp, v, top)
            results[(name, v)] = run
            f = run.stats.breakdown.fractions()
            rows.append([f"{name}-{v}",
                         f"{f['committed']:.1%}", f"{f['aborted']:.1%}",
                         f"{f['spill']:.1%}", f"{f['stall']:.1%}",
                         f"{f['empty']:.1%}",
                         run.stats.tasks_aborted])
    emit(f"fig15b_breakdowns_{top}c",
         format_table(["run", "commit", "abort", "spill", "stall",
                       "empty", "aborted-attempts"], rows),
         runs=results.values())
    return results


if __name__ == "__main__":
    top = max(core_counts())
    results = breakdowns(top)
    if shape_checks_at(top):
        assert results[("mis", "fractal")].stats.tasks_committed > 0
