"""Fig. 14b: core-cycle breakdowns of flat vs fractal versions at the top
core count (maxflow, labyrinth, bayes), under Bloom and precise conflict
detection.

Paper: flat versions are dominated by aborted work and stalls/emptiness;
fractal versions spend most cycles on committed work (aborts 7-24%).
"""

from _common import core_counts, emit, run_once, shape_checks_at
from repro.apps import bayes, labyrinth, maxflow
from repro.bench.report import format_table

APPS = [
    ("maxflow", maxflow, dict(b=4, layers=4), ("flat", "fractal")),
    ("labyrinth", labyrinth, dict(x=10, y=10, z=2, n_paths=12),
     ("hwq", "fractal")),
    ("bayes", bayes, dict(n_decisions=48), ("hwq", "fractal")),
]


def breakdowns(top):
    rows = []
    results = {}
    for name, app, params, variants in APPS:
        inp = app.make_input(**params)
        for v in variants:
            for mode in ("bloom", "precise"):
                run = run_once(app, inp, v, top, conflict_mode=mode)
                results[(name, v, mode)] = run
                f = run.stats.breakdown.fractions()
                rows.append([
                    f"{name}-{v}", mode,
                    f"{f['committed']:.1%}", f"{f['aborted']:.1%}",
                    f"{f['spill']:.1%}", f"{f['stall']:.1%}",
                    f"{f['empty']:.1%}",
                ])
    emit(f"fig14b_breakdowns_{top}c",
         format_table(["run", "conflicts", "commit", "abort", "spill",
                       "stall", "empty"], rows),
         runs=results.values())
    return results


if __name__ == "__main__":
    top = max(core_counts())
    results = breakdowns(top)
    if shape_checks_at(top):
        for name, _, _, (flat_v, frac_v) in APPS:
            flat = results[(name, flat_v,
                            "bloom")].stats.breakdown.fractions()
            frac = results[(name, frac_v,
                            "bloom")].stats.breakdown.fractions()
            # fractal's committed share must beat flat's (Fig. 14b shape)
            assert frac["committed"] > flat["committed"], name
