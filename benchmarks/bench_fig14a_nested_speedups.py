"""Fig. 14a: flat vs fractal speedups under Bloom-filter and precise
conflict detection, for the three nesting-limited apps (maxflow,
labyrinth, bayes).

Paper: flat versions scale to at most 4.9x (Bloom) because their huge
read/write sets overflow the 2 Kbit signatures; precise detection helps
flat only partially (parallelism is still missing); fractal versions
scale to 88x-322x and perform the same under both detection schemes.

Expected shape here: fractal >> flat at the top core count for every app,
and |fractal(bloom) - fractal(precise)| small while flat(precise) >=
flat(bloom).
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


def sweep(cores):
    rows = []
    results = {}
    for name, app, params, (flat_v, frac_v) in APPS:
        inp = app.make_input(**params)
        base = None
        for v in (flat_v, frac_v):
            for mode in ("bloom", "precise"):
                for n in cores:
                    run = run_once(app, inp, v, n, conflict_mode=mode)
                    results[(name, v, mode, n)] = run
                    if base is None:
                        base = run.makespan
        for n in cores:
            rows.append([
                name, f"{n}c",
                f"{base / results[(name, flat_v, 'bloom', n)].makespan:.2f}x",
                f"{base / results[(name, flat_v, 'precise', n)].makespan:.2f}x",
                f"{base / results[(name, frac_v, 'bloom', n)].makespan:.2f}x",
                f"{base / results[(name, frac_v, 'precise', n)].makespan:.2f}x",
            ])
    emit("fig14a_nested_speedups",
         format_table(["app", "cores", "flat/bloom", "flat/precise",
                       "fractal/bloom", "fractal/precise"], rows))
    return results


if __name__ == "__main__":
    cores = core_counts()
    results = sweep(cores)
    top = max(cores)
    if shape_checks_at(top):
        assert (results[("maxflow", "fractal", "bloom", top)].makespan
                < results[("maxflow", "flat", "bloom", top)].makespan)
        assert (results[("labyrinth", "fractal", "bloom", top)].makespan
                < results[("labyrinth", "hwq", "bloom", top)].makespan)
        assert (results[("bayes", "fractal", "bloom", top)].makespan
                < results[("bayes", "hwq", "bloom", top)].makespan)
