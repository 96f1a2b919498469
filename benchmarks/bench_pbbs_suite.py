"""PBBS deterministic-reservation suite: spanning / contract / refine.

Two paper-style tables:

- ``pbbs_variants`` — makespan of every variant (flat, swarm, fractal,
  specfor) across the core sweep, normalized to flat@1c. The specfor
  column shows the cost/benefit of round-based reservations *inside* a
  fractal domain against the same app written as flat ordered tasks or
  hand-nested fractal tasks.
- ``pbbs_granularity`` — the specfor variant swept across round
  granularities (PBBS ``maxRoundSize = n/granularity + 1``): coarse
  rounds expose more parallelism per phase barrier but carry more
  reservation losers between rounds.
"""

from _common import core_counts, emit, run_once, shape_checks_at
from repro.apps.pbbs import contract, refine, spanning
from repro.bench.report import format_table

SUITE = [
    ("spanning", spanning, dict(scale=6, edge_factor=3)),
    ("contract", contract, dict(n=64)),
    ("refine", refine, dict(width=10, n_ops=64)),
]

VARIANTS = ("flat", "swarm", "fractal", "specfor")
GRANULARITIES = (2, 8, 32)


def sweep_variants(cores):
    rows = []
    results = {}
    for name, app, params in SUITE:
        inp = app.make_input(**params)
        base = None
        for variant in VARIANTS:
            row = [name, variant]
            for n in cores:
                run = run_once(app, inp, variant, n)
                results[(name, variant, n)] = run
                if base is None:
                    base = run.makespan
                row.append(f"{base / run.makespan:.2f}x")
            rows.append(row)
    emit("pbbs_variants",
         format_table(["app", "variant"] + [f"{n}c" for n in cores], rows))
    return results


def sweep_granularity(cores):
    rows = []
    results = {}
    for name, app, params in SUITE:
        inp = app.make_input(**params)
        for g in GRANULARITIES:
            row = [name, str(g)]
            for n in cores:
                run = run_once(app, inp, "specfor", n, granularity=g)
                results[(name, g, n)] = run
                row.append(str(run.makespan))
            rows.append(row)
    emit("pbbs_granularity",
         format_table(["app", "granularity"] + [f"{n}c" for n in cores],
                      rows))
    return results


if __name__ == "__main__":
    cores = core_counts()
    # variant names and granularities never collide as keys
    results = {**sweep_variants(cores), **sweep_granularity(cores)}
    top = max(cores)
    if shape_checks_at(top):
        for name, _, _ in SUITE:
            for variant in VARIANTS:
                assert results[(name, variant, top)].stats.completed, \
                    (name, variant)
            for g in GRANULARITIES:
                assert results[(name, g, top)].stats.completed, (name, g)
