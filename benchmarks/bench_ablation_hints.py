"""Ablation: spatial hints on/off (paper Sec. 3.1; hints rescue genome and
kmeans in Fig. 17).

Hints route tasks to their data's home tile: accesses get cheaper (cache
model) and likely-conflicting tasks queue behind each other instead of
speculating against each other.
"""

from _common import core_counts, emit, run_once, shape_checks_at
from repro.apps import genome, kmeans, mis
from repro.bench.report import format_table

APPS = [("genome", genome, {}, "hwq"),
        ("kmeans", kmeans, {}, "hwq"),
        ("mis", mis, {}, "fractal")]


def sweep(n_cores):
    rows = []
    results = {}
    for name, app, params, variant in APPS:
        inp = app.make_input(**params)
        off = run_once(app, inp, variant, n_cores, use_hints=False)
        on = run_once(app, inp, variant, n_cores, use_hints=True)
        results[name] = (off, on)
        rows.append([name, f"{off.makespan:,}", f"{on.makespan:,}",
                     f"{off.makespan / on.makespan:.2f}x",
                     off.stats.tasks_aborted, on.stats.tasks_aborted])
    emit(f"ablation_hints_{n_cores}c", format_table(
        ["app", "hints off (cyc)", "hints on (cyc)", "gain",
         "aborts off", "aborts on"], rows))
    return results


if __name__ == "__main__":
    n = max(core_counts())
    results = sweep(n)
    if shape_checks_at(n):
        assert all(on.stats.tasks_committed > 0
                   for _, on in results.values())
