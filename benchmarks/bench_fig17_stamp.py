"""Fig. 17: the STAMP feature ladder — TM, +HWQueues, +Hints, Fractal.

Paper: the TM ports of intruder/labyrinth/bayes barely scale; hardware
task queues rescue intruder and yada; spatial hints rescue genome and
kmeans; nesting rescues labyrinth and bayes. With the full stack all
eight scale (gmean 177x at 256 cores).

Ladder rungs here:

- ``TM``        — variant "tm",  hints off
- ``+HWQueues`` — variant "hwq", hints off
- ``+Hints``    — variant "hwq", hints on
- ``Fractal``   — variant "fractal", hints on
"""

import math

from _common import core_counts, emit, run_once, shape_checks_at
from repro.apps import (
    bayes, genome, intruder, kmeans, labyrinth, ssca2, vacation, yada)
from repro.bench.report import format_table

APPS = [
    ("ssca2", ssca2, {}),
    ("vacation", vacation, {}),
    ("kmeans", kmeans, {}),
    ("genome", genome, {}),
    ("intruder", intruder, {}),
    ("labyrinth", labyrinth, dict(x=10, y=10, z=2, n_paths=12)),
    ("bayes", bayes, {}),
    ("yada", yada, {}),
]
LADDER = [
    ("TM", "tm", False),
    ("+HWQueues", "hwq", False),
    ("+Hints", "hwq", True),
    ("Fractal", "fractal", True),
]


def sweep(cores):
    results = {}
    rows = []
    top = max(cores)
    for name, app, params in APPS:
        inp = app.make_input(**params)
        base = None
        for rung, variant, hints in LADDER:
            for n in cores:
                run = run_once(app, inp, variant, n, use_hints=hints)
                results[(name, rung, n)] = run
                if base is None:
                    base = run.makespan
        rows.append([name]
                    + [f"{base / results[(name, rung, top)].makespan:.2f}x"
                       for rung, _, _ in LADDER])
    base_spans = {name: results[(name, "TM", min(cores))].makespan
                  for name, _, _ in APPS}
    gmean = math.exp(sum(
        math.log(base_spans[name]
                 / results[(name, "Fractal", top)].makespan)
        for name, _, _ in APPS) / len(APPS))
    rows.append(["gmean(Fractal)", "", "", "", f"{gmean:.2f}x"])
    emit(f"fig17_stamp_{top}c",
         format_table(["app"] + [r for r, _, _ in LADDER], rows))
    return results


if __name__ == "__main__":
    cores = core_counts()
    results = sweep(cores)
    top = max(cores)
    if shape_checks_at(top):
        # HW task queues rescue the software-queue-bound apps
        for name in ("ssca2", "intruder", "yada"):
            assert (results[(name, "+HWQueues", top)].makespan
                    < results[(name, "TM", top)].makespan), name
        # fractal nesting rescues labyrinth and bayes
        for name in ("labyrinth", "bayes"):
            assert (results[(name, "Fractal", top)].makespan
                    < results[(name, "+Hints", top)].makespan), name
        for name in ("vacation", "kmeans", "genome"):
            assert results[(name, "Fractal", top)].stats.tasks_committed > 0
