"""Table 3: benchmark inputs and 1-core run times.

The paper lists each benchmark's source, input, and 1-core cycle count
(0.7-16.7 B cycles at paper scale). This bench runs every application on
one core at reproduction scale and reports input descriptions and
measured cycles.
"""

from _common import emit, run_once
from repro.apps import (
    bayes, color, genome, intruder, kmeans, labyrinth, maxflow, mis, msf,
    silo, ssca2, vacation, yada)
from repro.bench.report import format_table

ROWS = [
    ("color", color, {}, "swarm", "R-MAT scale 6 (for com-youtube)"),
    ("msf", msf, {}, "fractal", "R-MAT scale 6, weighted (for kron_g500)"),
    ("silo", silo, {}, "fractal", "TPC-C-lite, 2 whs, 64 txns"),
    ("ssca2", ssca2, {}, "hwq", "64 nodes, 256 edges"),
    ("vacation", vacation, {}, "hwq", "32 resources x3 tables, 64 txns"),
    ("genome", genome, {}, "hwq", "160-base genome, 12-base segments"),
    ("kmeans", kmeans, {}, "hwq", "96 points, k=4, 3 iters"),
    ("intruder", intruder, {}, "hwq", "24 flows x 4 fragments"),
    ("yada", yada, {}, "hwq", "48-point Delaunay mesh"),
    ("labyrinth", labyrinth, {}, "fractal", "10x10x2 grid, 10 paths"),
    ("bayes", bayes, {}, "fractal", "10 vars, 40 decisions"),
    ("maxflow", maxflow, {}, "fractal", "rmf-wide 4x4x4 (64 nodes)"),
    ("mis", mis, {}, "fractal", "R-MAT scale 7"),
]


def table():
    rows = []
    for name, app, params, variant, desc in ROWS:
        inp = app.make_input(**params)
        run = run_once(app, inp, variant, 1)
        rows.append([name, desc, f"{run.makespan:,}",
                     f"{run.stats.tasks_committed:,}"])
    text = format_table(
        ["benchmark", "input (reproduction scale)", "1-core cycles",
         "tasks"], rows)
    emit("table3_inputs", text)
    return rows


if __name__ == "__main__":
    rows = table()
    assert len(rows) == 13
    assert all(int(r[2].replace(",", "")) > 0 for r in rows)
