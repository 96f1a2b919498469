#!/usr/bin/env python
"""Assemble the measured-results section of EXPERIMENTS.md from
benchmarks/results/ (run after the bench suite).

Only the block between the ``<!-- RESULTS -->`` and ``<!-- /RESULTS -->``
markers is regenerated; hand-written text above and below them is kept
byte for byte.

Benches that pass ``runs=`` to :func:`_common.emit` persist a structured
``{stem}.json`` (one ``RunStats.to_dict()`` per run) next to the text
table; those sections are rebuilt here from the data via
``RunStats.from_dict`` — no text scraping. Sections without a JSON file
fall back to the stored text table verbatim.
"""

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
RESULTS = HERE / "results"
EXPERIMENTS = HERE.parent / "EXPERIMENTS.md"
BEGIN, END = "<!-- RESULTS -->", "<!-- /RESULTS -->"

sys.path.insert(0, str(HERE.parent / "src"))

from repro.bench.report import format_table  # noqa: E402
from repro.core.stats import RunStats  # noqa: E402

#: result file stem -> (section title, paper context line)
SECTIONS = {
    "table2_config": (
        "Table 2 — system configuration",
        "Paper: 256 cores / 64 tiles, 16384 task-queue and 4096 "
        "commit-queue entries, 128-bit fractal VTs, 2 Kbit 8-way Bloom, "
        "GVT every 200 cycles. Asserted equal."),
    "table3_inputs": (
        "Table 3 — benchmarks, inputs, 1-core run times",
        "Paper inputs are 100-1000x larger (0.7-16.7 B cycles at 1 core); "
        "reproduction-scale inputs and their measured 1-core cycles:"),
    "table4_task_lengths": (
        "Table 4 — flat/fractal vs serial, task lengths, nesting",
        "Paper: fractal tasks are 10-70,000x shorter than flat ones "
        "(maxflow 3260 -> 373 cycles; labyrinth 16 M -> 220; mis 162 -> "
        "115), at a modest 1-core cost."),
    "fig01_timelines": (
        "Fig. 1 — execution timelines (maxflow)",
        "Paper Fig. 1: flat's long global-relabel tasks serialize the "
        "chip; fractal's nested BFS fills it. 'G' = global relabel, "
        "'.' = active-node task, 'o' = nested BFS task, 'x' = aborted:"),
    "fig03_maxflow_speedup": (
        "Fig. 3 — maxflow speedup",
        "Paper at 256c: flat 4.9x, fractal 322x (over 1-core flat)."),
    "fig04_silo_speedup": (
        "Fig. 4 — silo speedup",
        "Paper at 256c: flat 9.7x, swarm within 4.5% of fractal 206x."),
    "fig06_mis_speedup": (
        "Fig. 6 — mis speedup",
        "Paper at 256c: flat 98x, swarm 117x, fractal 145x. At this "
        "reproduction's 16-core/128-node scale the fine-grain variants "
        "already beat flat, but swarm's deterministic order wins over "
        "fractal — the over-serialization penalty the paper measures "
        "grows with core count and graph size (the reproduced signal is "
        "fine-grain >> flat)."),
    "fig14a_nested_speedups": (
        "Fig. 14a — nested-parallelism apps, Bloom vs precise",
        "Paper at 256c: flat <= 4.9x (Bloom) / <= 6.8x (precise); "
        "fractal 88x-322x, identical under both schemes."),
    "fig14b_breakdowns_16c": (
        "Fig. 14b — cycle breakdowns (nested apps)",
        "Paper: flat dominated by aborts/stalls/emptiness; fractal "
        "mostly committed (aborts 7-24%)."),
    "fig15a_overserialization": (
        "Fig. 15a — mis/color/msf: flat vs swarm-fg vs fractal",
        "Paper at 256c: fractal (145x/126x/40x) > swarm-fg "
        "(117x/119x/21x) > flat (98x/74x/9.3x). At 16 cores and toy "
        "graphs the fine-grain decompositions pay their per-task "
        "overheads without enough cores to recoup (the paper itself "
        "notes they underperform flat at small core counts, Sec. 6.2); "
        "mis shows the fine-grain win, msf shows fractal > swarm-fg."),
    "fig15b_breakdowns_16c": (
        "Fig. 15b — cycle breakdowns (over-serialization apps)",
        "Paper: swarm-fg's static conflict priority causes more aborted "
        "work than fractal's dynamic tiebreakers — reproduced on msf "
        "(3.6 k vs 3.4 k aborted attempts, higher committed share); on "
        "the toy mis/color graphs raw contention dominates both."),
    "fig16_zooming_1c": (
        "Fig. 16a — zooming overheads (1 core)",
        "Paper: worst case 21% slowdown at F=4, D=2; overhead shrinks as "
        "F or D grows. Cells: makespan relative to the no-zooming depth "
        "(z = zoom-ins)."),
    "fig16_zooming_16c": (
        "Fig. 16b — zooming overheads (parallel)",
        "Paper: at 256c, small D also costs parallelism; F >= 8 with "
        "D >= 4 keeps overheads small."),
    "fig17_stamp_16c": (
        "Fig. 17 — STAMP feature ladder",
        "Paper at 256c: all eight scale with the full stack (gmean 177x); "
        "HW queues rescue intruder/yada, hints rescue genome/kmeans, "
        "nesting rescues labyrinth/bayes."),
    "swarm_suite_scaling": (
        "Sec. 6.4 — the remaining Swarm suite",
        "Paper: bfs/sssp/astar/des/nocsim \"already use fine-grain tasks "
        "and scale well\" with no nesting opportunities."),
    "ablation_conflict_16c": (
        "Ablation — Bloom filter size",
        "Smaller filters hurt coarse (flat) tasks progressively; "
        "fine-grain fractal tasks are insensitive."),
    "ablation_hints_16c": (
        "Ablation — spatial hints",
        "Hints help the locality-bound apps (genome); at toy scale some "
        "apps prefer round-robin spreading."),
    "ablation_queues_16c": (
        "Ablation — queue capacities",
        "Constrained queues surface spills and stalls; the paper "
        "configuration sits at zero."),
    "ablation_gvt_16c": (
        "Ablation — GVT commit interval",
        "The paper's 200-cycle interval sits on the flat part of the "
        "curve; very long intervals stall commits."),
    "ablation_flatten_16c": (
        "Ablation — flattening unnecessary nesting (Sec. 6.3 future work)",
        "Flattening decomposition-only subdomains removes zooming."),
}


def _render_runs_json(path):
    """Rebuild a breakdown table from a structured {stem}.json export.

    Every row is recomputed from ``RunStats.from_dict`` — the numbers come
    from the run's metrics registry, not from the stored text table.
    """
    doc = json.loads(path.read_text())
    rows = []
    for entry in doc.get("runs", []):
        stats = RunStats.from_dict(entry["stats"])
        f = stats.breakdown.fractions()
        rows.append([
            f"{entry['app']}-{entry['variant']}", f"{entry['n_cores']}c",
            f"{stats.makespan:,}",
            f"{f['committed']:.1%}", f"{f['aborted']:.1%}",
            f"{f['spill']:.1%}", f"{f['stall']:.1%}", f"{f['empty']:.1%}",
            stats.tasks_committed, stats.tasks_aborted,
        ])
    return format_table(
        ["run", "cores", "makespan", "commit", "abort", "spill", "stall",
         "empty", "committed", "aborted-attempts"], rows)


def main():
    text = EXPERIMENTS.read_text()
    head, begin, rest = text.partition(BEGIN)
    _, end, tail = rest.partition(END)
    if not (begin and end):
        raise SystemExit(f"{EXPERIMENTS}: no {BEGIN} ... {END} block")
    parts = [head, BEGIN, "\n"]
    found = 0
    for stem, (title, context) in SECTIONS.items():
        table = RESULTS / f"{stem}.txt"
        runs_json = RESULTS / f"{stem}.json"
        parts.append(f"\n### {title}\n\n{context}\n")
        if table.exists():
            found += 1
            parts.append("\n```\n" + table.read_text().rstrip() + "\n```\n")
            if runs_json.exists():
                body = _render_runs_json(runs_json)
                parts.append(
                    "\nRegenerated from the structured metrics-JSON export "
                    "(`RunStats.from_dict`, no text scraping):\n"
                    "\n```\n" + body + "\n```\n")
        else:
            parts.append("\n*(not yet generated — run the bench suite)*\n")
    parts += ["\n", END, tail]
    EXPERIMENTS.write_text("".join(parts))
    print(f"wrote {EXPERIMENTS} with {found} of {len(SECTIONS)} sections")


if __name__ == "__main__":
    main()
