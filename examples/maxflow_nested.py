#!/usr/bin/env python
"""The paper's flagship case study (Sec. 2.1): maxflow with nested
parallelism.

Runs push-relabel with global relabeling on an rmf-wide network in both
forms — maxflow-flat (monolithic global-relabel transactions) and
maxflow-fractal (global relabel as an ordered BFS subdomain) — prints the
speedup, and renders Fig. 1-style execution timelines showing how the
flat version's long relabel tasks serialize the machine.

Run:  python examples/maxflow_nested.py
"""

from repro.apps import maxflow
from repro.bench.harness import run_app
from repro.telemetry import EventBus, EventRecorder
from repro.telemetry.timeline import render_timeline

N_CORES = 16


def main():
    inp = maxflow.make_input(b=4, layers=4)
    print(f"rmf-wide network: {inp.n} nodes, {inp.m // 2} edges")
    print(f"oracle max flow: {maxflow.reference_maxflow(inp)}\n")

    runs, events = {}, {}
    for variant in ("flat", "fractal"):
        bus = EventBus()
        events[variant] = bus.subscribe(EventRecorder(("commit", "abort")))
        run = run_app(maxflow, inp, variant=variant, n_cores=N_CORES,
                      audit=True, telemetry=bus)
        flow = maxflow.check(run.handles, inp)
        runs[variant] = run
        print(f"maxflow-{variant}: flow={flow}")
        print(run.stats.summary())
        print()

    speedup = runs["flat"].makespan / runs["fractal"].makespan
    print(f"fractal vs flat speedup at {N_CORES} cores: {speedup:.2f}x\n")

    for variant in ("flat", "fractal"):
        print(f"--- maxflow-{variant} timeline (first 8 cores) ---")
        print(render_timeline(events[variant], n_cores=8, width=90,
                              glyphs={"active": ".", "bfs": "o",
                                      "global_relabel": "G"}))
        print()


if __name__ == "__main__":
    main()
