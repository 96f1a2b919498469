"""Fig. 1: execution timelines of maxflow-flat vs maxflow-fractal.

The flat version's monolithic global-relabel tasks occupy one core for a
long stretch while conflicting work aborts around them; the fractal
version fills all cores with fine-grain BFS tasks. The bench renders both
timelines (ASCII) and checks that the flat version's longest committed
task is over 4x the fractal version's.
"""

from _common import emit
from repro.apps import maxflow
from repro.bench.harness import run_app
from repro.telemetry import EventBus, EventRecorder
from repro.telemetry.timeline import render_timeline

N_CORES = 8


def run_traced(variant):
    """One live run plus its recorded commit/abort events. The timeline
    is drawn from the run's event stream, so this bench calls run_app
    itself instead of the (stats-only, cacheable) run_once."""
    inp = maxflow.make_input(b=4, layers=4)
    bus = EventBus()
    rec = bus.subscribe(EventRecorder(("commit", "abort")))
    return run_app(maxflow, inp, variant, N_CORES, telemetry=bus), rec


def longest_task(traced):
    _, rec = traced
    return max(e.duration for e in rec.of("commit"))


def render(traced, variant):
    run, rec = traced
    return (f"maxflow-{variant}: makespan {run.makespan:,} cycles, "
            f"{run.stats.tasks_aborted} aborted attempts\n"
            + render_timeline(rec, n_cores=N_CORES, width=100,
                              glyphs={"active": ".", "bfs": "o",
                                      "global_relabel": "G", "init": "i"}))


if __name__ == "__main__":
    flat = run_traced("flat")
    fractal = run_traced("fractal")
    emit("fig01_timelines",
         render(flat, "flat") + "\n\n" + render(fractal, "fractal"))
    # the flat version must contain much longer tasks (global relabels)
    assert longest_task(flat) > 4 * longest_task(fractal)
