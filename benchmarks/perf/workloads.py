"""The benchmark's workloads, and one repetition of a workload.

Run as a script, this is the child process ``bench.py`` starts for each
repetition, so every repetition begins with a fresh interpreter and
imports ``repro`` itself (that import is part of the set-up time). It
prints one JSON object on stdout::

    python benchmarks/perf/workloads.py --workload maxflow-4c --seed 0 \
        [--trace]

The module imports nothing from ``repro`` at load time for the same
reason.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List

STAMP_APPS = ("bayes", "genome", "intruder", "kmeans", "labyrinth", "ssca2",
              "vacation", "yada")


@dataclass(frozen=True)
class Run:
    """One simulation: an app module under ``repro.apps``, the arguments
    of its ``make_input``, and the simulated machine."""

    app: str
    input: Dict = field(default_factory=dict)
    cores: int = 4
    config: Dict = field(default_factory=dict)


#: Every workload runs the fractal variant. The inputs are the ones the
#: figure benches use, so pinned digests and counts line up with them.
WORKLOADS: Dict[str, List[Run]] = {
    "maxflow-4c": [Run("maxflow", {"b": 4, "layers": 4}, cores=4)],
    "mis-256c": [Run("mis", {"scale": 10, "edge_factor": 5}, cores=256)],
    # vt_bits = zoomtree.vt_bits_for_depth(2): two levels fit, so the
    # eight-level tree zooms at almost every level
    "zoomtree-16c": [Run("zoomtree", {"fanout": 4, "depth": 8}, cores=16,
                         config={"vt_bits": 64})],
    "stamp-16c": [Run(f"stamp.{name}", cores=16) for name in STAMP_APPS],
}


def _counts(sim, stats) -> Dict[str, int]:
    """The run's deterministic work counters (summed over a workload)."""
    from repro.telemetry.profiling import collect_profile

    prof = collect_profile(sim)
    mem = prof["memory"]
    return {
        "events": prof["events"],
        "sim_cycles": stats.makespan,
        "committed": stats.tasks_committed,
        "aborted": stats.tasks_aborted,
        "committed_cycles": stats.breakdown.committed,
        "core_cycles": stats.breakdown.total,
        "zoom_ins": stats.zoom_ins,
        "mem_accesses": mem["accesses"],
        "mem_fast_hits": mem["fast_hits"],
        "mem_slow_probes": mem["slow_probes"],
        "mem_epoch_bumps": mem["epoch_bumps"],
        "mem_true_conflicts": mem["true_conflicts"],
        "gvt_scan_steps": prof["gvt"]["scan_steps"],
    }


def run_rep(workload: str, seed: int = 0, traced: bool = False) -> Dict:
    """Run every simulation of ``workload`` once in this process.

    ``seed`` becomes ``SystemConfig.seed`` of every run; it reseeds the
    modelled hardware (Bloom hash functions, cache and hint-mapping
    randomness) and so the speculative schedule, while the program
    inputs stay fixed. Each run is checked with the app's own serial
    reference check; a run that raises or fails it carries an ``error``.
    """
    runs = WORKLOADS[workload]
    t0 = time.perf_counter()
    from repro.config import SystemConfig
    from repro.core.simulator import Simulator
    from repro.farm.job import stable_digest
    apps = [importlib.import_module(f"repro.apps.{r.app}") for r in runs]
    setup_s = time.perf_counter() - t0
    inputs = [app.make_input(**r.input) for app, r in zip(apps, runs)]

    tracer = None
    if traced:
        from trace import Tracer
        tracer = Tracer()
        tracer.calibrate()
        tracer.install()
    sim_wall_s = 0.0
    counts: Dict[str, int] = {}
    results = []
    try:
        for app, r, inp in zip(apps, runs, inputs):
            try:
                t0 = time.perf_counter()
                sim = Simulator(
                    SystemConfig.with_cores(r.cores, seed=seed, **r.config),
                    root_ordering=app.root_ordering("fractal"),
                    name=r.app, enable_audit=False)
                handles = app.build(sim, inp, variant="fractal")
                t1 = time.perf_counter()
                stats = sim.run()
                t2 = time.perf_counter()
                app.check(handles, inp)
            except Exception as exc:  # counted as a failed run
                results.append({"app": r.app, "error": repr(exc)})
                continue
            setup_s += t1 - t0
            sim_wall_s += t2 - t1
            for key, value in _counts(sim, stats).items():
                counts[key] = counts.get(key, 0) + value
            results.append({"app": r.app,
                            "digest": stable_digest(stats.to_dict())})
            del sim, handles
    finally:
        if tracer is not None:
            tracer.uninstall()

    out = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "setup_s": setup_s,
        "sim_wall_s": sim_wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "runs": results,
        "counts": counts,
    }
    if tracer is not None:
        out["trace"] = tracer.report()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--warmup", action="store_true",
                        help="only import the workload's modules")
    args = parser.parse_args(argv)
    if args.warmup:
        import repro.core.simulator  # noqa: F401
        for r in WORKLOADS[args.workload]:
            importlib.import_module(f"repro.apps.{r.app}")
        return 0
    print(json.dumps(run_rep(args.workload, args.seed, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
