#!/usr/bin/env python
"""CI perf smoke: pinned hot-path counter ceilings and a wall-clock gate.

Two checks, both against ``benchmarks/perf_baseline.json``:

1. (default) Run each baseline workload under ``repro profile`` and
   assert (a) makespan and event count match the pinned values exactly —
   the runs are seeded, so any drift is a determinism bug — and (b) the
   frontier-scan / conflict-probe counters and the GVT frontier's peak
   size stay below their ceilings, which sit ~1.2x above the values the
   indexed, compacted hot path produces. A reintroduced linear scan, or
   a frontier that keeps its dead entries, blows through them.

2. (``--timed SUMMARY``) Read a ``BENCH_summary.json`` from a *cold*
   (``--no-cache``) sweep of the CI bench subset and fail when its wall
   clock exceeds the pinned budget times ``regression_factor`` (>20%
   regression).

Usage:
    python benchmarks/perf_smoke.py
    python benchmarks/perf_smoke.py --timed /tmp/summary-timed.json
"""

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile

BASELINE = pathlib.Path(__file__).resolve().parent / "perf_baseline.json"


def profile_workload(app, cores):
    """Run ``repro profile`` in a subprocess; return the profile dict."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        out = tmp.name
    cmd = [sys.executable, "-m", "repro", "profile", app,
           "--cores", str(cores), "--json", out]
    res = subprocess.run(cmd, capture_output=True, text=True)
    if res.returncode != 0:
        sys.stderr.write(res.stdout + res.stderr)
        raise SystemExit(f"profile run failed for {app}@{cores}c "
                         f"(exit {res.returncode})")
    doc = json.loads(pathlib.Path(out).read_text())
    pathlib.Path(out).unlink(missing_ok=True)
    return doc


def observed_counters(profile):
    return {
        "gvt_queries": profile["gvt"]["queries"],
        "gvt_scan_steps": profile["gvt"]["scan_steps"],
        "gvt_peak_entries": profile["gvt"]["peak_entries"],
        "queue_scan_steps": profile["queues"]["scan_steps"],
        "mem_probe_steps": profile["memory"]["probe_steps"],
        "conflict_probe_steps": profile["conflict_model"]["probe_steps"],
    }


def check_counters(baseline):
    failures = []
    for wl in baseline["workloads"]:
        label = f"{wl['app']}@{wl['cores']}c"
        prof = profile_workload(wl["app"], wl["cores"])
        for field, want in wl["expect"].items():
            got = prof[field]
            status = "ok" if got == want else "DRIFT"
            print(f"{label:16s} {field:22s} {got:>10} "
                  f"(pinned {want}) {status}")
            if got != want:
                failures.append(f"{label}: {field} {got} != pinned {want}")
        counters = observed_counters(prof)
        for name, ceiling in wl["ceilings"].items():
            got = counters[name]
            status = "ok" if got <= ceiling else "OVER"
            print(f"{label:16s} {name:22s} {got:>10} "
                  f"(ceiling {ceiling}) {status}")
            if got > ceiling:
                failures.append(f"{label}: {name} {got} > ceiling {ceiling}")
    return failures


def check_timed(baseline, summary_path):
    doc = json.loads(pathlib.Path(summary_path).read_text())
    failures = []
    if not doc.get("ok"):
        failures.append(f"timed sweep had failing benches: {summary_path}")
    if doc.get("cache", {}).get("hits"):
        failures.append("timed sweep was not cold "
                        f"({doc['cache']['hits']} cache hits) — "
                        "run it with --no-cache")
    budget = (baseline["timed_subset_wall_budget_s"]
              * baseline["regression_factor"])
    wall = doc["total_wall_s"]
    status = "ok" if wall <= budget else "REGRESSION"
    print(f"timed subset    wall {wall:.1f}s "
          f"(budget {budget:.1f}s = {baseline['timed_subset_wall_budget_s']}s"
          f" x {baseline['regression_factor']}) {status}")
    if wall > budget:
        failures.append(f"wall clock {wall:.1f}s exceeds budget "
                        f"{budget:.1f}s (>20% regression)")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--timed", metavar="SUMMARY", default=None,
                        help="also gate the wall clock of this cold "
                             "BENCH_summary.json")
    parser.add_argument("--baseline", metavar="PATH", default=str(BASELINE),
                        help="baseline document (default: "
                             "benchmarks/perf_baseline.json)")
    args = parser.parse_args(argv)
    baseline = json.loads(pathlib.Path(args.baseline).read_text())

    failures = [] if args.timed else check_counters(baseline)
    if args.timed:
        failures += check_timed(baseline, args.timed)
    if failures:
        print(f"\n{len(failures)} perf-smoke check(s) FAILED:",
              file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nperf smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
