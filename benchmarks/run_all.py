#!/usr/bin/env python
"""Regenerate every table and figure and assert every shape check.

Usage:
    python benchmarks/run_all.py                     # serial, cached
    python benchmarks/run_all.py --jobs 4            # 4 worker processes
    python benchmarks/run_all.py --only fig06_mis,fig03_maxflow
    python benchmarks/run_all.py --skip fig17_stamp --cores 1,4,16
    python benchmarks/run_all.py --shard 1/3         # CI matrix slice

Each bench module runs its sweep and then asserts its figure's shape
checks; a failed check fails that bench. The checks that read the top
core count run only when it is at least 16 (``--cores 1,4`` prints one
line saying they were skipped). Results land in benchmarks/results/; a
machine-readable run summary (per-bench wall time, cache hit/miss
counts, result makespans) is written to BENCH_summary.json at the repo
root. Each run overwrites it, so it is not tracked; ``--summary-out``
writes it elsewhere.

Each bench module runs in its own process (``--jobs N`` runs N of them
concurrently); every simulation inside goes through the
:mod:`repro.farm` result cache (on by default, ``--no-cache`` disables),
so a re-run only executes work whose content address is missing or whose
code fingerprint went stale. Tables are byte-identical between serial,
parallel, and cached runs. A bench failure no longer kills the sweep:
every module runs, failures are summarized at the end, and the exit code
is non-zero if any failed.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import pathlib
import sys
import time
import traceback

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from _common import sweep_cores  # noqa: E402
from repro.cli import _positive_int  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
REPO_ROOT = HERE.parent
RESULTS_DIR = HERE / "results"
DEFAULT_SUMMARY = REPO_ROOT / "BENCH_summary.json"

BENCHES = [
    "bench_table2_config",
    "bench_table3_inputs",
    "bench_table4_task_lengths",
    "bench_fig01_timeline",
    "bench_fig03_maxflow",
    "bench_fig04_silo",
    "bench_fig06_mis",
    "bench_fig14a_nested_speedups",
    "bench_fig14b_breakdowns",
    "bench_fig15a_overserialization",
    "bench_fig15b_breakdowns",
    "bench_fig16_zooming",
    "bench_fig17_stamp",
    "bench_swarm_suite",
    "bench_pbbs_suite",
    "bench_ablation_conflict",
    "bench_ablation_hints",
    "bench_ablation_queues",
    "bench_ablation_gvt",
    "bench_ablation_flatten",
]


def resolve_selection(only=None, skip=None, benches=None):
    """Apply --only/--skip to the bench list; names may drop the
    ``bench_`` prefix. Unknown names are an error (catches typos)."""
    benches = list(benches if benches is not None else BENCHES)

    def norm(name):
        name = name.strip()
        full = name if name.startswith("bench_") else f"bench_{name}"
        if full not in benches:
            raise SystemExit(f"unknown bench {name!r}; choose from: "
                             + ", ".join(b[len("bench_"):] for b in benches))
        return full

    if only:
        wanted = {norm(n) for group in only for n in group.split(",")}
        benches = [b for b in benches if b in wanted]
    if skip:
        unwanted = {norm(n) for group in skip for n in group.split(",")}
        benches = [b for b in benches if b not in unwanted]
    return benches


def run_bench(name):
    """Execute one bench module's sweep and shape checks; never raises
    (a failed check is recorded as the bench's error).

    Runs in a worker process under ``--jobs N`` (or inline for 1).
    Stdout is captured so parallel benches don't interleave; the parent
    prints each module's output in submission order.
    """
    import importlib.util
    import runpy

    cache = importlib.import_module("_common")._result_cache()
    seen = (cache.hits, cache.misses) if cache else (0, 0)
    buf = io.StringIO()
    t0 = time.perf_counter()
    error = None
    try:
        # resolve to the source file and execute that, bypassing any
        # sys.meta_path import hooks (pytest's assertion rewriter)
        spec = importlib.util.find_spec(name)
        if spec is None or not spec.origin:
            raise ModuleNotFoundError(f"no bench module {name!r}")
        with contextlib.redirect_stdout(buf):
            runpy.run_path(spec.origin, run_name="__main__")
    except SystemExit as exc:                  # a bench calling sys.exit
        if exc.code not in (None, 0):
            error = f"SystemExit({exc.code})"
    except BaseException:
        error = traceback.format_exc()
    hits, misses = (cache.hits, cache.misses) if cache else (0, 0)
    return {"name": name, "wall_s": round(time.perf_counter() - t0, 3),
            "output": buf.getvalue(), "error": error,
            "cache": {"hits": hits - seen[0], "misses": misses - seen[1]}}


def collect_makespans():
    """Makespans of every structured result in benchmarks/results/."""
    makespans = {}
    for path in sorted(RESULTS_DIR.glob("*.json")):
        try:
            doc = json.loads(path.read_text())
        except ValueError:
            continue
        if doc.get("schema") != "repro.bench-runs/1":
            continue
        for entry in doc.get("runs", []):
            key = (f"{entry['app']}-{entry['variant']}"
                   f"@{entry['n_cores']}c")
            makespans.setdefault(path.stem, {})[key] = (
                entry["stats"]["makespan"])
    return makespans


def write_summary(path, records, *, jobs, total_wall_s, cores):
    """The BENCH_summary.json perf-trajectory document."""
    cache = {"hits": 0, "misses": 0}
    for rec in records:
        for k in cache:
            cache[k] += rec["cache"].get(k, 0)
    doc = {
        "schema": "repro.bench-summary/1",
        "generated_by": "benchmarks/run_all.py",
        "jobs": jobs,
        "cores": cores,
        "total_wall_s": round(total_wall_s, 3),
        "ok": all(r["error"] is None for r in records),
        "cache": cache,
        "benches": [{"name": r["name"], "wall_s": r["wall_s"],
                     "ok": r["error"] is None,
                     "error": (r["error"] or "").strip().splitlines()[-1]
                     if r["error"] else None,
                     "cache": r["cache"]} for r in records],
        "makespans": collect_makespans(),
    }
    pathlib.Path(path).write_text(json.dumps(doc, indent=2) + "\n")
    return doc


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run every bench module (or a selection) and emit "
                    "BENCH_summary.json.")
    parser.add_argument("--jobs", type=_positive_int, default=1,
                        metavar="N",
                        help="bench modules to run concurrently "
                             "(default 1 = serial)")
    parser.add_argument("--only", action="append", metavar="NAME[,NAME]",
                        help="run only these benches (bench_ prefix "
                             "optional; repeatable)")
    parser.add_argument("--skip", action="append", metavar="NAME[,NAME]",
                        help="skip these benches (repeatable)")
    parser.add_argument("--shard", metavar="K/N", default=None,
                        help="run only deterministic shard K of N "
                             "(1-based; for CI matrix fan-out)")
    parser.add_argument("--cores", type=sweep_cores, metavar="LIST",
                        default=None,
                        help="override the core sweep for every bench; "
                             "must include 1 (sets REPRO_BENCH_CORES)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the repro.farm result cache")
    parser.add_argument("--clear-cache", action="store_true",
                        help="delete every cached result first")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="result-cache location (default: "
                             "benchmarks/results/.cache)")
    parser.add_argument("--summary-out", metavar="PATH",
                        default=str(DEFAULT_SUMMARY),
                        help="where to write the run summary JSON "
                             "(default: BENCH_summary.json at repo root)")
    parser.add_argument("--list", action="store_true",
                        help="print the selected benches and exit")
    return parser.parse_args(argv)


def main(argv=None):
    args = _parse_args(argv)
    benches = resolve_selection(args.only, args.skip)
    if args.shard:
        from repro.errors import ConfigError
        from repro.farm.shard import parse_shard, select_shard
        try:
            k, n = parse_shard(args.shard)
        except ConfigError as exc:
            # a malformed K/N is a usage error, not a crash: exit the way
            # argparse does instead of spraying a traceback over CI logs
            raise SystemExit(f"run_all.py: error: --shard: {exc}")
        # shard the *filtered* list: --only/--skip applied above. Hash
        # sharding is stable under subsetting, so a bench keeps its shard
        # whether or not the others are selected.
        benches = select_shard(benches, k, n)
    if args.list:
        for name in benches:
            print(name)
        return 0
    if not benches:
        print("nothing to run", file=sys.stderr)
        return 0

    # environment for this process and every worker (fork inherits it)
    if args.cores:
        os.environ["REPRO_BENCH_CORES"] = ",".join(map(str, args.cores))
    os.environ["REPRO_BENCH_CACHE"] = "0" if args.no_cache else "1"
    if args.cache_dir:
        os.environ["REPRO_BENCH_CACHE_DIR"] = args.cache_dir
    if args.clear_cache and not args.no_cache:
        from repro.farm.cache import ResultCache
        cache_root = args.cache_dir or (RESULTS_DIR / ".cache")
        n = ResultCache(cache_root).clear()
        print(f"cleared {n} cached results", flush=True)

    t0 = time.perf_counter()
    records = []
    if args.jobs == 1:
        for name in benches:
            print(f"\n########## {name} ##########", flush=True)
            rec = run_bench(name)
            sys.stdout.write(rec["output"])
            _print_status(rec)
            records.append(rec)
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = [pool.submit(run_bench, name) for name in benches]
            for name, fut in zip(benches, futures):
                print(f"\n########## {name} ##########", flush=True)
                try:
                    rec = fut.result()
                except BaseException as exc:   # worker died
                    rec = {"name": name, "wall_s": 0.0, "output": "",
                           "error": f"worker crash: {exc}",
                           "cache": {"hits": 0, "misses": 0}}
                sys.stdout.write(rec["output"])
                _print_status(rec)
                records.append(rec)

    total_wall = time.perf_counter() - t0
    doc = write_summary(args.summary_out, records, jobs=args.jobs,
                        total_wall_s=total_wall,
                        cores=os.environ.get("REPRO_BENCH_CORES"))
    cache = doc["cache"]
    print(f"\nall benches done in {total_wall:.0f}s "
          f"(jobs={args.jobs}, cache: {cache['hits']} hits / "
          f"{cache['misses']} misses); summary: {args.summary_out}",
          flush=True)

    failures = [r for r in records if r["error"] is not None]
    if failures:
        print(f"\n{len(failures)} of {len(records)} benches FAILED:",
              file=sys.stderr)
        for rec in failures:
            last = rec["error"].strip().splitlines()[-1]
            print(f"  {rec['name']}: {last}", file=sys.stderr)
        return 1
    return 0


def _print_status(rec):
    status = "done" if rec["error"] is None else "FAILED"
    cache = rec["cache"]
    print(f"[{rec['name']} {status} in {rec['wall_s']:.0f}s; "
          f"cache {cache['hits']}h/{cache['misses']}m]", flush=True)
    if rec["error"] is not None:
        sys.stderr.write(rec["error"] if rec["error"].endswith("\n")
                         else rec["error"] + "\n")


if __name__ == "__main__":
    sys.exit(main())
