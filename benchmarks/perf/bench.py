#!/usr/bin/env python3
"""Repo benchmark: simulator host time on four fixed workloads.

Every repetition of a workload runs in a fresh child process
(``workloads.py``), one at a time; a new simulator in an old process runs
alongside the previous one's garbage and drifts slower rep after rep.
Each run's output is checked with the app's serial reference check and
against the pinned ``RunStats`` digests in ``pins.json`` (seed 0), and
every repetition must reproduce the others' digests.

Usage::

    python benchmarks/perf/bench.py                 # all workloads, 5 reps
    python benchmarks/perf/bench.py --workload mis-256c --reps 3 --no-trace
    python benchmarks/perf/bench.py --compare A.json B.json
    python benchmarks/perf/bench.py --pin           # rewrite pins.json

By default the repetitions interleave the workloads (w1, w2, ..., w1, ...),
then one traced child per workload gives the per-layer table, and all
samples go to ``benchmarks/perf/results/``. With ``--seconds`` the
benchmark measures one workload for that long and prints, as its last
line, one JSON object with the end-to-end metrics of its best repetition
(``--trace 0``) or the per-layer metrics (``--trace 1``) declared in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = ROOT / "BENCHMARK.json"
PINS = HERE / "pins.json"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))
from trace import calibrate_layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: a child that runs longer than this is killed and its runs count failed
CHILD_TIMEOUT_S = 90
#: fewest plain repetitions a ``--seconds`` run measures, whatever the time
MIN_TIMED_REPS = 3


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------
def run_child(workload: str, seed: int, traced: bool = False,
              warmup: bool = False) -> Dict:
    """One repetition in a fresh interpreter; ``{"error": ...}`` if it
    crashed, timed out or printed no result."""
    cmd = [sys.executable, str(HERE / "workloads.py"),
           "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    if warmup:
        cmd.append("--warmup")
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # one simulator thread per child: keep numpy's BLAS off the other core
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S}s",
                "elapsed_s": time.perf_counter() - t0}
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return {"error": f"exit {proc.returncode}: {tail[0]}",
                "elapsed_s": elapsed}
    if warmup:
        return {"elapsed_s": elapsed}
    try:
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "child printed no result", "elapsed_s": elapsed}
    rep["elapsed_s"] = elapsed
    return rep


# ----------------------------------------------------------------------
# checking
# ----------------------------------------------------------------------
class Ledger:
    """Checks each repetition's runs and counts attempts and failures.

    A run fails if it raised, failed its app check, missed its pinned
    digest (seed 0), or produced a digest another repetition at the same
    seed did not. A repetition that crashed or timed out fails all its
    runs.
    """

    def __init__(self, workload: str, seed: int, pins: Dict):
        self.n_runs = len(WORKLOADS[workload])
        #: app -> digest every run must reproduce: the pins at seed 0,
        #: else whatever the first repetition produced
        self.expected: Dict[str, str] = dict(
            pins.get(workload, {}) if seed == 0 else {})
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, rep: Dict) -> bool:
        """Record ``rep``; True if every one of its runs passed."""
        self.attempted += self.n_runs
        if "error" in rep:
            self._fail(self.n_runs, f"repetition: {rep['error']}")
            return False
        before = self.failed
        for run in rep["runs"]:
            app = run["app"]
            if "error" in run:
                self._fail(1, f"{app}: {run['error']}")
                continue
            want = self.expected.setdefault(app, run["digest"])
            if run["digest"] != want:
                self._fail(1, f"{app}: digest {run['digest'][:12]} "
                              f"!= expected {want[:12]}")
        return self.failed == before

    def _fail(self, n: int, why: str) -> None:
        self.failed += n
        self.failures.append(why)


def load_pins() -> Dict[str, Dict[str, str]]:
    return json.loads(PINS.read_text()) if PINS.exists() else {}


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def e2e_sample(rep: Dict) -> Dict[str, float]:
    """The end-to-end metrics of one plain repetition."""
    return {
        "sim_wall_s": rep["sim_wall_s"],
        "events_per_s": rep["counts"]["events"] / rep["sim_wall_s"],
        "setup_s": rep["setup_s"],
        "peak_rss_mb": rep["peak_rss_mb"],
    }


def summarize(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and n (quartiles as ``statistics.quantiles``)."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(counts: Dict[str, int], traced: List[Dict],
                  plain_wall_s: float) -> Dict[str, float]:
    """Per-layer metrics: medians over the traced repetitions of each
    layer's calls, calibrated self time and share, then the run's
    deterministic counters and the tracing overhead."""
    calibrated = [calibrate_layers(rep["trace"], plain_wall_s)
                  for rep in traced]
    out: Dict[str, float] = {}
    for layer in calibrated[0]:
        for field in ("calls", "self_s", "share"):
            out[f"{layer}.{field}"] = statistics.median(
                c[layer][field] for c in calibrated)
    c = counts
    out.update({
        "core.events": c["events"],
        "core.sim_cycles": c["sim_cycles"],
        "core.commit_ratio": _ratio(c["committed"],
                                    c["committed"] + c["aborted"]),
        "core.committed_cycle_frac": _ratio(c["committed_cycles"],
                                            c["core_cycles"]),
        "core.zoom.zoom_ins": c["zoom_ins"],
        "mem.accesses": c["mem_accesses"],
        "mem.fast_hit_ratio": _ratio(c["mem_fast_hits"], c["mem_accesses"]),
        "mem.slow_probes": c["mem_slow_probes"],
        "mem.epoch_bumps": c["mem_epoch_bumps"],
        "mem.true_conflicts": c["mem_true_conflicts"],
        "arch.gvt.scan_steps": c["gvt_scan_steps"],
        "trace.overhead": statistics.median(
            rep["sim_wall_s"] for rep in traced) / plain_wall_s,
    })
    return out


class WorkloadResult:
    """Every repetition of one workload in one invocation."""

    def __init__(self, workload: str, seed: int, pins: Dict):
        self.ledger = Ledger(workload, seed, pins)
        self.plain: List[Dict] = []
        self.traced: List[Dict] = []

    def add(self, rep: Dict, traced: bool = False) -> None:
        if self.ledger.check(rep):
            (self.traced if traced else self.plain).append(rep)

    def samples(self) -> Dict[str, List[float]]:
        rows = [e2e_sample(rep) for rep in self.plain]
        return {k: [r[k] for r in rows] for k in (rows[0] if rows else ())}

    def per_layer(self) -> Dict[str, float]:
        if not (self.plain and self.traced):
            return {}
        wall = statistics.median(rep["sim_wall_s"] for rep in self.plain)
        return layer_metrics(self.plain[0]["counts"], self.traced, wall)

    def to_json(self) -> Dict:
        samples = self.samples()
        return {
            "attempted": self.ledger.attempted,
            "failed": self.ledger.failed,
            "failures": self.ledger.failures,
            "samples": samples,
            "summary": {k: summarize(v) for k, v in samples.items()},
            "per_layer": self.per_layer(),
            "digests": self.ledger.expected,
        }


# ----------------------------------------------------------------------
# the two ways to run
# ----------------------------------------------------------------------
def measure_timed(workload: str, seed: int, seconds: float,
                  trace: bool) -> WorkloadResult:
    """Repeat the workload for ``seconds`` (at least ``MIN_TIMED_REPS``
    plain repetitions, or one plain and one traced)."""
    res = WorkloadResult(workload, seed, load_pins())
    run_child(workload, seed, warmup=True)
    t0 = time.perf_counter()
    longest = 0.0
    while True:
        for traced in ((False, True) if trace else (False,)):
            rep = run_child(workload, seed, traced=traced)
            longest = max(longest, rep["elapsed_s"])
            res.add(rep, traced)
        done = (len(res.traced) >= 1 if trace
                else len(res.plain) >= MIN_TIMED_REPS)
        if res.ledger.failed:
            break
        if done and time.perf_counter() - t0 + longest > seconds:
            break
    return res


def measure_reps(workloads: List[str], seed: int, reps: int,
                 trace: bool) -> Dict[str, WorkloadResult]:
    """``reps`` plain repetitions, interleaved across workloads, then one
    traced repetition per workload."""
    pins = load_pins()
    results = {w: WorkloadResult(w, seed, pins) for w in workloads}
    for w in workloads:
        run_child(w, seed, warmup=True)
    for i in range(reps):
        for w in workloads:
            rep = run_child(w, seed)
            results[w].add(rep)
            status = ("ok" if "error" not in rep else rep["error"])
            print(f"  rep {i + 1}/{reps} {w:13s} "
                  f"{rep.get('sim_wall_s', 0.0):7.3f}s sim  {status}",
                  flush=True)
    if trace:
        for w in workloads:
            results[w].add(run_child(w, seed, traced=True), traced=True)
            print(f"  traced     {w:13s}", flush=True)
    return results


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def _fmt(value: float) -> str:
    return f"{value:.4g}" if abs(value) < 1e5 else f"{value:,.0f}"


def print_e2e(results: Dict[str, WorkloadResult], spec: Dict) -> None:
    print("\nend-to-end (median [q1, q3] over n fresh-process reps)")
    for w, res in results.items():
        summary = res.to_json()["summary"]
        led = res.ledger
        print(f"  {w}  attempted {led.attempted}  failed {led.failed}  "
              f"fail_frac {_ratio(led.failed, led.attempted):.3f}")
        for m in spec["end_to_end"]:
            s = summary.get(m["name"])
            if s is None:
                print(f"    {m['name']:14s} (no successful repetition)")
                continue
            print(f"    {m['name']:14s} {_fmt(s['median']):>10s} {m['unit']:6s}"
                  f" [{_fmt(s['q1'])}, {_fmt(s['q3'])}]  n={s['n']}")
        for why in led.failures:
            print(f"    FAILED: {why}")


def print_layers(results: Dict[str, WorkloadResult], spec: Dict) -> None:
    tables = {w: r.per_layer() for w, r in results.items()}
    tables = {w: t for w, t in tables.items() if t}
    if not tables:
        return
    ws = list(tables)
    print("\nper layer (one traced child per workload; share / self s)")
    print("  " + " " * 30 + "".join(f"{w:>22s}" for w in ws))
    for m in spec["per_layer"]:
        name = m["name"]
        cells = []
        for w in ws:
            v = tables[w][name]
            cells.append(f"{v:>21.1%} " if name.endswith(".share")
                         else f"{_fmt(v):>21s} ")
        print(f"  {name:30s}" + "".join(cells))


def best_of(samples: Dict[str, List[float]], declared: List[Dict]) -> Dict:
    """Each metric's best repetition. Other tenants of a shared host only
    ever slow a repetition down, so across ten seeds the best of a run's
    repetitions spreads less than their median."""
    pick = {"lower": min, "higher": max}
    return {m["name"]: pick[m["better"]](samples[m["name"]])
            for m in declared if m["name"] in samples}


def metrics_json(values: Dict[str, float], declared: List[Dict]) -> Dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


# ----------------------------------------------------------------------
# comparing two result files
# ----------------------------------------------------------------------
def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> Dict:
    """Compare change ``b`` against parent ``a`` by the benchmark's rule.

    better: the change wins at least 9/10 of the pairs (ties count for
    neither) and the medians differ by more than the parent's IQR.
    unresolved: the parent's IQR is wider than ``bound`` of its median
    and not every change run beats every parent run.
    worse: the change's median is worse than the parent's by more than
    ``bound``. Otherwise same.
    """
    sign = 1.0 if better == "higher" else -1.0
    sa, sb = summarize(a), summarize(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    gap = sign * (sb["median"] - sa["median"])
    iqr = sa["q3"] - sa["q1"]
    if pairs and wins >= 0.9 * len(pairs) and gap > iqr:
        word = "better"
    elif (iqr > bound * abs(sa["median"])
          and not min(sign * y for y in b) > max(sign * x for x in a)):
        word = "unresolved"
    elif -gap > bound * abs(sa["median"]):
        word = "worse"
    else:
        word = "same"
    return {"a": sa, "b": sb, "wins": wins, "pairs": len(pairs),
            "verdict": word}


def load_results(paths: str) -> Dict:
    """Read comma-separated result files as one: each workload's samples
    and counts are concatenated in the order given."""
    docs = [json.loads(Path(p).read_text()) for p in paths.split(",")]
    merged = docs[0]
    for doc in docs[1:]:
        if doc["seed"] != merged["seed"]:
            raise SystemExit(f"{paths}: files mix seeds")
        for w, res in doc["workloads"].items():
            into = merged["workloads"].setdefault(
                w, {"samples": {}, "attempted": 0, "failed": 0,
                    "digests": res["digests"]})
            into["attempted"] += res["attempted"]
            into["failed"] += res["failed"]
            if res["digests"] != into["digests"]:
                into["digests"] = None
            for k, values in res["samples"].items():
                into["samples"].setdefault(k, []).extend(values)
    return merged


def compare(path_a: str, path_b: str, spec: Dict) -> int:
    doc_a, doc_b = load_results(path_a), load_results(path_b)
    if doc_a["seed"] != doc_b["seed"]:
        print(f"warning: seeds differ ({doc_a['seed']} vs {doc_b['seed']})")
    print(f"A = {path_a}\nB = {path_b}\n")
    print(f"  {'workload':13s} {'metric':13s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'change':>8s} {'wins':>6s}  verdict")

    def cell(s: Dict) -> str:
        return f"{_fmt(s['median'])} [{_fmt(s['q1'])}, {_fmt(s['q3'])}]"

    counts: Dict[str, int] = {}
    for w in doc_a["workloads"]:
        if w not in doc_b["workloads"]:
            continue
        wa, wb = doc_a["workloads"][w], doc_b["workloads"][w]
        for m in spec["end_to_end"]:
            a, b = wa["samples"].get(m["name"]), wb["samples"].get(m["name"])
            if not a or not b:
                continue
            v = verdict(a, b, m["better"], m["bound"])
            counts[v["verdict"]] = counts.get(v["verdict"], 0) + 1
            change = v["b"]["median"] / v["a"]["median"] - 1
            print(f"  {w:13s} {m['name']:13s} {cell(v['a']):>30s} "
                  f"{cell(v['b']):>30s} {change:>+8.1%} "
                  f"{v['wins']:>3d}/{v['pairs']:<2d}  {v['verdict']}")
        same_digests = wa["digests"] is not None and \
            wa["digests"] == wb["digests"]
        print(f"  {w:13s} digests {'identical' if same_digests else 'DIFFER'}"
              f"; failed {wa['failed']}/{wa['attempted']} vs "
              f"{wb['failed']}/{wb['attempted']}")
    print("\n" + ", ".join(f"{n} {k}" for k, n in sorted(counts.items())))
    return 0


# ----------------------------------------------------------------------
def pin() -> int:
    pins = {}
    for w in WORKLOADS:
        rep = run_child(w, 0)
        errors = [r for r in rep.get("runs", []) if "error" in r]
        if "error" in rep or errors:
            print(f"{w}: cannot pin: {rep.get('error') or errors}")
            return 1
        pins[w] = {r["app"]: r["digest"] for r in rep["runs"]}
        print(f"{w}: {len(pins[w])} digest(s)")
    PINS.write_text(json.dumps(pins, indent=2) + "\n")
    print(f"wrote {PINS.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default=",".join(WORKLOADS),
                        help="NAME[,NAME] (default: all)")
    parser.add_argument("--reps", type=int, default=5,
                        help="plain repetitions per workload (default 5)")
    parser.add_argument("--seed", type=int, default=0,
                        help="SystemConfig.seed of every run (0 = pinned)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure one workload for this long and print "
                             "one JSON result line")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: also run traced children for the per-layer "
                             "metrics (with --seconds: report only those)")
    parser.add_argument("--no-trace", dest="trace", action="store_const",
                        const=0, help="same as --trace 0")
    parser.add_argument("--out", default=None,
                        help="results JSON (default: benchmarks/perf/results/"
                             "<time>.json; not written with --seconds)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare result files B (the change) against "
                             "A (the parent); each may be a comma-separated "
                             "list whose samples are pooled in order")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite pins.json from one seed-0 run each")
    args = parser.parse_args(argv)

    spec = json.loads(SPEC.read_text())
    if args.compare:
        return compare(*args.compare, spec)
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"error: no simulator source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.pin:
        return pin()
    workloads = args.workload.split(",")
    unknown = [w for w in workloads if w not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; "
                     f"choose from {list(WORKLOADS)}")

    if args.seconds is not None:
        if len(workloads) != 1:
            parser.error("--seconds measures exactly one --workload")
        res = measure_timed(workloads[0], args.seed, args.seconds,
                            bool(args.trace))
        results = {workloads[0]: res}
    else:
        results = measure_reps(workloads, args.seed, args.reps,
                               bool(args.trace))
    print_e2e(results, spec)
    print_layers(results, spec)

    if args.seconds is None or args.out:
        out = Path(args.out) if args.out else (
            RESULTS / time.strftime("%Y%m%d-%H%M%S.json"))
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({
            "seed": args.seed,
            "python": platform.python_version(),
            "machine": f"{platform.machine()} x{os.cpu_count()}",
            "workloads": {w: r.to_json() for w, r in results.items()},
        }, indent=1) + "\n")
        print(f"\nwrote {out}")

    ok = all(r.ledger.failed == 0 and r.plain for r in results.values())
    if args.seconds is not None:
        res = results[workloads[0]]
        if args.trace:
            values = res.per_layer()
            declared = spec["per_layer"]
        else:
            declared = spec["end_to_end"]
            values = best_of(res.samples(), declared)
        ok = ok and all(m["name"] in values for m in declared)
        print(json.dumps({
            "correct": ok,
            "attempted": res.ledger.attempted,
            "failed": res.ledger.failed,
            "metrics": metrics_json(values, declared) if ok else {},
        }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
