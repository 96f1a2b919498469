"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``run <app>`` — run one benchmark application on the simulator and
  print its statistics (optionally against the serial reference). The
  telemetry flags export the run: ``--trace-out`` streams a JSONL event
  log, ``--perfetto`` writes a Chrome/Perfetto trace, ``--metrics-out``
  dumps the metrics registry + RunStats as JSON. The robustness flags
  (see :mod:`repro.faults`): ``--faults`` loads a fault-injection plan,
  ``--max-attempts`` bounds exception retries, ``--crash-dump-dir``
  writes a crash bundle on failure.
- ``profile <app>`` — run one application and report hot-path profile
  counters (GVT frontier scan lengths, queue-index scans, conflict-probe
  counts; see :mod:`repro.telemetry.profiling`). ``--json`` exports the
  profile document for CI's perf-smoke ceilings.
- ``apps`` — list available applications and their variants.
- ``config`` — print the paper's Table 2 system configuration.
- ``sweep <app>`` — scaling sweep over core counts with a speedup table
  and an ASCII chart, run as :class:`repro.farm.farm.Farm` jobs (exit 2 when
  a job fails). ``--jobs N`` fans the sweep out over a worker pool;
  ``--cache`` reuses / populates the content-addressed result cache so
  repeated sweeps only execute jobs whose digest is missing or stale
  (``--cache-dir`` relocates it, ``--summary-out`` dumps the farm
  summary JSON).
- ``crash-validate BUNDLE.json ...`` — validate ``repro.crash/1`` crash
  bundles: exit 0 all valid, 1 structurally invalid, 4 unreadable or
  truncated/garbage JSON (field-level messages, never a traceback).

Exit codes (``run``): 0 success; 1 application failure (result check or
:class:`repro.errors.AppError`, incl. a task exhausting its retries);
2 simulator internal error, bad fault plan, or a bad option value such
as ``--cores 0`` (every command); 3 queue-resource
exhaustion (:class:`repro.errors.QueueError`); 4 partial run — the
resilience watchdog stopped the simulation and partial stats were
reported.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import sys
from typing import List, Optional

from .apps.registry import APPS
from .bench.harness import run_app, run_serial, sweep_cores
from .bench.plots import speedup_chart
from .bench.report import format_table, speedup_table
from .config import SystemConfig
from .errors import (AppError, ConfigError, FarmError, QueueError,
                     SimulationError)
from .faults import ResiliencePolicy, load_fault_file
from .telemetry import (EventBus, EventRecorder, JsonlExporter,
                        to_perfetto, write_metrics_json, write_perfetto)

_EXIT_CODES = """\
exit codes:
  0  success
  1  application failure (result check / AppError / retries exhausted)
  2  simulator internal error, an invalid --faults plan, or a bad
     option value (e.g. --cores 0)
  3  queue-resource exhaustion (QueueError) despite degradation
  4  partial run: the resilience watchdog stopped the simulation
"""

_CRASH_EXIT_CODES = """\
exit codes:
  0  every bundle valid
  1  a bundle parsed as JSON but failed repro.crash/1 validation
  4  a file was unreadable or not JSON at all (truncated or garbage)
"""


def _load(name: str):
    try:
        module_path, variants = APPS[name]
    except KeyError:
        raise SystemExit(
            f"unknown app {name!r}; run `python -m repro apps` for the list")
    return importlib.import_module(module_path), variants


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (a bad value is a usage error)."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a positive integer")
    return value


def _core_list(text: str) -> List[int]:
    """argparse type: comma-separated positive core counts."""
    return [_positive_int(c) for c in text.split(",")]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fractal (ISCA 2017) reproduction — run benchmark "
                    "applications on the speculative simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run", help="run one application", epilog=_EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p_run.add_argument("app", help="application name (see `apps`)")
    p_run.add_argument("--variant", default=None,
                       help="execution-model variant (default: best)")
    p_run.add_argument("--cores", type=_positive_int, default=16)
    p_run.add_argument("--conflicts", choices=("bloom", "precise"),
                       default="bloom")
    p_run.add_argument("--no-hints", action="store_true")
    p_run.add_argument("--audit", action="store_true",
                       help="verify serializability after the run")
    p_run.add_argument("--serial", action="store_true",
                       help="also run the serial reference")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--trace-out", metavar="PATH", default=None,
                       help="stream the event log to PATH as JSON Lines")
    p_run.add_argument("--perfetto", metavar="PATH", default=None,
                       help="write a Chrome/Perfetto trace JSON to PATH")
    p_run.add_argument("--metrics-out", metavar="PATH", default=None,
                       help="write the metrics registry + stats JSON to PATH")
    p_run.add_argument("--faults", metavar="PLAN.json", default=None,
                       help="inject faults from a seeded plan file "
                            "(repro.faults; enables retry/backoff "
                            "resilience unless the file disables it)")
    p_run.add_argument("--max-attempts", type=int, default=None,
                       metavar="N",
                       help="retries-plus-one budget for task exceptions "
                            "(enables the resilience policy; overrides "
                            "the plan file's value)")
    p_run.add_argument("--crash-dump-dir", metavar="DIR", default=None,
                       help="write a JSON crash bundle here when the run "
                            "fails or the watchdog fires")

    p_sweep = sub.add_parser("sweep", help="scaling sweep over core counts")
    p_sweep.add_argument("app")
    p_sweep.add_argument("--variants", default=None,
                         help="comma-separated (default: all)")
    p_sweep.add_argument("--cores", type=_core_list, default="1,4,16",
                         help="comma-separated core counts")
    p_sweep.add_argument("--jobs", type=_positive_int, default=1,
                         metavar="N",
                         help="worker processes for the sweep "
                              "(default 1 = in-process)")
    p_sweep.add_argument("--cache", action="store_true",
                         help="reuse/populate the content-addressed result "
                              "cache; only missing or stale digests run")
    p_sweep.add_argument("--cache-dir", metavar="DIR",
                         default="benchmarks/results/.cache",
                         help="result-cache location (default: "
                              "benchmarks/results/.cache)")
    p_sweep.add_argument("--timeout", type=float, default=0.0, metavar="SEC",
                         help="graceful per-job wall-clock watchdog "
                              "(partial stats instead of a kill)")
    p_sweep.add_argument("--summary-out", metavar="PATH", default=None,
                         help="write the farm summary (jobs, cache "
                              "hits/misses, wall time) as JSON")

    p_prof = sub.add_parser(
        "profile", help="run one application and report hot-path counters")
    p_prof.add_argument("app", help="application name (see `apps`)")
    p_prof.add_argument("--variant", default=None,
                        help="execution-model variant (default: best)")
    p_prof.add_argument("--cores", type=_positive_int, default=16)
    p_prof.add_argument("--conflicts", choices=("bloom", "precise"),
                        default="bloom")
    p_prof.add_argument("--seed", type=int, default=0)
    p_prof.add_argument("--json", metavar="PATH", default=None,
                        help="also write the profile document as JSON")
    p_prof.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write metrics (incl. profile_* counters) "
                             "+ stats JSON to PATH")

    p_crash = sub.add_parser(
        "crash-validate",
        help="validate repro.crash/1 crash-bundle files",
        epilog=_CRASH_EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p_crash.add_argument("bundles", nargs="+", metavar="BUNDLE.json",
                         help="crash bundle files to validate")

    sub.add_parser("apps", help="list applications")
    sub.add_parser("config", help="print the Table 2 configuration")
    return parser


def _note_crash_dir(args) -> None:
    """Point the user at the crash bundle after a failed run."""
    if getattr(args, "crash_dump_dir", None):
        print(f"crash bundle written under {args.crash_dump_dir}/",
              file=sys.stderr)


def _cmd_run(args) -> int:
    app, variants = _load(args.app)
    variant = args.variant or variants[-1]
    if variant not in variants:
        raise SystemExit(f"{args.app} supports variants {variants}")
    inp = app.make_input()
    cfg = SystemConfig.with_cores(args.cores, conflict_mode=args.conflicts,
                                  use_hints=not args.no_hints,
                                  seed=args.seed)

    faults = resilience = None
    if args.faults:
        try:
            faults, resilience = load_fault_file(args.faults)
        except (OSError, ValueError, ConfigError) as exc:
            print(f"cannot load --faults plan: {exc}", file=sys.stderr)
            return 2
        if resilience is None:
            # injecting faults without any resilience would just crash
            # the run; default to the standard retry/backoff policy
            resilience = ResiliencePolicy()
    if args.max_attempts is not None:
        resilience = dataclasses.replace(resilience or ResiliencePolicy(),
                                         max_attempts=args.max_attempts)

    bus = recorder = exporter = None
    if args.trace_out or args.perfetto:
        bus = EventBus()
        if args.perfetto:
            recorder = EventRecorder()
            bus.subscribe(recorder)
        if args.trace_out:
            try:
                exporter = JsonlExporter(args.trace_out)
            except OSError as exc:
                print(f"cannot open --trace-out: {exc}", file=sys.stderr)
                return 1
            bus.subscribe(exporter)

    try:
        run = run_app(app, inp, variant=variant, n_cores=args.cores,
                      config=cfg, audit=args.audit, telemetry=bus,
                      faults=faults, resilience=resilience,
                      crash_dump_dir=args.crash_dump_dir)
    except QueueError as exc:
        print(f"queue exhaustion: {exc}", file=sys.stderr)
        _note_crash_dir(args)
        return 3
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        _note_crash_dir(args)
        return 2
    except AppError as exc:
        print(f"result check: FAILED — {exc}", file=sys.stderr)
        _note_crash_dir(args)
        return 1
    finally:
        if exporter is not None:
            exporter.close()

    sim_name = f"{args.app}-{variant}"
    try:
        if recorder is not None:
            write_perfetto(recorder.events, args.perfetto, sim_name=sim_name)
            print(f"perfetto trace: {args.perfetto} "
                  f"({len(recorder)} events)")
        if exporter is not None:
            print(f"event log: {args.trace_out} ({exporter.n_events} events)")
        if args.metrics_out:
            write_metrics_json(run.metrics, args.metrics_out, stats=run.stats)
            print(f"metrics: {args.metrics_out}")
    except OSError as exc:
        print(f"cannot write export: {exc}", file=sys.stderr)
        return 1

    print(run.stats.summary())
    if not run.stats.completed:
        failure = run.stats.failure
        print(f"watchdog fired ({failure.get('limit_kind')}): partial "
              f"stats above, {failure.get('n_live')} tasks left live",
              file=sys.stderr)
        if run.sim.crash_bundle_path:
            print(f"crash bundle: {run.sim.crash_bundle_path}",
                  file=sys.stderr)
        return 4
    print("result check: OK")
    if args.serial:
        try:
            host = run_serial(app, inp, variant=variant)
        except AppError as exc:
            print(f"serial reference check: FAILED — {exc}", file=sys.stderr)
            return 1
        print(f"serial reference: {host.cycles:,} cycles "
              f"({host.tasks_executed:,} tasks)")
        if host.cycles:
            print(f"speculative vs serial at {args.cores} cores: "
                  f"{host.cycles / run.makespan:.2f}x")
    return 0


def _cmd_profile(args) -> int:
    import json as _json
    import time as _time

    from .telemetry import (collect_profile, fold_into_registry,
                            format_profile)

    app, variants = _load(args.app)
    variant = args.variant or variants[-1]
    if variant not in variants:
        raise SystemExit(f"{args.app} supports variants {variants}")
    inp = app.make_input()
    cfg = SystemConfig.with_cores(args.cores, conflict_mode=args.conflicts,
                                  seed=args.seed)
    t0 = _time.perf_counter()
    try:
        run = run_app(app, inp, variant=variant, n_cores=args.cores,
                      config=cfg)
    except QueueError as exc:
        print(f"queue exhaustion: {exc}", file=sys.stderr)
        return 3
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 2
    except AppError as exc:
        print(f"result check: FAILED — {exc}", file=sys.stderr)
        return 1
    wall_s = _time.perf_counter() - t0

    profile = collect_profile(run.sim, wall_s=wall_s)
    fold_into_registry(run.metrics, profile)
    print(format_profile(profile))
    try:
        if args.json:
            with open(args.json, "w") as f:
                _json.dump(profile, f, indent=2, sort_keys=True)
                f.write("\n")
            print(f"profile json: {args.json}")
        if args.metrics_out:
            write_metrics_json(run.metrics, args.metrics_out,
                               stats=run.stats)
            print(f"metrics: {args.metrics_out}")
    except OSError as exc:
        print(f"cannot write export: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args) -> int:
    app, all_variants = _load(args.app)
    variants = (args.variants.split(",") if args.variants
                else list(all_variants))
    cores = args.cores
    inp = app.make_input()

    from .farm.cache import ResultCache
    from .farm.farm import Farm
    cache = ResultCache(args.cache_dir) if args.cache else None
    farm = Farm(jobs=args.jobs, cache=cache, timeout_s=args.timeout,
                progress=sys.stderr.isatty())
    try:
        runs = sweep_cores(app, inp, variants, cores, farm=farm)
    except FarmError as exc:
        print(f"farm: {exc}", file=sys.stderr)
        for label, err in exc.failures:
            print(f"  {label}: {err}", file=sys.stderr)
        return 2
    print(speedup_table(runs, baseline_variant=variants[0],
                        baseline_cores=cores[0]))
    print()
    print(speedup_chart(runs, baseline_variant=variants[0],
                        baseline_cores=cores[0]))
    s = farm.summary()
    print(f"[farm] {s['jobs']} jobs on {s['workers']} workers: "
          f"{s['cache_hits']} cached, {s['failed']} failed, "
          f"{s['retries']} retries in {s['wall_s']:.2f}s", file=sys.stderr)
    if args.summary_out:
        import json as _json
        with open(args.summary_out, "w") as f:
            _json.dump({"schema": "repro.farm-summary/1", **s}, f, indent=2)
            f.write("\n")
    return 0


def _cmd_crash_validate(args) -> int:
    from .faults.crashdump import validate_paths
    return validate_paths(args.bundles)


def _cmd_apps() -> int:
    rows = [[name, module.rsplit(".", 2)[-2] if "stamp" in module
             or "swarm" in module or "pbbs" in module else "core",
             ", ".join(variants)]
            for name, (module, variants) in sorted(APPS.items())]
    print(format_table(["app", "suite", "variants"], rows))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "crash-validate":
        return _cmd_crash_validate(args)
    if args.command == "apps":
        return _cmd_apps()
    if args.command == "config":
        print(SystemConfig.paper_256core().describe())
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
