"""Shared benchmark infrastructure.

Each ``bench_*.py`` regenerates one paper table/figure. Run directly
(``python benchmarks/bench_figXX_*.py``) or through ``run_all.py``, it
executes its sweep, writes the paper-style table to
``benchmarks/results/`` and then asserts the figure's shape checks; a
failed check fails the bench. Checks that read the sweep's largest core
count run only when it is at least :data:`SHAPE_CHECK_MIN_CORES` (see
:func:`shape_checks_at`).

Set ``REPRO_BENCH_CORES=1,4,16,64,256`` to override the core-count sweep;
the list must include 1, since every sweep normalises to the 1-core run
(a list without it exits 2 before any run, as ``run_all.py --cores``
does).

Every :func:`run_once` is a :class:`repro.farm.farm.Farm` job, so its run
carries stats only (no live simulator; a bench that needs one calls
``run_app`` itself). When ``REPRO_BENCH_CACHE`` is set to a truthy value
(``run_all.py`` does this by default), the farm content-addresses every
run and serves repeats from ``benchmarks/results/.cache``
(``REPRO_BENCH_CACHE_DIR`` overrides the location).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
from typing import Iterable, List, Optional

from repro.bench.harness import AppRun
from repro.cli import _core_list
from repro.config import SystemConfig
from repro.farm.cache import ResultCache
from repro.farm.farm import Farm
from repro.farm.job import JobSpec

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"

#: default sweep — big enough to show the paper's shapes, small enough
#: for a Python-resident simulator
DEFAULT_CORES = (1, 4, 16, 64)

#: the smallest top core count at which the shape checks hold: at 4
#: cores the fine-grain variants still trail flat (Figs. 3, 4, 14a/b, 17)
SHAPE_CHECK_MIN_CORES = 16

_CACHE = None


def _result_cache():
    """The process-wide ResultCache, or None when caching is off."""
    global _CACHE
    if os.environ.get("REPRO_BENCH_CACHE", "") in ("", "0"):
        return None
    if _CACHE is None:
        root = os.environ.get("REPRO_BENCH_CACHE_DIR") or (RESULTS_DIR
                                                           / ".cache")
        _CACHE = ResultCache(root)
    return _CACHE


def sweep_cores(text: str) -> List[int]:
    """argparse type for a core sweep such as ``1,4,16``: positive counts
    that include 1, since every sweep normalises its speedups to the
    1-core run."""
    cores = _core_list(text)
    if 1 not in cores:
        raise argparse.ArgumentTypeError(
            f"{text!r} must include 1 (speedups are relative to 1 core)")
    return cores


def core_counts() -> List[int]:
    """The sweep's core counts: ``REPRO_BENCH_CORES`` or the default. A
    bad list is a usage error (exit 2), as for ``run_all.py --cores``."""
    env = os.environ.get("REPRO_BENCH_CORES")
    if not env:
        return list(DEFAULT_CORES)
    try:
        return sweep_cores(env)
    except argparse.ArgumentTypeError as exc:
        prog = pathlib.Path(sys.argv[0]).name
        print(f"{prog}: error: REPRO_BENCH_CORES: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def shape_checks_at(top: int) -> bool:
    """Whether the shape checks that read core count ``top`` apply; when
    they do not, say so in one line."""
    if top >= SHAPE_CHECK_MIN_CORES:
        return True
    print(f"shape checks skipped: top core count {top} < "
          f"{SHAPE_CHECK_MIN_CORES}")
    return False


def config_for(n_cores: int, *, conflict_mode: str = "bloom",
               use_hints: bool = True, **overrides) -> SystemConfig:
    return SystemConfig.with_cores(n_cores, conflict_mode=conflict_mode,
                                   use_hints=use_hints, **overrides)


def run_once(app, inp, variant: str, n_cores: int, *,
             conflict_mode: str = "bloom", use_hints: bool = True,
             check: bool = True, max_cycles: Optional[int] = None,
             config: Optional[SystemConfig] = None,
             **build_options) -> AppRun:
    """One simulation run as a farm job, served from the result cache
    when enabled; a failed job raises :class:`repro.errors.FarmError`.

    ``config`` overrides the default :func:`config_for` construction for
    benches with custom configurations (zooming VT budgets, flattening).
    """
    cfg = config or config_for(n_cores, conflict_mode=conflict_mode,
                               use_hints=use_hints)
    spec = JobSpec(app=app.__name__, variant=variant, n_cores=n_cores,
                   config=cfg, input_obj=inp, check=check,
                   max_cycles=max_cycles,
                   build_options=dict(build_options))
    farm = Farm(jobs=1, cache=_result_cache())
    (res,) = farm.run([spec])
    farm.raise_on_failures([res])
    return AppRun(app=spec.app, variant=variant, n_cores=res.n_cores,
                  stats=res.stats, handles={}, cached=True)


def emit(name: str, text: str,
         runs: Optional[Iterable[AppRun]] = None) -> None:
    """Print a result table and persist it under benchmarks/results/.

    When ``runs`` is given, the structured stats are also written to
    ``results/{name}.json`` (one ``RunStats.to_dict()`` per run), so
    downstream consumers (collect_experiments.py) can rebuild tables from
    data instead of scraping the text.
    """
    print(f"\n===== {name} =====")
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    if runs is not None:
        doc = {"schema": "repro.bench-runs/1",
               "runs": [{"app": r.app.rsplit(".", 1)[-1],
                         "variant": r.variant,
                         "n_cores": r.n_cores,
                         "stats": r.stats.to_dict()} for r in runs]}
        (RESULTS_DIR / f"{name}.json").write_text(
            json.dumps(doc, indent=2) + "\n")

