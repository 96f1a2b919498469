"""Generic application runners.

``run_app`` drives any module following the :mod:`repro.apps` convention on
a speculative simulator; ``run_serial`` runs the same program on the serial
reference executor; ``sweep_cores`` produces the paper's scaling curves
as :mod:`repro.farm` jobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from ..config import SystemConfig
from ..core.serial import SerialExecutor
from ..core.simulator import Simulator
from ..core.stats import RunStats
from ..telemetry import EventBus
from ..vt import Ordering


@dataclass
class AppRun:
    """Outcome of one application run.

    ``cached`` marks a run that went through :mod:`repro.farm` (served
    from its result cache or executed as a farm job): its stats are
    byte-identical to a live run's, but there is no in-process simulator
    behind it, so :attr:`sim` / :attr:`metrics` / ``handles`` are
    unavailable.
    """

    app: str
    variant: str
    n_cores: int
    stats: RunStats
    handles: Dict
    cached: bool = False

    @property
    def makespan(self) -> int:
        return self.stats.makespan

    @property
    def sim(self) -> Simulator:
        """The simulator that produced this run (metrics live on it)."""
        try:
            return self.handles["_sim"]
        except KeyError:
            raise AttributeError(
                "this AppRun has no live simulator (farm result); "
                "use run_app to inspect sim state")

    @property
    def metrics(self):
        """The run's :class:`repro.telemetry.MetricsRegistry`."""
        return self.sim.metrics


def _root_ordering(app, variant: str) -> Ordering:
    fn = getattr(app, "root_ordering", None)
    return fn(variant) if fn is not None else Ordering.UNORDERED


def run_app(app, inp, variant: str = "fractal", n_cores: int = 4, *,
            config: Optional[SystemConfig] = None, check: bool = True,
            audit: bool = False, max_cycles: Optional[int] = None,
            telemetry: Optional[EventBus] = None,
            faults=None, resilience=None,
            crash_dump_dir: Optional[str] = None,
            **build_options) -> AppRun:
    """Build and run ``app`` (a module from :mod:`repro.apps`).

    ``telemetry`` is an :class:`~repro.telemetry.EventBus` with the
    caller's subscribers (recorders, exporters) already attached; the
    simulator publishes its event stream to it. ``faults`` /
    ``resilience`` / ``crash_dump_dir`` pass through to the simulator
    (see :mod:`repro.faults`); a run stopped by the graceful watchdog
    returns partial stats, so audit and result checks are skipped for it.
    """
    cfg = config or SystemConfig.with_cores(n_cores)
    sim = Simulator(cfg, root_ordering=_root_ordering(app, variant),
                    name=f"{app.__name__.rsplit('.', 1)[-1]}-{variant}",
                    enable_audit=audit, bus=telemetry, faults=faults,
                    resilience=resilience, crash_dump_dir=crash_dump_dir)
    handles = app.build(sim, inp, variant=variant, **build_options)
    stats = sim.run(max_cycles=max_cycles)
    if audit and stats.completed:
        sim.audit()
    if check and stats.completed:
        app.check(handles, inp)
    run = AppRun(app=app.__name__, variant=variant, n_cores=cfg.n_cores,
                 stats=stats, handles=handles)
    run.handles["_sim"] = sim
    return run


def run_serial(app, inp, variant: str = "fractal", *, check: bool = True,
               **build_options) -> SerialExecutor:
    """Run the same program on the non-speculative serial executor."""
    host = SerialExecutor(root_ordering=_root_ordering(app, variant),
                          name=f"{app.__name__}-serial")
    handles = app.build(host, inp, variant=variant, **build_options)
    host.run()
    if check:
        app.check(handles, inp)
    host.handles = handles
    return host


def sweep_cores(app, inp, variants: Iterable[str], core_counts: Iterable[int],
                *, farm=None, check: bool = True,
                **build_options) -> List[AppRun]:
    """Run every (variant, core count) pair on ``farm``; returns all runs.

    Each run uses the default config for its core count. ``farm`` (a
    :class:`repro.farm.farm.Farm`, default ``Farm()``: inline, no cache) sets
    the worker count and result cache. Runs come back in sweep order with
    stats identical to :func:`run_app`'s, but carry no live
    simulator/handles (``AppRun.cached`` semantics). Job failures raise
    :class:`repro.errors.FarmError` after the whole sweep has been
    attempted.
    """
    from ..farm.farm import Farm
    from ..farm.job import JobSpec
    specs = [JobSpec(app=app.__name__, variant=variant, n_cores=n,
                     input_obj=inp, check=check,
                     build_options=dict(build_options))
             for variant in variants for n in core_counts]
    if farm is None:
        farm = Farm()
    results = farm.run(specs)
    farm.raise_on_failures(results)
    return [AppRun(app=spec.app, variant=spec.variant, n_cores=res.n_cores,
                   stats=res.stats, handles={}, cached=True)
            for spec, res in zip(specs, results)]
