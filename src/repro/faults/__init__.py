"""repro.faults — deterministic fault injection and resilience.

Two halves (see README "Robustness"):

- **Injection** — a :class:`FaultPlan` (JSON-loadable, seeded) drives a
  :class:`FaultInjector` that deterministically injects transient task
  exceptions, forced conflicts, runaway task durations, and queue-capacity
  squeezes into a run, so every failure path is exercisable in tests.
- **Resilience** — a :class:`ResiliencePolicy` gives the simulator
  per-task retry budgets with exponential backoff, a sliding-window
  :class:`LivelockDetector` that throttles dispatch and escalates to
  *safe mode* (serialized non-speculative execution of the GVT-leading
  task, guaranteeing forward progress), graceful task-queue overflow
  degradation, and a ``max_cycles``/wall-clock watchdog that returns
  partial :class:`repro.core.stats.RunStats` instead of raising.

On any failure (:class:`repro.errors.SimulationError`, exhausted retries,
watchdog fire) the simulator writes a *crash bundle* — telemetry event
ring buffer, per-tile queue states, GVT, offending task VTs — via
:mod:`repro.faults.crashdump`; a :class:`repro.farm.farm.Farm` given a
``crash_dump_dir`` writes one per dead worker process (job digest and
attempt) in the same schema.

Nothing here loads until a caller uses it: a run with neither a fault
plan nor a resilience policy never imports this package, and each name
below loads its module on first use.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".crashdump": ("CRASH_BUNDLE_SCHEMA", "build_crash_bundle",
                   "build_farm_crash_bundle", "validate_crash_bundle",
                   "write_crash_bundle", "write_farm_crash_bundle"),
    ".injector": ("FaultInjector",),
    ".plan": ("FaultPlan", "InjectedFault", "load_fault_file"),
    ".resilience": ("LivelockDetector", "ResiliencePolicy", "backoff_delay"),
})

__all__ = [
    "CRASH_BUNDLE_SCHEMA",
    "FaultInjector",
    "FaultPlan",
    "InjectedFault",
    "LivelockDetector",
    "ResiliencePolicy",
    "backoff_delay",
    "build_crash_bundle",
    "build_farm_crash_bundle",
    "load_fault_file",
    "validate_crash_bundle",
    "write_crash_bundle",
    "write_farm_crash_bundle",
]
