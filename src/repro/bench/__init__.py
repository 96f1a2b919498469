"""Benchmark harness: generic app runners, sweeps, and report tables."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".harness": ("run_app", "run_serial", "sweep_cores", "AppRun"),
    ".report": ("speedup_table", "format_table"),
})

__all__ = [
    "run_app",
    "run_serial",
    "sweep_cores",
    "AppRun",
    "speedup_table",
    "format_table",
]
