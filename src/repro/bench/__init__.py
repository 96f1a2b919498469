"""Benchmark harness: generic app runners, sweeps, and report tables."""

from .harness import run_app, run_serial, sweep_cores, AppRun
from .report import speedup_table, format_table

__all__ = [
    "run_app",
    "run_serial",
    "sweep_cores",
    "AppRun",
    "speedup_table",
    "format_table",
]
