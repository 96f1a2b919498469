"""The Fractal execution model and its event-driven implementation.

- :mod:`repro.core.task` / :mod:`repro.core.domain` — the program model:
  tasks in a hierarchy of ordered/unordered domains (paper Sec. 3).
- :mod:`repro.core.api` — the low-level task interface (Listing 1).
- :mod:`repro.core.highlevel` — the OpenTM-style high-level interface
  (Table 1, Listing 2).
- :mod:`repro.core.simulator` — the Swarm-based implementation
  (paper Sec. 4): speculative out-of-order execution, fractal VTs,
  selective aborts, GVT commits, spills, and zooming.
- :mod:`repro.core.serial` — a non-speculative reference executor.
- :mod:`repro.core.audit` — post-run serializability checking.

Each name the package exports loads its module on first use, so a run
that imports :mod:`repro.core.simulator` loads neither the serial
executor, the audit nor the high-level interface.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".task": ("TaskDesc", "TaskState"),
    ".domain": ("Domain",),
    ".api": ("TaskContext", "TaskAborted"),
    ".simulator": ("Simulator",),
    ".serial": ("SerialExecutor",),
    ".stats": ("RunStats", "CycleBreakdown"),
    ".audit": ("audit_serializability",),
})

__all__ = [
    "TaskDesc",
    "TaskState",
    "Domain",
    "TaskContext",
    "TaskAborted",
    "Simulator",
    "SerialExecutor",
    "RunStats",
    "CycleBreakdown",
    "audit_serializability",
]
