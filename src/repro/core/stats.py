"""Run statistics: cycle breakdowns and counters (paper Figs. 14b/15b).

The paper classifies every core cycle as one of:

- **committed** — running tasks that ultimately commit,
- **aborted** — running tasks that are later aborted (plus rollback),
- **spill** — coalescer/splitter work moving tasks to/from memory,
- **stall** — cores stalled on a full task or commit queue,
- **empty** — cores stalled for lack of tasks.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, Optional


@dataclass
class CycleBreakdown:
    """Per-category core-cycle totals over a whole run."""

    committed: int = 0
    aborted: int = 0
    spill: int = 0
    stall: int = 0
    empty: int = 0

    @property
    def total(self) -> int:
        """All core cycles: n_cores x makespan."""
        return self.committed + self.aborted + self.spill + self.stall + self.empty

    def to_dict(self) -> Dict[str, int]:
        """JSON-safe category totals."""
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Dict[str, int]) -> "CycleBreakdown":
        """Inverse of :meth:`to_dict` (unknown keys ignored)."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in known})

    def fractions(self) -> Dict[str, float]:
        """Per-category shares of total core cycles (Figs. 14b/15b bars)."""
        total = self.total or 1
        return {
            "committed": self.committed / total,
            "aborted": self.aborted / total,
            "spill": self.spill / total,
            "stall": self.stall / total,
            "empty": self.empty / total,
        }

    def __str__(self) -> str:
        f = self.fractions()
        return ("commit {committed:6.1%}  abort {aborted:6.1%}  "
                "spill {spill:6.1%}  stall {stall:6.1%}  "
                "empty {empty:6.1%}".format(**f))


@dataclass
class RunStats:
    """Everything a benchmark reports about one simulation."""

    name: str = "run"
    n_cores: int = 1
    makespan: int = 0                     # cycles from start to last commit
    breakdown: CycleBreakdown = field(default_factory=CycleBreakdown)

    tasks_committed: int = 0
    tasks_aborted: int = 0                # aborted attempts (re-executed)
    tasks_squashed: int = 0               # discarded child tasks
    tasks_spilled: int = 0
    enqueues: int = 0
    domains_created: int = 0
    domains_flattened: int = 0
    max_depth: int = 1

    true_conflicts: int = 0
    false_positive_conflicts: int = 0

    # resilience / fault injection (repro.faults); all zero when off
    faults_injected: int = 0
    exec_fault_retries: int = 0           # attempts retried after exceptions
    backoff_requeues: int = 0             # requeues delayed by backoff
    safe_mode_entries: int = 0
    zoom_ins: int = 0
    zoom_outs: int = 0
    tiebreaker_wraparounds: int = 0
    gvt_ticks: int = 0

    cache: Dict[str, int] = field(default_factory=dict)

    #: set when the run ended early (watchdog fire): a JSON-safe report
    #: with the limit hit and the work left; None for completed runs
    failure: Optional[Dict[str, Any]] = None

    @property
    def completed(self) -> bool:
        """True when the run drained every task (no failure report)."""
        return self.failure is None

    @property
    def avg_task_length(self) -> float:
        """Mean committed-task length in cycles (paper Table 4)."""
        if not self.tasks_committed:
            return 0.0
        return self.breakdown.committed / self.tasks_committed

    def to_dict(self) -> dict:
        """JSON round-trip export (nested :class:`CycleBreakdown` included).

        The machine-readable form benchmarks persist instead of scraping
        report text; ``from_dict(to_dict(s)) == s`` field-for-field.
        """
        d = asdict(self)
        d["breakdown"] = self.breakdown.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunStats":
        """Rebuild a :class:`RunStats` from its :meth:`to_dict` form."""
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in d.items() if k in known}
        kwargs["breakdown"] = CycleBreakdown.from_dict(d.get("breakdown", {}))
        kwargs["cache"] = dict(d.get("cache", {}))
        return cls(**kwargs)

    def summary(self) -> str:
        """Multi-line human-readable run report."""
        lines = [
            f"{self.name}: {self.n_cores} cores, makespan {self.makespan:,} cycles",
            f"  tasks: {self.tasks_committed:,} committed, "
            f"{self.tasks_aborted:,} aborted attempts, "
            f"{self.tasks_squashed:,} squashed, {self.tasks_spilled:,} spilled",
            f"  avg committed task length: {self.avg_task_length:,.0f} cycles",
            f"  cycles: {self.breakdown}",
            f"  conflicts: {self.true_conflicts:,} true, "
            f"{self.false_positive_conflicts:,} false positive",
        ]
        if self.zoom_ins or self.zoom_outs:
            lines.append(f"  zooming: {self.zoom_ins} in / {self.zoom_outs} out")
        if self.tiebreaker_wraparounds:
            lines.append(f"  tiebreaker wraparounds: {self.tiebreaker_wraparounds}")
        if self.faults_injected or self.safe_mode_entries:
            lines.append(
                f"  resilience: {self.faults_injected} faults injected, "
                f"{self.exec_fault_retries} exception retries, "
                f"{self.backoff_requeues} backoff requeues, "
                f"{self.safe_mode_entries} safe-mode entries")
        if self.failure is not None:
            lines.append(
                f"  PARTIAL RUN — {self.failure.get('reason', 'failure')}: "
                f"{self.failure.get('n_live', '?')} tasks left live")
        return "\n".join(lines)
