"""Paper-style report tables for benchmark output."""

from __future__ import annotations

from typing import Iterable, List, Sequence

from .harness import AppRun


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Plain fixed-width table (benchmarks print these)."""
    rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row):
        return "  ".join(str(c).rjust(w) for c, w in zip(row, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def speedup_table(runs: List[AppRun], *, baseline_variant: str,
                  baseline_cores: int = 1) -> str:
    """Speedups over the 1-core baseline variant (paper Figs. 3/4/6/15/17)."""
    base = next(r for r in runs
                if r.variant == baseline_variant
                and r.n_cores == baseline_cores)
    variants = sorted({r.variant for r in runs})
    cores = sorted({r.n_cores for r in runs})
    rows = []
    for n in cores:
        row = [f"{n}c"]
        for v in variants:
            run = next((r for r in runs if r.variant == v and r.n_cores == n),
                       None)
            row.append("-" if run is None
                       else f"{base.makespan / run.makespan:.2f}x")
        rows.append(row)
    return format_table(["cores"] + variants, rows)

