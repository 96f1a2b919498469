"""Shared helpers for benchmark applications."""

from __future__ import annotations

from typing import Sequence

from ..errors import AppError

VARIANTS_FLAT_FRACTAL = ("flat", "fractal")
VARIANTS_ALL = ("flat", "swarm", "fractal")


def require_variant(variant: str, allowed: Sequence[str]) -> str:
    if variant not in allowed:
        raise AppError(f"unknown variant {variant!r}; pick one of {allowed}")
    return variant


def join_increment(ctx, cell, arrivals: int) -> bool:
    """Join-counter pattern: atomically bump ``cell``; True for the last
    arrival of ``arrivals``. The caller then enqueues the continuation
    (fork-join over unordered tasks, paper Sec. 7.1)."""
    return cell.add(ctx, 1) == arrivals


def splitmix(x: int) -> int:
    """Deterministic 64-bit hash (shared by apps needing cheap pseudo-
    randomness inside tasks, where ``random`` would break re-execution)."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)
