"""Fractal virtual times (paper Sec. 4.2).

A task's *fractal VT* is the concatenation of one *domain VT* per enclosing
domain. Domain VTs combine an optional program timestamp (32 or 64 bits)
with a dispatch-time *tiebreaker*; comparing fractal VTs lexicographically
yields a total order that enforces Fractal's cross-domain atomicity. The
sort key is one flat tuple of ints, two per level.

Public API:

- :class:`Ordering` — domain ordering semantics (unordered / 32b / 64b).
- :class:`TiebreakerAllocator` — packed (cycle, tile) int tiebreakers
  with wrap-around compaction (paper Sec. 4.4).
- :class:`DomainVT` — one level's ordering and timestamp.
- :class:`FractalVT` — the flat-keyed, budget-checked fractal VT.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".ordering": ("Ordering",),
    ".tiebreaker": ("TiebreakerAllocator",),
    ".domain_vt": ("DomainVT",),
    ".fractal_vt": ("FractalVT",),
})

__all__ = [
    "Ordering",
    "TiebreakerAllocator",
    "DomainVT",
    "FractalVT",
]
