"""repro.specfor — deterministic-reservation ``speculative_for``.

The PBBS reservation pattern (reserve → check → commit rounds with
priority-writeMin cells and keep/pack carry-over) as a reusable engine:

- :mod:`reservation <repro.specfor.reservation>` — priority cells over
  versioned memory;
- :mod:`adapter <repro.specfor.adapter>` — the round pipeline, its step
  protocol and policy/livelock ladder, hosted as VT-ordered tasks inside
  a fractal domain (:class:`DomainSpecFor`).

The :mod:`repro.apps.pbbs` family builds on both. The standalone host
loop of the same protocol and its sequential reference survive only as
test oracles.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".adapter": ("DomainSpecFor", "SpecForLivelock", "SpecForPolicy"),
    ".reservation": ("UNRESERVED", "ReservationTable"),
})

__all__ = [
    "UNRESERVED",
    "DomainSpecFor",
    "ReservationTable",
    "SpecForLivelock",
    "SpecForPolicy",
]
