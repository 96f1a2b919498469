"""PBBS deterministic-reservation applications (``speculative_for``).

Three apps built on :mod:`repro.specfor`, each with four variants:

- ``flat`` — one ordered task per loop iteration (ts = iteration index):
  the whole body runs as a single atomic transaction;
- ``swarm`` — the same iteration decomposed into fine tasks over a
  disjoint timestamp range per iteration (swarm-fg);
- ``fractal`` — an ordered iteration task opening an unordered subdomain
  for its inner work (the paper's nesting);
- ``specfor`` — the PBBS reserve→check→commit round pipeline hosted
  inside a fractal domain (:class:`repro.specfor.DomainSpecFor`).

Every variant of every app produces **byte-identical result arrays**,
equal to the sequential loop in iteration order — each app's ``check``
recomputes that reference in plain Python and compares exactly, on top of
an independent structural oracle.
"""

from ..._lazy import lazy_exports

VARIANTS_PBBS = ("flat", "swarm", "fractal", "specfor")

__all__ = ["VARIANTS_PBBS", "contract", "refine", "spanning"]

__getattr__, __dir__ = lazy_exports(
    globals(), {}, submodules=("contract", "refine", "spanning"))
