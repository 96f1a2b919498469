"""Benchmark applications (paper Table 3).

Every application follows one convention so benchmarks, tests, and the
serial oracle can drive any of them generically:

- ``make_input(**params)`` — build a deterministic input description.
- ``build(host, inp, variant=..., **options)`` — allocate speculative state
  on ``host`` (a :class:`repro.Simulator` or
  :class:`repro.SerialExecutor`), enqueue the root tasks, and return a
  ``handles`` dict for post-run inspection.
- ``check(handles, inp)`` — verify the result (raises
  :class:`repro.errors.AppError` on a wrong answer) against a
  plain-Python oracle.
- ``root_ordering(variant)`` (optional) — the root-domain ordering the
  variant needs (e.g. swarm-fg variants need an ordered root).

Variants reproduce the paper's comparisons:

- ``flat`` — coarse atomic tasks (the HTM/TM port),
- ``fractal`` — nested domains (the paper's contribution),
- ``swarm`` — manually timestamped fine-grain tasks (swarm-fg),

plus per-app feature switches (``use_sw_queue`` for STAMP's TM mode,
``use_hints`` at the config level) used by the Fig. 17 feature ladder.

Modules are imported lazily, so e.g. ``repro.apps.mis`` does not load
every other app.
"""

from .._lazy import lazy_exports

_APPS = ("color", "maxflow", "mis", "msf", "silo", "zoomtree")
_STAMP = ("bayes", "genome", "intruder", "kmeans", "labyrinth", "ssca2",
          "vacation", "yada")
_SWARM = ("astar", "bfs", "des", "nocsim", "sssp")

__all__ = list(_APPS) + list(_STAMP) + list(_SWARM)

__getattr__, __dir__ = lazy_exports(
    globals(), {".stamp": _STAMP, ".swarm": _SWARM}, submodules=_APPS)
