"""STAMP benchmark suite ports (paper Sec. 6.4, Fig. 17; Minh et al. [42]).

All eight STAMP applications, each exposing the Fig. 17 feature ladder:

- ``variant="tm"`` — the original transactional port: coarse transactions,
  and (where STAMP used them) *software* task queues held in transactional
  memory, whose head/tail contention throttles scaling.
- ``variant="hwq"`` — +HWQueues: the same transactions fed through the
  hardware task queues (one task per transaction).
- spatial hints are a config switch (``SystemConfig.use_hints``); the
  bench ladder runs hwq with hints on ("+Hints").
- ``variant="fractal"`` — nested parallelism where the paper found it
  (labyrinth, bayes); elsewhere fractal == hints (no nesting opportunity),
  matching Fig. 17's converging curves.

Each module follows the :mod:`repro.apps` convention, and loads on
first use, so one app does not load the other seven.
"""

from ..._lazy import lazy_exports

__all__ = ["bayes", "genome", "intruder", "kmeans", "labyrinth", "ssca2",
           "vacation", "yada"]

__getattr__, __dir__ = lazy_exports(globals(), {}, submodules=__all__)
