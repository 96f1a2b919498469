"""Tiled-multicore architecture model (paper Sec. 4.1, Fig. 8, Table 2).

The chip is a K x K mesh of tiles; each tile holds a few simple cores, a
task unit (task queue + commit queue), and a slice of the shared L3. This
package provides the *mechanisms*; :mod:`repro.core.simulator` orchestrates
them into the event-driven execution engine.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".noc": ("MeshNoC",),
    ".cache": ("CacheModel",),
    ".tile": ("Core", "Tile"),
    ".task_unit": ("TaskUnit",),
    ".spill": ("SpillBuffer", "CoalescerJob", "SplitterJob"),
    ".scheduler": ("HintScheduler",),
    ".gvt": ("GvtArbiter",),
})

__all__ = [
    "MeshNoC",
    "CacheModel",
    "Core",
    "Tile",
    "TaskUnit",
    "SpillBuffer",
    "CoalescerJob",
    "SplitterJob",
    "HintScheduler",
    "GvtArbiter",
]
