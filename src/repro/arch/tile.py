"""Tiles and cores (paper Fig. 8).

These are bookkeeping shells: a :class:`Core` tracks what it is doing; a
:class:`Tile` groups cores with their task unit. All behaviour lives in
the simulator.
"""

from __future__ import annotations

from typing import List

from .task_unit import TaskUnit


class Core:
    """One in-order core."""

    __slots__ = ("cid", "tile_id", "job")

    def __init__(self, cid: int, tile_id: int):
        self.cid = cid
        self.tile_id = tile_id
        #: the task attempt / coalescer / splitter currently occupying us
        self.job = None

    @property
    def is_free(self) -> bool:
        """True when no job occupies this core."""
        return self.job is None

    def __repr__(self) -> str:
        state = "free" if self.is_free else f"busy({self.job})"
        return f"Core{self.cid}@T{self.tile_id}[{state}]"


class Tile:
    """A tile: cores + task unit (+ an L2/L3 slice modeled in CacheModel)."""

    __slots__ = ("tid", "cores", "unit")

    def __init__(self, tid: int, n_cores: int, task_queue_cap: int,
                 commit_queue_cap: int):
        self.tid = tid
        self.cores: List[Core] = []
        self.unit = TaskUnit(tid, task_queue_cap, commit_queue_cap)

    def __repr__(self) -> str:
        return f"Tile{self.tid}({len(self.cores)} cores, {self.unit})"
