"""Dispatch-time tiebreakers (paper Sec. 4.1 Fig. 9, Sec. 4.4).

A tiebreaker is the concatenation of the dispatch cycle and the dispatching
tile id. It orders same-timestamp tasks sensibly (older first) and orders
children after parents (a child is always dispatched at a later cycle than
its parent). A tiebreaker is the packed ``(cycle << tile_bits) | tile``
int that hardware compares, with the cycle taken relative to an epoch
base. Fractal uses 32-bit tiebreakers for VT compactness, so they wrap
around every few tens of milliseconds; :class:`TiebreakerAllocator`
implements the paper's compaction walk: subtract half the range with
saturation from every live tiebreaker, then keep allocating from the
half-range point.
"""

from __future__ import annotations

from ..errors import VTError


class TiebreakerAllocator:
    """Allocates (cycle || tile) tiebreakers within a fixed bit width.

    Parameters
    ----------
    width:
        Total tiebreaker width in bits (32 in the paper).
    tile_bits:
        Bits reserved for the tile id (low-order bits).

    Cycles are stored relative to an internal epoch base. When the relative
    cycle no longer fits, :meth:`alloc` raises :class:`WrapAround`; the
    simulator then calls :meth:`compact` with a callback that rewrites every
    live tiebreaker (paper Sec. 4.4) and retries.
    """

    def __init__(self, width: int = 32, tile_bits: int = 8):
        if tile_bits >= width:
            raise VTError(f"tile_bits={tile_bits} must be < width={width}")
        self.width = width
        self.tile_bits = tile_bits
        self.cycle_bits = width - tile_bits
        self.max_rel_cycle = (1 << self.cycle_bits) - 1
        self.half_raw = 1 << (width - 1)
        self._epoch_base = 0
        #: number of compaction walks performed (exposed for stats/tests)
        self.wraparounds = 0
        # lower_bound is pure per (epoch base, cycle) and the simulator
        # asks for the *current* cycle's bound millions of times per run;
        # one cached entry covers almost all of them. compact() clears it.
        self._lb_cycle = -1
        self._lb_cached = 0

    # ------------------------------------------------------------------
    def rel_cycle(self, cycle: int) -> int:
        """Cycle relative to the current epoch (>= 1 for real allocations)."""
        rel = cycle - self._epoch_base + 1  # +1 keeps 0 free as a lower bound
        if rel < 1:
            raise VTError(
                f"cycle {cycle} precedes epoch base {self._epoch_base}")
        return rel

    def would_wrap(self, cycle: int) -> bool:
        """True when allocating at ``cycle`` would overflow the epoch."""
        return self.rel_cycle(cycle) > self.max_rel_cycle

    def alloc(self, cycle: int, tile: int) -> int:
        """Allocate the tiebreaker for a dispatch at ``cycle`` on ``tile``.

        Raises :class:`WrapAround` when the relative cycle overflows; the
        caller must run :meth:`compact` and retry.
        """
        if not (0 <= tile < (1 << self.tile_bits)):
            raise VTError(f"tile {tile} does not fit in {self.tile_bits} bits")
        rel = self.rel_cycle(cycle)
        if rel > self.max_rel_cycle:
            raise WrapAround(cycle)
        return (rel << self.tile_bits) | tile

    def lower_bound(self, cycle: int) -> int:
        """Conservative tiebreaker lower bound for a not-yet-dispatched task
        enqueued at ``cycle`` (the paper's unset "--" tiebreaker, Fig. 12).
        Sorts at or before any tiebreaker allocated at or after ``cycle``
        and after any allocated strictly before it."""
        if cycle == self._lb_cycle:
            return self._lb_cached
        tb = min(self.rel_cycle(cycle), self.max_rel_cycle) << self.tile_bits
        self._lb_cycle = cycle
        self._lb_cached = tb
        return tb

    # ------------------------------------------------------------------
    def compacted(self, tb: int) -> int:
        """The value ``tb`` takes after one compaction walk: subtract half
        the range, saturating at zero (paper Sec. 4.4 step 1)."""
        return max(tb - self.half_raw, 0)

    def compact(self, now_cycle: int) -> None:
        """Advance the epoch base by half the cycle range.

        The simulator is responsible for walking every live fractal VT with
        :meth:`compacted` *before* calling this, and for aborting any task
        whose final tiebreaker saturated to zero and is not the earliest
        unfinished task (paper Sec. 4.4 step 2).
        """
        half_cycles = self.half_raw >> self.tile_bits
        self._epoch_base += half_cycles
        self._lb_cycle = -1  # epoch moved: cached bound is no longer valid
        self.wraparounds += 1
        if self.would_wrap(now_cycle):
            # One walk did not create room: the run outlived 1.5x the cycle
            # range within a single epoch, so walk again.
            raise WrapAround(now_cycle)


class WrapAround(VTError):
    """Raised by :meth:`TiebreakerAllocator.alloc` when tiebreakers must be
    compacted before any further allocation."""

    def __init__(self, cycle: int):
        super().__init__(f"tiebreaker wrap-around at cycle {cycle}")
        self.cycle = cycle
