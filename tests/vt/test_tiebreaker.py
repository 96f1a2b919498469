"""Tests for tiebreaker allocation and wrap-around compaction (paper 4.4)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import VTError
from repro.vt import TiebreakerAllocator
from repro.vt.tiebreaker import WrapAround


class TestAllocation:
    def test_orders_by_cycle_then_tile(self):
        alloc = TiebreakerAllocator(width=32, tile_bits=8)
        a = alloc.alloc(10, 0)
        b = alloc.alloc(10, 3)
        c = alloc.alloc(11, 0)
        assert a < b < c

    def test_packs_relative_cycle_above_tile(self):
        alloc = TiebreakerAllocator(width=32, tile_bits=8)
        # relative cycles start at 1 so that 0 stays free below them all
        assert alloc.alloc(45, 2) == (46 << 8) | 2
        assert alloc.lower_bound(45) == 46 << 8

    def test_tile_must_fit(self):
        alloc = TiebreakerAllocator(width=32, tile_bits=4)
        with pytest.raises(VTError):
            alloc.alloc(0, 16)

    def test_tile_bits_must_be_less_than_width(self):
        with pytest.raises(VTError):
            TiebreakerAllocator(width=8, tile_bits=8)

    def test_lower_bound_below_future_allocations(self):
        alloc = TiebreakerAllocator(width=32, tile_bits=8)
        lb = alloc.lower_bound(100)
        for tile in (0, 1, 7):
            # equality only for (same cycle, tile 0); never greater
            assert lb <= alloc.alloc(100, tile)
            assert lb < alloc.alloc(101, tile)

    def test_lower_bound_above_past_allocations(self):
        alloc = TiebreakerAllocator(width=32, tile_bits=8)
        past = alloc.alloc(99, 255)
        assert alloc.lower_bound(100) > past


class TestWrapAround:
    def _tiny(self):
        # 8-bit cycles: wraps quickly.
        return TiebreakerAllocator(width=12, tile_bits=4)

    def test_alloc_raises_at_overflow(self):
        alloc = self._tiny()
        alloc.alloc(0, 0)
        with pytest.raises(WrapAround):
            alloc.alloc(alloc.max_rel_cycle, 0)  # rel = max+1

    def test_compaction_subtracts_half_with_saturation(self):
        alloc = self._tiny()
        assert alloc.compacted(alloc.half_raw + 5) == 5
        assert alloc.compacted(3) == 0

    def test_compaction_preserves_order_above_half(self):
        alloc = self._tiny()
        assert (alloc.compacted(alloc.half_raw + 5)
                < alloc.compacted(alloc.half_raw + 9))

    def test_new_allocations_start_at_half_after_compaction(self):
        alloc = self._tiny()
        cycle = alloc.max_rel_cycle  # would overflow
        with pytest.raises(WrapAround):
            alloc.alloc(cycle, 0)
        alloc.compact(cycle)
        tb = alloc.alloc(cycle, 0)
        assert tb >= alloc.half_raw // 2
        assert alloc.wraparounds == 1

    @given(st.integers(min_value=0, max_value=2**12 - 1),
           st.integers(min_value=0, max_value=2**12 - 1))
    def test_compaction_monotone(self, x, y):
        alloc = TiebreakerAllocator(width=12, tile_bits=4)
        ca, cb = alloc.compacted(x), alloc.compacted(y)
        if x <= y:
            assert ca <= cb
        else:
            assert ca >= cb
