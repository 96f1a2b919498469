"""Tests for fractal VT construction and comparison (paper Sec. 4.2)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import VTBudgetExceeded, VTError
from repro.vt import DomainVT, FractalVT, Ordering, TiebreakerAllocator

U, O32, O64 = Ordering.UNORDERED, Ordering.ORDERED_32, Ordering.ORDERED_64


def tb(cycle, tile=0):
    alloc = TiebreakerAllocator(width=32, tile_bits=8)
    return alloc.alloc(cycle, tile)


def root(cycle=1, tile=0, ordering=U, ts=0):
    return FractalVT.root(ordering, ts, tb(cycle, tile))


def sub(vt, cycle=1, tile=0, ordering=U, ts=0):
    return vt.child_sub(ordering, ts, tb(cycle, tile))


class TestDomainVT:
    def test_bits_match_figure_10(self):
        assert DomainVT(U).bits == 32
        assert DomainVT(O32, 5).bits == 64
        assert DomainVT(O64, 5).bits == 96

    def test_unordered_cannot_carry_timestamp(self):
        with pytest.raises(VTError):
            DomainVT(U, 3)

    def test_key_orders_timestamp_before_tiebreaker(self):
        early = FractalVT.root(O32, 1, tb(100))
        late = FractalVT.root(O32, 2, tb(1))
        assert early.key < late.key


class TestFractalVTOrdering:
    def test_paper_figure_12_order(self):
        """B (45:2) < F (45:2 | 1,51:4) < G (45:2 | 2,71:5) < M (78:6 | ...)."""
        b = root(45, 2)
        f = sub(b, 51, 4, O64, ts=1)
        g = sub(b, 71, 5, O64, ts=2)
        m = sub(root(78, 6), 80, 0)
        assert b < f < g < m

    def test_creator_precedes_its_subdomain(self):
        creator = root(10)
        child = sub(creator, 11)
        assert creator < child
        assert child.key[:len(creator.key)] == creator.key

    def test_whole_subdomain_precedes_later_outside_task(self):
        creator = root(10)
        later = root(20)
        deep = sub(creator, 999)
        deeper = sub(deep, 10**6)
        assert creator < deep < deeper < later

    def test_same_domain_child_replaces_last(self):
        parent = sub(root(5), 6)
        child = parent.child_same(0, tb(9))
        assert child.depth == parent.depth
        assert child.key[:-2] == parent.key[:-2]
        assert parent < child

    def test_superdomain_child_drops_two(self):
        vt = sub(sub(root(1, ordering=O32, ts=4), 2), 3)
        child = vt.child_super(0, tb(9))
        assert child.depth == 2
        assert child.orderings == (O32, U)
        assert child.bits == 64 + 32

    def test_superdomain_from_root_fails(self):
        with pytest.raises(VTError):
            root(1).child_super(0, tb(2))

    def test_shares_domain_with(self):
        """Tasks of one domain share every key int above the final
        tiebreaker; a subdomain task's key is longer."""
        a = sub(root(1), 2)
        b = a.child_same(0, tb(3))
        c = sub(a, 4)
        assert len(a.key) == len(b.key) and a.key[:-1] == b.key[:-1]
        assert len(c.key) != len(a.key)

    def test_with_tiebreaker_replaces_only_the_final_one(self):
        vt = sub(root(3, ordering=O32, ts=7), 4)
        final = vt.with_tiebreaker(tb(9, 1))
        assert final.key[:-1] == vt.key[:-1]
        assert final.key[-1] == tb(9, 1)
        assert (final.orderings, final.bits) == (vt.orderings, vt.bits)


class TestBudget:
    def test_bits_accumulate(self):
        vt = sub(root(ordering=O64, ts=1))
        assert vt.bits == 96 + 32

    def test_budget_enforced(self):
        vt = sub(sub(sub(root())))  # 4 x 32 = 128 bits
        assert vt.check_budget(128) is vt
        with pytest.raises(VTBudgetExceeded):
            sub(vt).check_budget(128)

    def test_empty_vt_rejected(self):
        with pytest.raises(VTError):
            FractalVT((), (), 0)


class TestZoomShifts:
    def test_drop_base_preserves_relative_order(self):
        base = root(7)
        a = sub(sub(base, 10), 1)
        b = sub(sub(base, 10), 2)
        c = sub(base, 11)
        assert (a < b) == (a.drop_base() < b.drop_base())
        assert (a < c) == (a.drop_base() < c.drop_base())
        assert a.drop_base().bits == a.bits - 32

    def test_with_base_inverts_drop_base(self):
        # a zoom-out restores the base level with a zero tiebreaker
        vt = sub(FractalVT.root(O32, 7, 0), 10)
        back = vt.drop_base().with_base(vt.base)
        assert back == vt
        assert (back.orderings, back.bits) == (vt.orderings, vt.bits)

    def test_restored_zero_tiebreaker_sorts_before_real(self):
        inner = root(50).with_base(DomainVT(U))
        outer = root(78, 6)
        assert inner < outer

    def test_cannot_drop_only_domain(self):
        with pytest.raises(VTError):
            root().drop_base()


# --- property-based: lexicographic order is a strict total order ---------

_level = st.tuples(
    st.sampled_from([U, O32]),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=0, max_value=3),
).map(lambda t: (t[0], t[1] if t[0].is_ordered else 0, (t[2] << 8) | t[3]))


def _build(levels):
    vt = FractalVT.root(*levels[0])
    for level in levels[1:]:
        vt = vt.child_sub(*level)
    return vt


_vt_strategy = st.lists(_level, min_size=1, max_size=4).map(_build)


@given(_vt_strategy, _vt_strategy, _vt_strategy)
def test_total_order_properties(a, b, c):
    assert (a < b) or (b < a) or (a.key == b.key)
    if a < b and b < c:
        assert a < c
    assert not (a < a)


@given(_vt_strategy, _level)
def test_children_sort_after_parent(parent, level):
    assert parent < parent.child_sub(*level)


@given(_vt_strategy, _vt_strategy, _level)
def test_drop_base_monotone(a, b, level):
    """Dropping a shared base preserves strict order."""
    base = DomainVT(level[0], level[1])
    wa, wb = a.with_base(base), b.with_base(base)
    assert (wa < wb) == (a < b)
