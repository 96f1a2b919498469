"""The flat fractal-VT key orders every VT exactly like the nested one.

Random derivation sequences (roots; same-, sub- and superdomain children;
dispatch finalization; requeue lower bounds; zoom-in ``drop_base`` and
zoom-out ``with_base``; tiebreaker compaction), with small values so that
timestamps and tiebreakers collide and zero tiebreakers are common, build
a pool of VTs twice: as :class:`FractalVT` and through the nested-key
oracle. Every pair must then compare the same way, under the plain key,
the stripped transform, and (same depth only) the stripped prefix the
frontier heaps sort by.
"""

from hypothesis import given, settings, strategies as st

from repro.vt import DomainVT, FractalVT, Ordering, TiebreakerAllocator

from . import nested_oracle as nested

_ORDERINGS = [Ordering.UNORDERED, Ordering.ORDERED_32, Ordering.ORDERED_64]
_ALLOC = TiebreakerAllocator(width=4, tile_bits=1)  # half range: 8
_OPS = ("same", "sub", "super", "tiebreaker", "drop_base", "with_base",
        "compact")


def _cmp(a, b):
    return (a > b) - (a < b)


def _ts(draw, ordering):
    if not ordering.is_ordered:
        return 0
    return draw(st.integers(0, 3))


def _derive(draw, vt, key):
    """One random derivation of ``vt``; None when it does not apply."""
    op = draw(st.sampled_from(_OPS))
    tb = draw(st.integers(0, 15))
    if op == "same":
        ts = _ts(draw, vt.orderings[-1])
        return vt.child_same(ts, tb), nested.child_same(key, ts, tb)
    if op == "sub":
        ordering = draw(st.sampled_from(_ORDERINGS))
        ts = _ts(draw, ordering)
        return (vt.child_sub(ordering, ts, tb),
                nested.child_sub(key, ts, tb))
    if op == "super":
        if vt.depth < 2:
            return None
        ts = _ts(draw, vt.orderings[-2])
        return vt.child_super(ts, tb), nested.child_super(key, ts, tb)
    if op == "tiebreaker":
        return vt.with_tiebreaker(tb), nested.with_tiebreaker(key, tb)
    if op == "drop_base":
        if vt.depth < 2:
            return None
        return vt.drop_base(), nested.drop_base(key)
    if op == "with_base":
        ordering = draw(st.sampled_from(_ORDERINGS))
        ts = _ts(draw, ordering)
        return (vt.with_base(DomainVT(ordering, ts)),
                nested.with_base(key, ts))
    return vt.compacted(_ALLOC), nested.compacted(key, _ALLOC)


@st.composite
def _pools(draw):
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        ordering = draw(st.sampled_from(_ORDERINGS))
        ts, tb = _ts(draw, ordering), draw(st.integers(0, 15))
        pool.append((FractalVT.root(ordering, ts, tb), nested.root(ts, tb)))
    for _ in range(draw(st.integers(0, 14))):
        vt, key = pool[draw(st.integers(0, len(pool) - 1))]
        derived = _derive(draw, vt, key)
        if derived is not None:
            pool.append(derived)
    return pool


@given(_pools(), st.integers(0, 15))
@settings(max_examples=300, deadline=None)
def test_flat_order_matches_nested_order(pool, now_lb):
    for vt, key in pool:
        assert vt.key == nested.flatten(key)
        assert vt.depth == len(key) == len(vt.orderings)
        assert vt.bits == sum(DomainVT(o).bits for o in vt.orderings)
        assert vt.final_tiebreaker_saturated() == (key[-1][1] == 0)
    for vt_a, key_a in pool:
        for vt_b, key_b in pool:
            assert _cmp(vt_a.key, vt_b.key) == _cmp(key_a, key_b)
            assert (vt_a == vt_b) == (key_a == key_b)
            flat_a = vt_a.key[:-1] + (now_lb,)
            flat_b = vt_b.key[:-1] + (now_lb,)
            assert (_cmp(flat_a, flat_b)
                    == _cmp(nested.stripped(key_a, now_lb),
                            nested.stripped(key_b, now_lb)))
            if len(key_a) == len(key_b):
                assert (_cmp(vt_a.key[:-1], vt_b.key[:-1])
                        == _cmp(nested.stripped_prefix(key_a),
                                nested.stripped_prefix(key_b)))
