"""Model-based property tests: SpecDict and SpecQueue against plain
Python dict/deque models (serial, no speculation)."""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem import AddressSpace, SpecDict, SpecMemory, SpecQueue
from repro.mem.conflicts import PreciseConflictModel

from .conftest import FakeCtx, attach_fake

_keys = st.sampled_from(["a", "b", "c", "d", "e"])
_dict_ops = st.lists(st.one_of(
    st.tuples(st.just("put"), _keys, st.integers(0, 99)),
    st.tuples(st.just("get"), _keys, st.none()),
    st.tuples(st.just("delete"), _keys, st.none()),
    st.tuples(st.just("put_if_absent"), _keys, st.integers(0, 99)),
), max_size=40)


def fresh_ctx():
    space = AddressSpace(64, 1)
    mem = SpecMemory(space, PreciseConflictModel())
    owner = attach_fake(mem, (1,))
    return mem, FakeCtx(mem, owner), space


@given(ops=_dict_ops)
@settings(max_examples=60, deadline=None)
def test_spec_dict_matches_dict(ops):
    mem, ctx, space = fresh_ctx()
    d = SpecDict(mem, space.alloc("d", 8), capacity=8)
    model = {}
    for op, key, value in ops:
        if op == "put":
            d.put(ctx, key, value)
            model[key] = value
        elif op == "get":
            assert d.get(ctx, key) == model.get(key)
        elif op == "delete":
            assert d.delete(ctx, key) == (key in model)
            model.pop(key, None)
        else:
            inserted = d.put_if_absent(ctx, key, value)
            assert inserted == (key not in model)
            if inserted:
                model[key] = value
    assert dict(d.items_nonspec()) == model


_queue_ops = st.lists(st.one_of(
    st.tuples(st.just("push"), st.integers(0, 99)),
    st.tuples(st.just("pop"), st.none()),
), max_size=40)


@given(ops=_queue_ops)
@settings(max_examples=60, deadline=None)
def test_spec_queue_matches_deque(ops):
    mem, ctx, space = fresh_ctx()
    q = SpecQueue(mem, space.alloc("q", 66), capacity=64)
    model = deque()
    for op, value in ops:
        if op == "push":
            q.push(ctx, value)
            model.append(value)
        else:
            got = q.pop(ctx, default=None)
            want = model.popleft() if model else None
            assert got == want
    assert q.size(ctx) == len(model)
