"""Shared fixtures for speculative-memory tests: standalone owners and a
minimal context, so the memory subsystem is exercised without a simulator."""

import pytest

from repro.mem import AddressSpace, SpecMemory
from repro.mem.conflicts import PreciseConflictModel


class FakeOwner:
    """A stand-in task attempt with a fixed VT key."""

    def __init__(self, key, executing=False):
        self.order_key = key
        self.aborted = False
        self.children = []
        self.parent = None
        self.state = "running"
        self.executing = executing

    def still_executing(self):
        """FakeOwners act as instantaneous (already-finished) tasks unless
        created with ``executing=True`` to model an in-flight writer; the
        audit engine checks ``SpecMemory``'s in-flight index against this."""
        return self.executing

    def __repr__(self):
        return f"FakeOwner{self.order_key}"


def attach_fake(mem, key, executing=False):
    """Attach a FakeOwner; unless ``executing``, it finishes at once."""
    o = FakeOwner(key, executing)
    mem.attach_owner(o)
    if not executing:
        mem.finish(o)
    return o


class FakeCtx:
    """Minimal ctx for the typed data wrappers."""

    def __init__(self, mem, owner):
        self.mem = mem
        self.owner = owner

    def load(self, addr):
        return self.mem.load(self.owner, addr)

    def store(self, addr, value):
        self.mem.store(self.owner, addr, value)


class AbortRecorder:
    """An abort_cascade hook that rolls victims back and records them."""

    def __init__(self, mem):
        self.mem = mem
        self.aborted = []

    def __call__(self, victims, reason):
        cascade = []
        stack = list(victims)
        seen = set()
        while stack:
            v = stack.pop()
            if id(v) in seen:
                continue
            seen.add(id(v))
            cascade.append(v)
            stack.extend(getattr(v, "dependents", ()))
        for v in sorted(cascade, key=lambda o: o.order_key, reverse=True):
            v.aborted = True
            self.mem.rollback(v)
            self.aborted.append(v)


@pytest.fixture
def space():
    return AddressSpace(line_bytes=64, n_tiles=4)


@pytest.fixture(params=["fast", "scalar", "audit"])
def mem(request, space):
    """Every memory test runs under all three probe engines: the scalar
    reference, the memoized fast path, and the self-checking audit engine
    (which raises on any fast/scalar divergence as the test executes)."""
    m = SpecMemory(space, PreciseConflictModel(), engine=request.param)
    m.abort_cascade = AbortRecorder(m)
    return m


@pytest.fixture
def owner_factory(mem):
    def make(key):
        return attach_fake(mem, (key,))
    return make
