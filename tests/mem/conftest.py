"""Shared fixtures for speculative-memory tests: standalone owners and a
minimal context, so the memory subsystem is exercised without a simulator."""

import pytest

from repro.mem import AddressSpace, SpecMemory
from repro.mem.conflicts import PreciseConflictModel

from .inflight_oracle import ChainWalkMemory, CheckedMemory

#: The memories the tests run under, by test id: production ``SpecMemory``
#: ("fast": premature accesses found in its in-flight index), the
#: ``ChainWalkMemory`` oracle ("scalar": found by walking the chain over
#: each writer's ``still_executing()``), and ``CheckedMemory`` ("audit":
#: production, with the index checked against that walk at every probe).
MEMORIES = {"fast": SpecMemory, "scalar": ChainWalkMemory,
            "audit": CheckedMemory}


class FakeOwner:
    """A stand-in task attempt with a fixed VT key."""

    def __init__(self, key, executing=False):
        self.order_key = key
        self.aborted = False
        self.children = []
        self.parent = None
        self.state = "running"
        self.executing = executing
        # timing fields of the owner protocol: an in-flight FakeOwner's
        # stores land at cycle 0 unless a test says otherwise
        self.dispatch_time = self.duration = self.retry_after = 0

    def still_executing(self):
        """FakeOwners act as instantaneous (already-finished) tasks unless
        created with ``executing=True`` to model an in-flight writer; the
        chain-walk oracles read this."""
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


def committed_snapshot(mem):
    """Memory contents with all live speculative writes undone: each
    written word takes its first chained writer's undo-log preimage."""
    snap = dict(mem._values)
    for addr, chain in mem._word_writers.items():
        if chain:
            snap[addr] = chain[0].undo._entries.get(addr, mem.default)
    return snap


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


def make_mem(kind="fast", space=None):
    """A standalone memory of one of :data:`MEMORIES`, precise conflicts,
    aborts handled by an :class:`AbortRecorder`."""
    m = MEMORIES[kind](space or AddressSpace(line_bytes=64, n_tiles=4),
                       PreciseConflictModel())
    m.abort_cascade = AbortRecorder(m)
    return m


@pytest.fixture(params=list(MEMORIES))
def mem(request, space):
    """Every memory test runs under production ``SpecMemory`` and both
    oracles (see :data:`MEMORIES`)."""
    return make_mem(request.param, space)


@pytest.fixture
def owner_factory(mem):
    def make(key):
        return attach_fake(mem, (key,))
    return make
