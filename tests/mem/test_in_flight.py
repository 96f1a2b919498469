"""The in-flight writer index behind premature-access aborts.

An owner is in flight from ``attach_owner`` until ``finish`` (or until a
rollback or commit scrubs it). A later task that touches a line an earlier
in-flight owner wrote aborts, with ``retry_after`` set to when that
writer's stores land. The lockstep property test checks the index against
the chain walk in :mod:`tests.mem.inflight_oracle`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.mem import AddressSpace, SpecMemory
from repro.mem.conflicts import PreciseConflictModel

from .conftest import AbortRecorder, FakeOwner, attach_fake
from .inflight_oracle import ChainWalkMemory

ENGINES = ("fast", "scalar", "audit")


def make_mem(engine, cls=SpecMemory):
    m = cls(AddressSpace(line_bytes=64, n_tiles=4), PreciseConflictModel(),
            engine=engine)
    m.abort_cascade = AbortRecorder(m)
    return m


def in_flight(mem, key, dispatch_time=0, duration=0):
    o = attach_fake(mem, (key,), executing=True)
    o.dispatch_time = dispatch_time
    o.duration = duration
    o.retry_after = 0
    return o


@pytest.mark.parametrize("engine", ENGINES)
class TestInFlightIndex:
    def test_access_under_earlier_in_flight_writer_aborts(self, engine):
        mem = make_mem(engine)
        w = in_flight(mem, 1, dispatch_time=10, duration=5)
        mem.store(w, 0, 7)
        r = in_flight(mem, 2)
        assert mem.load(r, 1) == mem.default  # same line, other word
        assert r.aborted and not w.aborted
        assert r.retry_after == 15
        assert mem.abort_cascade.aborted == [r]

    def test_finished_writer_forwards(self, engine):
        mem = make_mem(engine)
        w = in_flight(mem, 1)
        mem.store(w, 0, 7)
        mem.finish(w)
        w.executing = False
        r = in_flight(mem, 2)
        assert mem.load(r, 0) == 7
        assert not r.aborted
        assert w in r.deps

    def test_later_in_flight_writer_does_not_block(self, engine):
        mem = make_mem(engine)
        late = in_flight(mem, 5)
        mem.store(late, 0, 1)
        early = in_flight(mem, 1)
        mem.load(early, 0)
        assert late.aborted and not early.aborted

    def test_only_the_in_flight_writer_of_a_chain_blocks(self, engine):
        mem = make_mem(engine)
        done = attach_fake(mem, (1,))        # finished at once
        mem.store(done, 0, 1)
        w = in_flight(mem, 2, dispatch_time=3, duration=40)
        mem.store(w, 1, 1)
        assert not w.aborted
        assert mem._line_in_flight == {0: [w]}
        r = in_flight(mem, 3)
        mem.store(r, 2, 1)
        assert r.aborted and r.retry_after == 43

    def test_rollback_leaves_the_index(self, engine):
        mem = make_mem(engine)
        w = in_flight(mem, 1)
        mem.store(w, 0, 1)
        mem.abort_cascade([w], "test")
        assert mem._line_in_flight == {} and mem._in_flight == {}
        r = in_flight(mem, 2)
        mem.load(r, 0)
        assert not r.aborted

    def test_finish_is_idempotent_and_commit_clears(self, engine):
        mem = make_mem(engine)
        w = in_flight(mem, 1)
        mem.store(w, 0, 1)
        mem.finish(w)
        mem.finish(w)
        w.executing = False
        mem.commit(w)
        assert mem._line_in_flight == {} and mem._in_flight == {}
        mem.assert_quiescent()


def test_audit_engine_catches_a_stale_index():
    """An owner that stopped executing without ``finish`` still sits in
    the index; the audit engine's oracle check must say so."""
    mem = make_mem("audit")
    w = in_flight(mem, 1)
    mem.store(w, 0, 1)
    w.executing = False                      # no mem.finish(w)
    r = in_flight(mem, 2)
    with pytest.raises(SimulationError, match="in-flight index"):
        mem.load(r, 0)


# ---------------------------------------------------------------------------
# lockstep against the chain-walk oracle
# ---------------------------------------------------------------------------
OPS = st.lists(
    st.tuples(st.sampled_from(["load", "store", "finish", "abort"]),
              st.integers(0, 3),            # owner slot = VT order
              st.integers(0, 15),           # word address (2 lines of 8)
              st.integers(0, 7)),           # value / duration
    min_size=1, max_size=60)


class _Replay:
    """Replays one op sequence; records victims, retry times and the
    aggressor of every conflict."""

    def __init__(self, engine, cls):
        self.mem = make_mem(engine, cls)
        self.trace = []
        inner = self.mem.abort_cascade

        def record(victims, reason):
            self.trace.append(("abort", [v.order_key for v in victims],
                               reason))
            inner(victims, reason)

        self.mem.abort_cascade = record
        self.mem.bus = self
        self.attempts = {}

    def emit(self, ev):
        self.trace.append(("conflict", ev.cause, ev.line, ev.tid,
                           ev.victims))

    def apply(self, ops):
        mem = self.mem
        for step, (op, slot, addr, value) in enumerate(ops):
            o = self.attempts.get(slot)
            if o is None or o.aborted:
                # the slot's next attempt starts (in flight) on its op
                o = FakeOwner((slot,), executing=True)
                o.tid, o.dispatch_time, o.duration = slot, step, value
                o.retry_after = 0
                mem.attach_owner(o)
                self.attempts[slot] = o
            if op == "abort":
                mem.abort_cascade([o], "test abort")
            elif not o.executing:
                continue                     # finished: no more accesses
            elif op == "finish":
                mem.finish(o)
                o.executing = False
            elif op == "load":
                got = mem.load(o, addr)
                self.trace.append(("load", slot, addr, got, o.aborted,
                                   o.retry_after))
            else:
                mem.store(o, addr, value)
                self.trace.append(("store", slot, addr, o.aborted,
                                   o.retry_after))
        for slot in sorted(self.attempts):   # survivors commit in VT order
            o = self.attempts[slot]
            if not o.aborted:
                mem.finish(o)
                o.executing = False
                mem.commit(o)
        mem.assert_quiescent()
        assert mem._in_flight == {} and mem._line_in_flight == {}

    def observable(self):
        m = self.mem
        return (self.trace, dict(m._values), m.n_true_conflicts)


@settings(max_examples=200, deadline=None)
@given(ops=OPS)
def test_index_matches_chain_walk_oracle(ops):
    """Under every engine, the in-flight index picks the same victims,
    retry times and aggressors as the chain walk over
    ``still_executing()``; the audit engine also checks the index inline
    at every probe."""
    ref = _Replay("scalar", ChainWalkMemory)
    ref.apply(ops)
    for engine in ENGINES:
        d = _Replay(engine, SpecMemory)
        d.apply(ops)
        assert d.observable() == ref.observable(), engine
