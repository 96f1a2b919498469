"""Memory-layer bug regressions, and the lockstep property test of
production ``SpecMemory`` against the chain-walk oracles.

Each regression test here fails on the pre-fix code:

- victim enumeration order over a line's reader population (was a set:
  abort order depended on object addresses),
- H3 ``indices()`` memo poisoning (was the cached list itself) and the
  unbounded key memo,
- ``poke()`` accepting lines under live readers / other-word writers,
- ``_scrub()`` swallowing corruption (``ValueError`` → silent pass).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MemoryError_, SimulationError
from repro.mem.bloom import H3HashFamily
from repro.mem import bloom as bloom_mod

from .conftest import attach_fake, make_mem


def attach(mem, key):
    return attach_fake(mem, key if isinstance(key, tuple) else (key,))


# ---------------------------------------------------------------------------
# satellite 1: victim enumeration order over the reader population
# ---------------------------------------------------------------------------
class TestVictimOrder:
    @pytest.mark.parametrize("kind", ["fast", "scalar"])
    def test_store_victims_follow_registration_order(self, kind):
        """A store that kills several readers of its line must list the
        victims in reader-registration order — with the old set-backed
        reader index the order depended on object addresses (ConflictEvent
        victim lists differed between runs of the same seed)."""
        mem = make_mem(kind)
        seen = []
        inner = mem.abort_cascade

        def record(victims, reason):
            seen.append(list(victims))
            inner(victims, reason)

        mem.abort_cascade = record
        # register readers in an order distinct from VT order
        keys = [5, 3, 9, 7, 4]
        readers = [attach(mem, k) for k in keys]
        for r in readers:
            mem.load(r, 0)
        writer = attach(mem, 1)
        mem.store(writer, 0, 42)
        assert len(seen) == 1
        assert seen[0] == readers  # registration order, not key/id order
        assert all(r.aborted for r in readers)

    @pytest.mark.parametrize("kind", ["fast", "scalar"])
    def test_store_victims_dedupe_reader_writers(self, kind):
        """An owner that both read and wrote the line is one victim, with
        its reader-position rank."""
        mem = make_mem(kind)
        seen = []
        inner = mem.abort_cascade

        def record(victims, reason):
            seen.append(list(victims))
            inner(victims, reason)

        mem.abort_cascade = record
        both = attach(mem, 6)
        mem.load(both, 0)
        mem.store(both, 1, 7)    # same line (64B line = 8 words)
        late = attach(mem, 8)
        mem.load(late, 0)
        writer = attach(mem, 2)
        mem.store(writer, 2, 9)
        assert seen and seen[-1] == [both, late]


# ---------------------------------------------------------------------------
# satellite 2: H3 memo immutability and boundedness
# ---------------------------------------------------------------------------
class TestH3Memo:
    def test_indices_returns_immutable_tuple(self):
        fam = H3HashFamily(k=8, m_bits=2048, seed=3)
        idx = fam.indices(1234)
        assert isinstance(idx, tuple)
        with pytest.raises(TypeError):
            idx[0] = 0  # the old list return could be corrupted in place

    def test_mutated_return_cannot_poison_probes(self):
        fam = H3HashFamily(k=8, m_bits=2048, seed=3)
        first = list(fam.indices(77))
        # even a caller copying-and-mutating shares nothing with the memo
        got = fam.indices(77)
        assert list(got) == first
        assert fam.indices(77) is got  # memoized

    def test_key_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(bloom_mod, "_MAX_CACHED_KEYS", 8)
        fam = H3HashFamily(k=4, m_bits=512, seed=0)
        expect = {k: fam.indices(k) for k in range(20)}
        assert len(fam._key_cache) <= 8
        # resets never change answers
        for k, v in expect.items():
            assert fam.indices(k) == v
        assert len(fam._key_cache) <= 8


# ---------------------------------------------------------------------------
# satellite 3: poke() line-granular rejection + poke_fresh slot birth
# ---------------------------------------------------------------------------
class TestPokeGuards:
    def test_poke_rejects_line_readers(self):
        mem = make_mem("fast")
        r = attach(mem, 1)
        mem.load(r, 0)
        with pytest.raises(MemoryError_, match="live speculative readers"):
            mem.poke(1, 5)  # different word, same line as the read

    def test_poke_rejects_line_writers_on_other_words(self):
        mem = make_mem("fast")
        w = attach(mem, 1)
        mem.store(w, 0, 9)
        with pytest.raises(MemoryError_, match="other words"):
            mem.poke(1, 5)  # word 1 is clean but line 0 has a live writer

    def test_poke_rejects_word_writers(self):
        mem = make_mem("fast")
        w = attach(mem, 1)
        mem.store(w, 0, 9)
        with pytest.raises(MemoryError_, match="speculative writers"):
            mem.poke(0, 5)

    def test_poke_fresh_allows_birth_on_live_line(self):
        mem = make_mem("fast")
        w = attach(mem, 1)
        mem.store(w, 0, 9)
        mem.poke_fresh(1, 5)  # same line, never-touched word: legal
        assert mem.peek(1) == 5

    def test_poke_fresh_rejects_existing_values(self):
        mem = make_mem("fast")
        mem.poke(3, 1)
        with pytest.raises(MemoryError_, match="already holds a value"):
            mem.poke_fresh(3, 2)


# ---------------------------------------------------------------------------
# satellite 4: strict scrub
# ---------------------------------------------------------------------------
class TestStrictScrub:
    @pytest.mark.parametrize("kind", ["fast", "scalar"])
    def test_corrupted_reader_index_raises(self, kind):
        mem = make_mem(kind)
        o = attach(mem, 1)
        mem.load(o, 0)
        del mem._line_readers[0][o]  # simulate corrupted bookkeeping
        with pytest.raises(SimulationError, match="reader index"):
            mem.commit(o)

    @pytest.mark.parametrize("kind", ["fast", "scalar"])
    def test_corrupted_writer_chain_raises(self, kind):
        mem = make_mem(kind)
        o = attach(mem, 1)
        mem.store(o, 0, 1)
        mem._line_writers[0].remove(o)
        with pytest.raises(SimulationError, match="writer chain"):
            mem.commit(o)


# ---------------------------------------------------------------------------
# the checked memory stays silent on a clean run
# ---------------------------------------------------------------------------
class TestAuditEngine:
    def test_audit_clean_run_is_silent(self):
        mem = make_mem("audit")
        o = attach(mem, 1)
        for _ in range(4):
            mem.load(o, 0)
            mem.store(o, 0, 1)
        mem.commit(o)
        mem.assert_quiescent()


# ---------------------------------------------------------------------------
# satellite 5: lockstep property test against the oracles
# ---------------------------------------------------------------------------
OPS = st.lists(
    st.tuples(st.integers(0, 5),            # owner slot
              st.booleans(),                # is_write
              st.integers(0, 39),           # word address (5 lines of 8)
              st.integers(0, 7)),           # value
    min_size=1, max_size=60)


class _Driver:
    """Drives one SpecMemory instance and records everything observable."""

    def __init__(self, kind, n_owners):
        self.mem = make_mem(kind)
        self.trace = []
        inner = self.mem.abort_cascade

        def record(victims, reason):
            self.trace.append(("abort", [v.order_key for v in victims], reason))
            inner(victims, reason)

        self.mem.abort_cascade = record
        # interleaved VTs so later slots are later tasks
        self.owners = [attach(self.mem, i) for i in range(n_owners)]

    def apply(self, ops):
        for slot, is_write, addr, value in ops:
            o = self.owners[slot]
            if o.aborted:
                self.trace.append(("skip", slot))
                continue
            if is_write:
                self.mem.store(o, addr, value)
                self.trace.append(("store", slot, addr, value, o.aborted))
            else:
                got = self.mem.load(o, addr)
                self.trace.append(("load", slot, addr, got, o.aborted))
        for o in self.owners:                # commit survivors in VT order
            if not o.aborted:
                self.mem.commit(o)
        self.mem.assert_quiescent()

    def observable(self):
        m = self.mem
        return (self.trace, dict(m._values),
                [(o.order_key, o.aborted, sorted(o.reads.items()),
                  sorted(o.writes.items())) for o in self.owners],
                (m.n_loads, m.n_stores, m.n_true_conflicts,
                 m.n_injected_conflicts))


class TestLockstepProperty:
    @settings(max_examples=120, deadline=None)
    @given(ops=OPS)
    def test_scalar_fast_audit_agree(self, ops):
        """Identical op sequences through production ``SpecMemory`` and
        both oracles produce identical values, victim cascades (order
        included), final memory, read/write records, and RunStats-grade
        counters. The checked memory also cross-checks its in-flight
        index inline."""
        drivers = [_Driver(kind, 6) for kind in ("scalar", "fast", "audit")]
        for d in drivers:
            d.apply(ops)
        ref = drivers[0].observable()
        assert drivers[1].observable() == ref
        assert drivers[2].observable() == ref
