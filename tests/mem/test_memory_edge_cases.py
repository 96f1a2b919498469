"""Edge-case tests for versioned memory: chains, snapshots, undo order."""

import pytest

from repro.errors import SimulationError
from repro.mem.undo_log import UndoLog

from .conftest import committed_snapshot


class TestUndoLog:
    def test_first_preimage_wins(self):
        log = UndoLog()
        log.record(1, "original")
        log.record(1, "should be ignored")
        assert list(log.reversed_entries()) == [(1, "original")]

    def test_reverse_order(self):
        log = UndoLog()
        for i in range(4):
            log.record(i, i * 10)
        assert [a for a, _ in log.reversed_entries()] == [3, 2, 1, 0]

    def test_contains_and_len(self):
        log = UndoLog()
        log.record(5, None)
        assert 5 in log and 6 not in log
        assert len(log) == 1

    def test_clear(self):
        log = UndoLog()
        log.record(1, 2)
        log.clear()
        assert len(log) == 0


class TestWriterChains:
    def test_three_writer_chain_rollback_middle_cascades(self, mem,
                                                         owner_factory):
        mem.poke(100, "base")
        t1, t2, t3 = owner_factory(1), owner_factory(2), owner_factory(3)
        mem.store(t1, 100, "a")
        mem.store(t2, 100, "b")
        mem.store(t3, 100, "c")
        # aborting t2 must cascade to t3 (WAW dependence), leaving t1's
        mem.abort_cascade([t2], "test")
        assert mem.peek(100) == "a"
        assert t3.aborted and not t1.aborted

    def test_committed_snapshot_with_chain(self, mem, owner_factory):
        mem.poke(100, "base")
        t1, t2 = owner_factory(1), owner_factory(2)
        mem.store(t1, 100, "a")
        mem.store(t2, 100, "b")
        assert committed_snapshot(mem)[100] == "base"
        mem.commit(t1)
        assert committed_snapshot(mem)[100] == "a"
        mem.commit(t2)
        assert committed_snapshot(mem)[100] == "b"

    def test_interleaved_addresses_rollback(self, mem, owner_factory):
        for a in (0, 8, 16):
            mem.poke(a, f"base{a}")
        t = owner_factory(1)
        mem.store(t, 0, "x")
        mem.store(t, 16, "y")
        mem.store(t, 0, "z")
        mem.rollback(t)
        assert mem.peek(0) == "base0"
        assert mem.peek(16) == "base16"
        mem.assert_quiescent()

    def test_rollback_of_nontail_rejected(self, mem, owner_factory):
        t1, t2 = owner_factory(1), owner_factory(2)
        mem.store(t1, 100, "a")
        mem.store(t2, 100, "b")
        with pytest.raises(SimulationError):
            mem.rollback(t1)   # t2 is the tail; cascade order violated

    def test_reader_dependence_cleared_on_commit(self, mem, owner_factory):
        t1, t2 = owner_factory(1), owner_factory(2)
        mem.store(t1, 100, "v")
        mem.load(t2, 100)
        mem.commit(t1)
        assert t1 not in t2.deps
        # t2 no longer cascades from anything
        mem.commit(t2)
        mem.assert_quiescent()

    def test_counters(self, mem, owner_factory):
        t = owner_factory(1)
        mem.load(t, 0)
        mem.store(t, 0, 1)
        assert mem.n_loads == 1 and mem.n_stores == 1
