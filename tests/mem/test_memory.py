"""Tests for versioned speculative memory: forwarding, conflicts, rollback,
commit (paper Sec. 4.1)."""

import pytest

from repro.errors import MemoryError_, SimulationError
from repro.mem import AddressSpace, SpecMemory
from repro.mem.conflicts import PreciseConflictModel

from .conftest import committed_snapshot


class TestBasicVersioning:
    def test_store_then_load_same_owner(self, mem, owner_factory):
        t = owner_factory(1)
        mem.store(t, 100, "v")
        assert mem.load(t, 100) == "v"

    def test_commit_makes_writes_permanent(self, mem, owner_factory):
        t = owner_factory(1)
        mem.store(t, 100, 7)
        mem.commit(t)
        assert mem.peek(100) == 7
        mem.assert_quiescent()

    def test_rollback_restores_preimage(self, mem, owner_factory):
        mem.poke(100, "old")
        t = owner_factory(1)
        mem.store(t, 100, "new")
        mem.rollback(t)
        assert mem.peek(100) == "old"
        mem.assert_quiescent()

    def test_rollback_restores_multiple_in_reverse(self, mem, owner_factory):
        for a in (1, 2, 3):
            mem.poke(a * 100, a)
        t = owner_factory(1)
        mem.store(t, 100, "x")
        mem.store(t, 200, "y")
        mem.store(t, 100, "z")  # second write to the same word
        mem.rollback(t)
        assert mem.peek(100) == 1 and mem.peek(200) == 2

    def test_default_value_for_untouched(self, mem, owner_factory):
        t = owner_factory(1)
        assert mem.load(t, 9999) == 0

    def test_poke_guards_speculative_words(self, mem, owner_factory):
        t = owner_factory(1)
        mem.store(t, 50, 1)
        with pytest.raises(MemoryError_):
            mem.poke(50, 2)


class TestForwardingAndDependences:
    def test_later_reads_earlier_speculative_write(self, mem, owner_factory):
        early, late = owner_factory(1), owner_factory(2)
        mem.store(early, 100, "spec")
        assert mem.load(late, 100) == "spec"
        assert early in late.deps
        assert late in early.dependents

    def test_abort_of_writer_cascades_to_reader(self, mem, owner_factory):
        early, late = owner_factory(1), owner_factory(2)
        mem.store(early, 100, "spec")
        mem.load(late, 100)
        mem.abort_cascade([early], "test")
        assert late.aborted
        assert mem.peek(100) == 0

    def test_waw_dependence_recorded(self, mem, owner_factory):
        early, late = owner_factory(1), owner_factory(2)
        mem.store(early, 100, 1)
        mem.store(late, 100, 2)
        assert early in late.deps

    def test_waw_rollback_chain(self, mem, owner_factory):
        mem.poke(100, "base")
        early, late = owner_factory(1), owner_factory(2)
        mem.store(early, 100, "e")
        mem.store(late, 100, "l")
        mem.abort_cascade([early], "test")  # cascades to late first
        assert mem.peek(100) == "base"


class TestEagerConflicts:
    def test_earlier_write_aborts_later_reader(self, mem, owner_factory):
        late = owner_factory(2)
        mem.load(late, 100)
        early = owner_factory(1)
        mem.store(early, 100, "w")
        assert late.aborted
        assert not early.aborted

    def test_earlier_write_aborts_later_writer(self, mem, owner_factory):
        late = owner_factory(2)
        mem.store(late, 100, "l")
        early = owner_factory(1)
        mem.store(early, 100, "e")
        assert late.aborted
        assert mem.peek(100) == "e"

    def test_earlier_read_aborts_later_writer(self, mem, owner_factory):
        """An earlier task must not see a later task's speculative write."""
        mem.poke(100, "base")
        late = owner_factory(2)
        mem.store(late, 100, "doomed")
        early = owner_factory(1)
        assert mem.load(early, 100) == "base"
        assert late.aborted

    def test_reads_never_conflict_with_reads(self, mem, owner_factory):
        a, b = owner_factory(1), owner_factory(2)
        mem.load(a, 100)
        mem.load(b, 100)
        assert not a.aborted and not b.aborted

    def test_line_granularity_false_sharing(self, mem, owner_factory):
        """Distinct words on one 8-word line still conflict (real HW)."""
        late = owner_factory(2)
        mem.load(late, 1601)  # line 200
        early = owner_factory(1)
        mem.store(early, 1606, "w")  # same line, different word
        assert late.aborted

    def test_different_lines_no_conflict(self, mem, owner_factory):
        late = owner_factory(2)
        mem.load(late, 1601)
        early = owner_factory(1)
        mem.store(early, 1609, "w")  # next line
        assert not late.aborted

    def test_own_accesses_never_self_conflict(self, mem, owner_factory):
        t = owner_factory(1)
        mem.store(t, 100, 1)
        mem.load(t, 100)
        mem.store(t, 100, 2)
        assert not t.aborted


class TestCommitOrderInvariants:
    def test_commit_requires_chain_head(self, mem, owner_factory):
        early, late = owner_factory(1), owner_factory(2)
        mem.store(early, 100, 1)
        mem.store(late, 100, 2)
        with pytest.raises(SimulationError):
            mem.commit(late)

    def test_commits_in_order_keep_final_value(self, mem, owner_factory):
        early, late = owner_factory(1), owner_factory(2)
        mem.store(early, 100, 1)
        mem.store(late, 100, 2)
        mem.commit(early)
        mem.commit(late)
        assert mem.peek(100) == 2
        mem.assert_quiescent()

    def test_committed_snapshot_hides_speculative(self, mem, owner_factory):
        mem.poke(100, "committed")
        t = owner_factory(1)
        mem.store(t, 100, "spec")
        snap = committed_snapshot(mem)
        assert snap[100] == "committed"
        assert mem.peek(100) == "spec"

    def test_quiescence_check_detects_leftovers(self, mem, owner_factory):
        t = owner_factory(1)
        mem.store(t, 100, 1)
        with pytest.raises(SimulationError):
            mem.assert_quiescent()


class TestAuditRecords:
    def test_reads_record_first_value_only(self, mem, owner_factory):
        mem.poke(100, "first")
        t = owner_factory(1)
        mem.load(t, 100)
        mem.store(t, 100, "mine")
        mem.load(t, 100)
        assert t.reads == {100: "first"}
        assert t.writes == {100: "mine"}

    def test_read_after_own_write_not_recorded(self, mem, owner_factory):
        t = owner_factory(1)
        mem.store(t, 100, "mine")
        mem.load(t, 100)
        assert 100 not in t.reads

    def test_no_records_when_values_are_not_recorded(self, mem,
                                                      owner_factory):
        mem.record_values = False
        mem.poke(100, "first")
        t = owner_factory(1)
        assert mem.load(t, 100) == "first"
        mem.store(t, 100, "mine")
        assert t.reads is None and t.writes is None
        mem.commit(t)
        assert mem.peek(100) == "mine"
        mem.assert_quiescent()
