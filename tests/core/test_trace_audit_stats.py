"""Tests for timelines, the auditor, and run statistics."""

import pytest

from repro import Simulator, SystemConfig
from repro.core.audit import audit_serializability
from repro.core.stats import CycleBreakdown, RunStats
from repro.errors import SerializabilityViolation
from repro.telemetry.events import AbortEvent, CommitEvent
from repro.telemetry.timeline import render_timeline


class _Committed:
    def __init__(self, seq, reads=None, writes=None):
        self.commit_seq = seq
        self.reads = reads or {}
        self.writes = writes or {}

    def __repr__(self):
        return f"<committed #{self.commit_seq}>"


class TestAuditor:
    def test_accepts_consistent_history(self):
        log = [
            _Committed(0, reads={1: 0}, writes={1: 10}),
            _Committed(1, reads={1: 10}, writes={1: 20}),
        ]
        assert audit_serializability({}, log, {1: 20}) == 2

    def test_rejects_stale_read(self):
        log = [
            _Committed(0, writes={1: 10}),
            _Committed(1, reads={1: 0}),  # should have seen 10
        ]
        with pytest.raises(SerializabilityViolation):
            audit_serializability({}, log, {1: 10})

    def test_rejects_wrong_final_memory(self):
        log = [_Committed(0, writes={1: 10})]
        with pytest.raises(SerializabilityViolation):
            audit_serializability({}, log, {1: 99})

    def test_respects_initial_snapshot(self):
        log = [_Committed(0, reads={5: "init"})]
        assert audit_serializability({5: "init"}, log, {5: "init"}) == 1

    def test_orders_by_commit_seq(self):
        log = [
            _Committed(1, reads={1: 10}),
            _Committed(0, writes={1: 10}),
        ]
        assert audit_serializability({}, log, {1: 10}) == 2

    def test_end_to_end_audit_on_real_run(self):
        sim = Simulator(SystemConfig.with_cores(8))
        cell = sim.cell("c", 0)
        for _ in range(20):
            sim.enqueue_root(lambda ctx: cell.add(ctx, 1))
        sim.run()
        sim.audit()


def _commit(core, start, end, label):
    return CommitEvent(end, 0, label, core=core, start=start,
                       duration=end - start, depth=0)


class TestTrace:
    def test_records_segments(self):
        events = [_commit(0, 10, 20, "work"),
                  _commit(0, 10, 10, "empty")]  # zero-length dropped
        out = render_timeline(events, n_cores=1, width=10)
        assert out.splitlines()[1] == "Core 0   |" + "w" * 10 + "|"

    def test_render_shows_rows_per_core(self):
        events = [_commit(0, 0, 50, "alpha"),
                  AbortEvent(75, 1, "beta", core=1, start=25, executed=50,
                             reason="write conflict", parked=False,
                             cascade=-1, hop=-1)]
        out = render_timeline(events, n_cores=2, width=40)
        lines = out.splitlines()
        assert len(lines) == 3  # header + 2 cores
        assert "a" in lines[1]
        assert "x" in lines[2]  # aborted glyph

    def test_render_empty(self):
        assert "empty" in render_timeline([], n_cores=2)

    def test_glyph_override(self):
        out = render_timeline([_commit(0, 0, 10, "task")], n_cores=1,
                              glyphs={"task": "#"})
        assert "#" in out


class TestStats:
    def test_breakdown_fractions_sum_to_one(self):
        bd = CycleBreakdown(committed=50, aborted=25, spill=5, stall=10,
                            empty=10)
        assert abs(sum(bd.fractions().values()) - 1.0) < 1e-9

    def test_empty_breakdown_safe(self):
        assert CycleBreakdown().fractions()["committed"] == 0.0

    def test_avg_task_length(self):
        stats = RunStats(tasks_committed=4)
        stats.breakdown.committed = 400
        assert stats.avg_task_length == 100.0

    def test_speedup_over(self):
        a = RunStats(makespan=1000)
        b = RunStats(makespan=100)
        assert b.speedup_over(a) == 10.0

    def test_abort_ratio(self):
        stats = RunStats(tasks_committed=3, tasks_aborted=1)
        assert stats.abort_ratio == 0.25

    def test_summary_mentions_key_numbers(self):
        sim = Simulator(SystemConfig.with_cores(4))
        cell = sim.cell("c", 0)
        sim.enqueue_root(lambda ctx: cell.set(ctx, 1))
        stats = sim.run()
        text = stats.summary()
        assert "1 committed" in text.replace(",", "")
        assert "cycles" in text
