"""Miscellaneous behaviour tests: audit switches, timelines, high-level
misuse, and representation helpers."""

import pytest

from repro import Ordering, Simulator, SystemConfig, forall
from repro.errors import DomainError, SimulationError
from repro.telemetry import EventBus, EventRecorder
from repro.telemetry.timeline import render_timeline


def make_sim(**kw):
    kw.setdefault("conflict_mode", "precise")
    enable_audit = kw.pop("enable_audit", True)
    bus = kw.pop("bus", None)
    return Simulator(SystemConfig.with_cores(4, **kw),
                     enable_audit=enable_audit, bus=bus)


class TestAuditSwitch:
    def test_audit_disabled_refuses_audit_call(self):
        sim = make_sim(enable_audit=False)
        sim.enqueue_root(lambda ctx: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.audit()

    def test_audit_disabled_keeps_no_commit_log(self):
        sim = make_sim(enable_audit=False)
        for _ in range(5):
            sim.enqueue_root(lambda ctx: None)
        sim.run()
        assert sim.commit_log == []


class TestTraceSwitch:
    def test_trace_records_committed_and_aborted(self):
        bus = EventBus()
        rec = bus.subscribe(EventRecorder(("commit", "abort")))
        sim = make_sim(bus=bus)
        cell = sim.cell("c", 0)

        def t(ctx):
            cell.add(ctx, 1)
            ctx.compute(50)

        for _ in range(12):
            sim.enqueue_root(t)
        stats = sim.run(max_cycles=10_000_000)
        glyphs = "".join(line.split("|")[1] for line in
                         render_timeline(rec, n_cores=4).splitlines()[1:])
        assert len(rec.of("commit")) == stats.tasks_committed == 12
        assert "t" in glyphs
        if stats.tasks_aborted:
            assert "x" in glyphs

    def test_trace_disabled_by_default(self):
        # no subscriber: the bus stays off and no event is ever built
        sim = make_sim()
        assert not sim.bus


class TestHighLevelMisuse:
    def test_two_foralls_in_one_task_rejected(self):
        sim = make_sim()
        errors = []

        def t(ctx):
            forall(ctx, range(2), lambda c, i: None)
            try:
                forall(ctx, range(2), lambda c, i: None)
            except DomainError as e:
                errors.append(e)

        sim.enqueue_root(t)
        sim.run()
        assert errors

    def test_forall_over_empty_iterable(self):
        sim = make_sim()
        sim.enqueue_root(lambda ctx: forall(ctx, [], lambda c, i: None))
        stats = sim.run()
        assert stats.tasks_committed == 1


class TestReprsAndSummaries:
    def test_task_repr_shows_state_and_vt(self):
        sim = make_sim()
        task = sim.enqueue_root(lambda ctx: None, label="mytask")
        assert "mytask" in repr(task)
        assert "pending" in repr(task)
        sim.run()
        assert "committed" in repr(task)

    def test_domain_repr(self):
        from repro.core.domain import Domain
        root = Domain(Ordering.UNORDERED)
        assert "root" in repr(root)

    def test_core_and_tile_repr(self):
        sim = make_sim()
        assert "Core0" in repr(sim.cores[0])
        assert "Tile0" in repr(sim.tiles[0])

    def test_summary_mentions_zooming_only_when_used(self):
        sim = make_sim()
        sim.enqueue_root(lambda ctx: None)
        stats = sim.run()
        assert "zooming" not in stats.summary()


class TestMaxCyclesGuard:
    def test_guard_raises_with_live_tasks(self):
        sim = make_sim()

        def chain(ctx, n):
            ctx.compute(1000)
            ctx.enqueue(chain, n + 1)  # unbounded

        sim.enqueue_root(chain, 0)
        with pytest.raises(SimulationError):
            sim.run(max_cycles=50_000)
