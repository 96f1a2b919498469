"""Tests for zooming (paper Sec. 4.3) at the engine level."""

import pytest

from repro import Ordering, Simulator, SystemConfig
from repro.errors import VTBudgetExceeded


def deep_sim(n_cores=4, vt_bits=64, zooming=True, **overrides):
    cfg = SystemConfig.with_cores(n_cores, vt_bits=vt_bits,
                                  enable_zooming=zooming,
                                  conflict_mode="precise", **overrides)
    return Simulator(cfg)


class TestZoomIn:
    def test_deep_nesting_completes(self):
        sim = deep_sim(vt_bits=64)  # two unordered levels fit
        depths = sim.array("depths", 8 * 8)

        def node(ctx, depth):
            depths.set(ctx, depth * 8, 1)
            if depth < 5:
                ctx.create_subdomain(Ordering.UNORDERED)
                ctx.enqueue_sub(node, depth + 1)

        sim.enqueue_root(node, 0)
        stats = sim.run(max_cycles=10_000_000)
        sim.audit()
        assert all(depths.peek(d * 8) == 1 for d in range(6))
        assert stats.zoom_ins > 0
        assert stats.zoom_ins == stats.zoom_outs

    def test_sibling_work_spilled_and_resumed(self):
        """Tasks of the base domain are parked during a zoom-in and run
        after the zoom-out (paper Fig. 13: D and E). Nothing requests the
        zoom-outs: each fires when the deep chain's last task commits
        with the frame open, and the tick finds no active task left."""
        sim = deep_sim(vt_bits=64)
        ran = sim.array("ran", 8 * 8)
        drained = []
        zoom_out = sim.zoom.zoom_out

        def counting_zoom_out():
            drained.append(not sim._active_live())
            zoom_out()

        sim.zoom.zoom_out = counting_zoom_out

        def sibling(ctx, i):
            ran.set(ctx, i * 8, 1)
            ctx.compute(50)

        def deep(ctx, depth):
            if depth < 4:
                ctx.create_subdomain(Ordering.UNORDERED)
                ctx.enqueue_sub(deep, depth + 1)

        sim.enqueue_root(deep, 1)
        for i in range(6):
            sim.enqueue_root(sibling, i)
        stats = sim.run(max_cycles=10_000_000)
        sim.audit()
        assert all(ran.peek(i * 8) == 1 for i in range(6))
        assert stats.zoom_ins > 0
        assert stats.zoom_outs == stats.zoom_ins == len(drained)
        assert all(drained)

    def test_ordered_base_timestamp_restored(self):
        """Zooming out of an ordered base domain restores timestamps from
        the arbiter's stack; ordering across the zoom must hold."""
        cfg = SystemConfig.with_cores(4, vt_bits=96, enable_zooming=True,
                                      conflict_mode="precise")
        sim = Simulator(cfg, root_ordering=Ordering.ORDERED_32)
        log = sim.array("log", 8)
        pos = sim.cell("pos", 0)

        def mark(ctx, tag):
            p = pos.get(ctx)
            log.set(ctx, p, tag)
            pos.set(ctx, p + 1)

        def deep(ctx, depth, tag):
            if depth == 0:
                mark(ctx, tag)
                return
            ctx.create_subdomain(Ordering.UNORDERED)
            ctx.enqueue_sub(deep, depth - 1, tag)

        sim.enqueue_root(deep, 3, "first", ts=1)
        sim.enqueue_root(mark, "second", ts=2)
        stats = sim.run(max_cycles=10_000_000)
        sim.audit()
        marks = [v for v in log.snapshot() if v != 0]
        assert marks == ["first", "second"]
        assert stats.zoom_ins > 0

    def test_zooming_disabled_raises(self):
        sim = deep_sim(vt_bits=64, zooming=False)
        failures = []

        def node(ctx, depth):
            if depth < 3:
                ctx.create_subdomain(Ordering.UNORDERED)
                try:
                    ctx.enqueue_sub(node, depth + 1)
                except VTBudgetExceeded as e:
                    failures.append(e)

        sim.enqueue_root(node, 0)
        sim.run(max_cycles=1_000_000)
        assert failures


class TestEnqueueSuperAcrossZoom:
    def test_super_enqueue_triggers_zoom_out(self):
        """A base-domain task enqueuing to its (parked) superdomain forces
        a zoom-out (paper Sec. 4.3)."""
        sim = deep_sim(vt_bits=64)
        log = sim.array("log", 4 * 8)

        def delegated(ctx):
            log.set(ctx, 3 * 8, 1)

        def inner(ctx, depth):
            if depth < 3:
                ctx.create_subdomain(Ordering.UNORDERED)
                ctx.enqueue_sub(inner, depth + 1)
            else:
                # at depth 3 the hardware has zoomed at least once, so our
                # superdomain lives on the zoom stack
                ctx.enqueue_super(delegated)

        sim.enqueue_root(inner, 1)
        stats = sim.run(max_cycles=10_000_000)
        sim.audit()
        assert log.peek(3 * 8) == 1
        assert stats.zoom_ins > 0
        assert stats.zoom_outs == stats.zoom_ins


class TestWrapAround:
    def test_long_run_compacts_tiebreakers(self):
        """A tiny tiebreaker width forces wrap-around compaction walks;
        execution must stay correct."""
        cfg = SystemConfig.with_cores(4, tiebreaker_bits=14,
                                      conflict_mode="precise")
        sim = Simulator(cfg)
        cell = sim.cell("c", 0)

        def chain(ctx, remaining):
            cell.add(ctx, 1)
            ctx.compute(400)
            if remaining:
                ctx.enqueue(chain, remaining - 1)

        sim.enqueue_root(chain, 60)
        stats = sim.run(max_cycles=10_000_000)
        sim.audit()
        assert cell.peek() == 61
        assert stats.tiebreaker_wraparounds > 0
