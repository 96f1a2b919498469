"""Tests for zooming (paper Sec. 4.3) at the engine level."""

import pytest

from repro import Ordering, Simulator, SystemConfig
from repro.errors import SimulationError, VTBudgetExceeded
from repro.telemetry.bus import EventRecorder


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
        """A task below a zoom-in delegates work to its superdomain, and
        every zoom-in is matched by a zoom-out."""
        sim = deep_sim(vt_bits=64)
        log = sim.array("log", 4 * 8)

        def delegated(ctx):
            log.set(ctx, 3 * 8, 1)

        def inner(ctx, depth):
            if depth < 3:
                ctx.create_subdomain(Ordering.UNORDERED)
                ctx.enqueue_sub(inner, depth + 1)
            else:
                # after one zoom-in this task sits at VT depth 2, so its
                # superdomain is still in the VT window and no zoom-out is
                # requested; the zoom-out fires when the region drains
                ctx.enqueue_super(delegated)

        sim.enqueue_root(inner, 1)
        stats = sim.run(max_cycles=10_000_000)
        sim.audit()
        assert log.peek(3 * 8) == 1
        assert stats.zoom_ins > 0
        assert stats.zoom_outs == stats.zoom_ins

    def test_base_domain_super_enqueue_parks_for_zoom_out(self):
        """A base-domain task enqueuing to its zoomed-out superdomain parks
        for an explicit zoom-out (paper Sec. 4.3); the park squashes the
        child it already spawned, and its re-execution recreates it."""
        sim = deep_sim(vt_bits=64)
        rec = EventRecorder(kinds=("abort", "squash", "zoom"))
        sim.bus.subscribe(rec)
        log = sim.array("log", 2 * 8)

        def delegated(ctx):
            log.set(ctx, 0, 1)

        def sibling(ctx):
            log.set(ctx, 8, 1)

        def late(ctx):
            ctx.enqueue(sibling)
            ctx.enqueue_super(delegated)

        def leaf(ctx):
            ctx.enqueue_super(late)

        def mid(ctx):
            ctx.create_subdomain(Ordering.UNORDERED)
            ctx.enqueue_sub(leaf)

        def root(ctx):
            ctx.create_subdomain(Ordering.UNORDERED)
            ctx.enqueue_sub(mid)

        sim.enqueue_root(root)
        stats = sim.run(max_cycles=1_000_000)
        sim.audit()
        assert (log.peek(0), log.peek(8)) == (1, 1)
        assert stats.makespan == 600
        assert stats.zoom_ins == stats.zoom_outs == 1
        assert stats.tasks_squashed == 1
        parks = [e for e in rec.of("abort") if e.reason == "zoom-out park"]
        assert [(e.label, e.parked) for e in parks] == [("late", True)]
        squashes = rec.of("squash")
        assert [(e.label, e.reason) for e in squashes] == [
            ("sibling", "zoom-out park")]
        assert [e.direction for e in rec.of("zoom")] == ["in", "out"]


class TestZoomStateTransitions:
    """Moves between wait places that only zooming makes."""

    def test_abort_squashes_child_parked_in_zoom_frame(self):
        """A zoom-in spills a speculative task's base-domain child into
        the zoom frame; when that parent then aborts, the child is
        squashed straight out of the frame. The requester re-executes
        after its zoom-in and writes ``x``, which the later reader has
        read: the reader aborts."""
        sim = deep_sim(vt_bits=96)  # unordered + ordered levels, no third
        rec = EventRecorder(kinds=("squash", "zoom"))
        sim.bus.subscribe(rec)
        x = sim.cell("x", 0)
        out = sim.array("out", 3 * 8)

        def child(ctx):
            out.set(ctx, 0, 1)

        def leaf(ctx):
            out.set(ctx, 8, 1)

        def requester(ctx):
            x.set(ctx, 1)
            ctx.create_subdomain(Ordering.UNORDERED)
            ctx.enqueue_sub(leaf)

        def reader(ctx):
            out.set(ctx, 16, x.get(ctx))
            ctx.enqueue_super(child)
            ctx.compute(2000)

        def root(ctx):
            ctx.create_subdomain(Ordering.ORDERED_32)
            ctx.enqueue_sub(requester, ts=1)
            ctx.enqueue_sub(reader, ts=5)

        sim.enqueue_root(root)
        stats = sim.run(max_cycles=1_000_000)
        sim.audit()
        assert [out.peek(i * 8) for i in range(3)] == [1, 1, 1]
        assert stats.zoom_ins == stats.zoom_outs == 1
        steps = [(e.direction, e.n_spilled) if e.KIND == "zoom" else e.label
                 for e in rec.events]
        # the child is in the frame from the zoom-in until its squash,
        # and the zoom-out finds the frame empty
        assert steps == [("in", 1), "child", ("out", 0)]

    def test_zoom_in_spills_parked_zoom_out_requester(self):
        """A base-domain task parked for a zoom-out is itself spilled by a
        later zoom-in; the zoom-out of that frame restores it, and it
        parks for its own zoom-out again."""
        sim = deep_sim(vt_bits=64)
        rec = EventRecorder(kinds=("abort", "zoom"))
        sim.bus.subscribe(rec)
        out = sim.array("out", 3 * 8)

        def delegated(ctx):
            out.set(ctx, 0, 1)

        def leaf(ctx):
            out.set(ctx, 8, 1)

        def side_leaf(ctx):
            out.set(ctx, 16, 1)

        def deep(ctx):
            ctx.create_subdomain(Ordering.UNORDERED)
            ctx.enqueue_sub(leaf)

        def opener(ctx):
            ctx.create_subdomain(Ordering.UNORDERED)
            ctx.enqueue_sub(deep)

        def outward(ctx):
            ctx.enqueue_super(delegated)

        def mid(ctx):
            ctx.enqueue(opener)
            ctx.enqueue(outward)
            ctx.create_subdomain(Ordering.UNORDERED)
            ctx.enqueue_sub(side_leaf)

        def root(ctx):
            ctx.create_subdomain(Ordering.UNORDERED)
            ctx.enqueue_sub(mid)

        sim.enqueue_root(root)
        stats = sim.run(max_cycles=1_000_000)
        sim.audit()
        assert [out.peek(i * 8) for i in range(3)] == [1, 1, 1]
        assert stats.zoom_ins == stats.zoom_outs == 2
        steps = [(e.direction, e.n_spilled) if e.KIND == "zoom"
                 else (e.label, e.reason) for e in rec.events
                 if e.KIND == "zoom" or e.reason == "zoom-out park"]
        assert steps == [("in", 0), ("outward", "zoom-out park"),
                         ("in", 1), ("out", 1),
                         ("outward", "zoom-out park"), ("out", 0)]

    @pytest.mark.parametrize("super_first", [False, True],
                             ids=["sub-then-super", "super-then-sub"])
    def test_task_needing_three_levels_fails_naming_vt_bits(self,
                                                             super_first):
        """A depth-2 task that creates a subdomain *and* enqueues to its
        superdomain needs three VT levels at once; 64 bits hold two. Its
        zoom-in pushes a frame and its retry then asks to zoom out of that
        same frame, which would ping-pong forever; the run fails the way a
        base-domain zoom-in requester does, in either enqueue order."""
        sim = deep_sim(vt_bits=64)

        def noop(ctx):
            pass

        def both_ways(ctx):
            if super_first:
                ctx.enqueue_super(noop)
            ctx.create_subdomain(Ordering.UNORDERED)
            ctx.enqueue_sub(noop)
            if not super_first:
                ctx.enqueue_super(noop)

        def root(ctx):
            ctx.create_subdomain(Ordering.UNORDERED)
            ctx.enqueue_sub(both_ways)

        sim.enqueue_root(root)
        with pytest.raises(SimulationError, match="vt_bits"):
            sim.run(max_cycles=200_000)
        assert sim.zoom.zoom_ins == 1 and sim.zoom.zoom_outs == 0


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
