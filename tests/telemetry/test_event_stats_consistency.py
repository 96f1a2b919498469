"""The event stream and the final RunStats must tell the same story.

Runs real applications with an :class:`EventRecorder` on the bus and
cross-checks every statistic that is derivable from events against the
registry-rebuilt :class:`RunStats` — on an abort-heavy run (mis) and a
zooming run (zoomtree).
"""

import pytest

from repro.apps import mis, zoomtree
from repro.bench.harness import run_app
from repro.config import SystemConfig
from repro.telemetry import EventBus, EventRecorder


def _recorded_run(app, inp, variant, n_cores, **kwargs):
    bus = EventBus()
    rec = bus.subscribe(EventRecorder())
    run = run_app(app, inp, variant=variant, n_cores=n_cores,
                  telemetry=bus, **kwargs)
    return run, rec


def assert_consistent(run, rec):
    stats = run.stats
    bd = stats.breakdown

    commits = rec.of("commit")
    assert len(commits) == stats.tasks_committed
    assert sum(e.duration for e in commits) == bd.committed

    aborts = rec.of("abort")
    real = [e for e in aborts if not e.parked]
    assert len(real) == stats.tasks_aborted
    assert sum(e.executed for e in aborts) == bd.aborted

    assert len(rec.of("squash")) == stats.tasks_squashed
    assert len(rec.of("enqueue")) == stats.enqueues

    spills = rec.of("spill")
    assert sum(e.duration for e in spills) == bd.spill
    assert sum(e.n_tasks for e in spills
               if e.op == "coalescer") == stats.tasks_spilled

    zooms = rec.of("zoom")
    assert len([e for e in zooms if e.direction == "in"]) == stats.zoom_ins
    assert len([e for e in zooms if e.direction == "out"]) == stats.zoom_outs

    assert len(rec.of("gvt_tick")) == stats.gvt_ticks
    # each tick reports the number of commits that precede it
    n_commits = 0
    for e in rec:
        if e.KIND == "commit":
            n_commits += 1
        elif e.KIND == "gvt_tick":
            assert e.commits == n_commits
    assert len(rec.of("wraparound")) == stats.tiebreaker_wraparounds

    depths = [e.depth for e in rec.of("enqueue")]
    assert max(depths, default=1) == stats.max_depth

    # every event's timestamp lies within the run
    assert all(0 <= e.t <= stats.makespan for e in rec)


class TestMisConsistency:
    """mis at small scale aborts heavily (true read-write conflicts)."""

    def test_events_match_stats(self):
        inp = mis.make_input(scale=6, edge_factor=5)
        run, rec = _recorded_run(mis, inp, "fractal", 4)
        assert run.stats.tasks_aborted > 0, "fixture must exercise aborts"
        assert rec.of("conflict"), "aborts must come with conflict events"
        assert_consistent(run, rec)

    def test_conflict_events_reference_live_tids(self):
        inp = mis.make_input(scale=6, edge_factor=5)
        run, rec = _recorded_run(mis, inp, "fractal", 4)
        tids = {e.tid for e in rec.of("enqueue")}
        for e in rec.of("conflict"):
            assert e.victims, "a conflict event names at least one victim"
            assert set(e.victims) <= tids
            assert len(e.victims) == len(e.victim_vts) == len(e.victim_cores)


class TestZoomtreeConsistency:
    """zoomtree with a tight VT budget exercises zoom-in/zoom-out."""

    def test_events_match_stats(self):
        inp = zoomtree.make_input(fanout=2, depth=5)
        cfg = SystemConfig.with_cores(
            4, vt_bits=zoomtree.vt_bits_for_depth(2), conflict_mode="precise")
        run, rec = _recorded_run(zoomtree, inp, "fractal", 4, config=cfg,
                                 max_cycles=80_000_000)
        assert run.stats.zoom_ins > 0, "fixture must exercise zooming"
        assert_consistent(run, rec)

    def test_zoom_events_carry_stack_depth(self):
        inp = zoomtree.make_input(fanout=2, depth=5)
        cfg = SystemConfig.with_cores(
            4, vt_bits=zoomtree.vt_bits_for_depth(2), conflict_mode="precise")
        run, rec = _recorded_run(zoomtree, inp, "fractal", 4, config=cfg,
                                 max_cycles=80_000_000)
        depth = 0
        for e in rec.of("zoom"):
            depth += 1 if e.direction == "in" else -1
            assert e.depth == depth
        assert depth == 0, "every zoom-in must be undone by run end"


class TestDisabledBusIsInert:
    def test_no_bus_means_no_subscribers_and_same_stats(self):
        inp = mis.make_input(scale=6, edge_factor=5)
        plain = run_app(mis, inp, variant="fractal", n_cores=4)
        observed, rec = _recorded_run(mis, inp, "fractal", 4)
        assert not plain.sim.bus.enabled
        assert len(rec) > 0
        # observation must not perturb the simulation
        assert plain.stats.to_dict() == observed.stats.to_dict()
