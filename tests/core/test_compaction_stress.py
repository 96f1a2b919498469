"""Stress tests combining mechanisms: tiebreaker compaction, zooming, and
spills under real application workloads — all with audits."""

import pytest

from repro.apps import mis, silo
from repro.bench.harness import run_app
from repro.config import SystemConfig
from repro.errors import SimulationError
from repro.vt.tiebreaker import WrapAround


class TestCompactionUnderLoad:
    def test_mis_with_tiny_tiebreakers(self):
        """Frequent wrap-around walks must not perturb results.

        14-bit tiebreakers on 8 cores leave 10 cycle bits: compaction
        fires every ~512 cycles, many times over this run.
        """
        inp = mis.make_input(scale=6, edge_factor=4)
        cfg = SystemConfig.with_cores(8, tiebreaker_bits=14,
                                      conflict_mode="precise")
        run = run_app(mis, inp, variant="fractal", n_cores=8, config=cfg,
                      audit=True, max_cycles=30_000_000)
        mis.check(run.handles, inp)
        assert run.stats.tiebreaker_wraparounds > 0

    def test_silo_with_tiny_tiebreakers(self):
        inp = silo.make_input(n_txns=48)
        cfg = SystemConfig.with_cores(8, tiebreaker_bits=14,
                                      conflict_mode="precise")
        run = run_app(silo, inp, variant="fractal", n_cores=8, config=cfg,
                      audit=True, max_cycles=30_000_000)
        silo.check(run.handles, inp)
        assert run.stats.tiebreaker_wraparounds > 0


class TestCombinedPressure:
    def test_mis_tiny_everything(self):
        """Small queues + small tiebreakers + bloom filters together."""
        inp = mis.make_input(scale=5, edge_factor=3)
        cfg = SystemConfig.with_cores(
            8, tiebreaker_bits=18, task_queue_per_core=12,
            commit_queue_per_core=4, conflict_mode="bloom", bloom_bits=512)
        run = run_app(mis, inp, variant="fractal", n_cores=8, config=cfg,
                      audit=True, max_cycles=60_000_000)
        mis.check(run.handles, inp)

    def test_zooming_with_spills(self):
        """Deep nesting under a tight VT budget AND tight task queues."""
        from repro.apps import zoomtree
        inp = zoomtree.make_input(fanout=3, depth=5)
        cfg = SystemConfig.with_cores(
            4, vt_bits=64, task_queue_per_core=16,
            conflict_mode="precise")
        run = run_app(zoomtree, inp, variant="fractal", n_cores=4,
                      config=cfg, audit=True, max_cycles=120_000_000)
        zoomtree.check(run.handles, inp)
        assert run.stats.zoom_ins > 0


class TestWrapAroundRegressions:
    """Tiebreaker wrap-around runs that fail today. Each raises within
    a few thousand cycles; a change in how it fails shows up here."""

    @pytest.mark.xfail(strict=True, raises=SimulationError, reason=(
        "after wrap-around compactions an abort rolls back a word's "
        "writers out of chain order: 'rollback of non-tail writer at "
        "addr 13'"))
    def test_mis_with_12_bit_tiebreakers(self):
        inp = mis.make_input(scale=7, edge_factor=5)
        cfg = SystemConfig.with_cores(8, tiebreaker_bits=12)
        run = run_app(mis, inp, variant="fractal", config=cfg, audit=True)
        assert run.stats.tiebreaker_wraparounds > 0

    @pytest.mark.xfail(strict=True, raises=WrapAround, reason=(
        "one compaction walk does not create room, and the WrapAround "
        "escapes TiebreakerAllocator.compact at cycle 1600"))
    def test_zoomtree_with_12_bit_tiebreakers(self):
        from repro.apps import zoomtree
        inp = zoomtree.make_input(fanout=3, depth=6)
        cfg = SystemConfig.with_cores(4, tiebreaker_bits=12, vt_bits=64)
        run = run_app(zoomtree, inp, config=cfg, audit=True)
        assert run.stats.tiebreaker_wraparounds > 0
