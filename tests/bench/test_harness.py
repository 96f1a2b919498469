"""Tests for the benchmark harness and report tables."""

import pytest

from repro.apps import mis
from repro.bench.harness import AppRun, run_app, run_serial, sweep_cores
from repro.bench.report import format_table, speedup_table
from repro.config import SystemConfig


@pytest.fixture(scope="module")
def tiny_graph():
    return mis.make_input(scale=4, edge_factor=3)


class TestRunApp:
    def test_runs_and_checks(self, tiny_graph):
        run = run_app(mis, tiny_graph, variant="fractal", n_cores=4)
        assert isinstance(run, AppRun)
        assert run.n_cores == 4
        assert run.makespan > 0

    def test_variant_routing_sets_root_ordering(self, tiny_graph):
        run = run_app(mis, tiny_graph, variant="swarm", n_cores=4)
        assert run.handles["_sim"].root_domain.ordering.is_ordered

    def test_custom_config(self, tiny_graph):
        cfg = SystemConfig.with_cores(4, conflict_mode="precise")
        run = run_app(mis, tiny_graph, variant="flat", config=cfg)
        assert run.stats.false_positive_conflicts == 0

    def test_audit_flag(self, tiny_graph):
        run_app(mis, tiny_graph, variant="fractal", n_cores=4, audit=True)

    def test_run_serial(self, tiny_graph):
        host = run_serial(mis, tiny_graph, variant="flat")
        assert host.tasks_executed >= tiny_graph.n

    def test_sweep_cores(self, tiny_graph):
        runs = sweep_cores(mis, tiny_graph, ["flat"], [1, 4])
        assert len(runs) == 2
        assert {r.n_cores for r in runs} == {1, 4}


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(len(l) == len(lines[0]) for l in lines)

    def test_speedup_table(self, tiny_graph):
        runs = sweep_cores(mis, tiny_graph, ["flat", "fractal"], [1, 4])
        out = speedup_table(runs, baseline_variant="flat", baseline_cores=1)
        assert "1.00x" in out
        assert "fractal" in out and "flat" in out
