"""Tests for the mis application (paper Sec. 2.3, Listing 1)."""

import pytest

from repro.apps import mis
from repro.errors import AppError


@pytest.mark.parametrize("variant", ["flat", "fractal", "swarm"])
class TestVariants:
    def test_valid_mis(self, run_checked, variant):
        inp = mis.make_input(scale=5, edge_factor=3)
        run = run_checked(mis, inp, variant)
        assert run.stats.tasks_committed >= inp.n

    def test_serial_matches_semantics(self, run_serial_checked, variant):
        inp = mis.make_input(scale=5, edge_factor=3)
        run_serial_checked(mis, inp, variant)


class TestSwarmDeterminism:
    def test_swarm_is_deterministic(self, run_checked):
        """mis-swarm's total order makes the result deterministic
        (paper footnote 1)."""
        inp = mis.make_input(scale=5, edge_factor=3)
        a = run_checked(mis, inp, "swarm", n_cores=4)
        b = run_checked(mis, inp, "swarm", n_cores=16)
        assert a.handles["state"].snapshot() == b.handles["state"].snapshot()

    def test_swarm_matches_rank_greedy(self, run_checked):
        """The timestamp order is node order, so swarm must produce the
        greedy-by-id independent set."""
        inp = mis.make_input(scale=5, edge_factor=3)
        run = run_checked(mis, inp, "swarm")
        state = run.handles["state"].snapshot()
        want = []
        excluded = set()
        for v in range(inp.n):
            if v not in excluded:
                want.append(v)
                excluded.update(inp.neighbors(v))
        got = [v for v in range(inp.n) if state[v] == mis.INCLUDED]
        assert got == want


class TestEdgeCases:
    def test_edgeless_graph_includes_everything(self, run_checked):
        from repro.graphs import Graph
        g = Graph(10)
        run = run_checked(mis, g, "fractal")
        assert all(s == mis.INCLUDED
                   for s in run.handles["state"].snapshot()[:10])

    def test_complete_graph_single_node(self, run_checked):
        from repro.graphs import Graph
        g = Graph(6)
        for u in range(6):
            for v in range(u + 1, 6):
                g.add_edge(u, v)
        run = run_checked(mis, g, "fractal")
        included = [v for v in range(6)
                    if run.handles["state"].snapshot()[v] == mis.INCLUDED]
        assert len(included) == 1

    def test_check_catches_adjacent_pair(self):
        from repro.graphs import Graph
        g = Graph(2)
        g.add_edge(0, 1)
        fake = {"state": _FakeArray([mis.INCLUDED, mis.INCLUDED])}
        with pytest.raises(AppError):
            mis.check(fake, g)

    def test_check_catches_non_maximal(self):
        from repro.graphs import Graph
        g = Graph(3)
        g.add_edge(0, 1)
        fake = {"state": _FakeArray(
            [mis.EXCLUDED, mis.INCLUDED, mis.EXCLUDED])}
        with pytest.raises(AppError):
            mis.check(fake, g)  # node 2 has no included neighbour


class _FakeArray:
    def __init__(self, values):
        self._values = values

    def snapshot(self):
        return self._values
