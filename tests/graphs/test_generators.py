"""Tests for graph containers and generators."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AppError
from repro.graphs import Graph, grid3d, rmat, rmf_wide

from .nx_oracle import to_networkx


def random_graph(n: int, m: int, *, seed: int = 1, directed: bool = False,
                 weighted: bool = False) -> Graph:
    """A simple G(n, m)-style random graph (test workloads)."""
    if n < 2:
        raise AppError("random_graph needs n >= 2")
    rng = random.Random(seed)
    g = Graph(n, directed=directed)
    attempts = 0
    edges = set()
    while len(edges) < m and attempts < m * 20:
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        key = (u, v) if directed else (min(u, v), max(u, v))
        if key in edges:
            continue
        edges.add(key)
        g.add_edge(u, v, weight=rng.random() if weighted else None)
    return g


class TestGraph:
    def test_undirected_symmetry(self):
        g = Graph(4)
        g.add_edge(0, 1)
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert g.m == 2

    def test_directed(self):
        g = Graph(4, directed=True)
        g.add_edge(0, 1)
        assert g.has_edge(0, 1) and not g.has_edge(1, 0)

    def test_weights(self):
        g = Graph(3)
        g.add_edge(0, 1, weight=2.5)
        assert g.weight(0, 1) == 2.5 == g.weight(1, 0)
        assert g.weight(0, 2, default=9) == 9

    def test_edges_logical_once(self):
        g = Graph(3)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        assert sorted(g.edges()) == [(0, 1), (1, 2)]

    def test_dedup(self):
        g = Graph(3)
        g.add_edge(0, 1)
        g.adj[0].append(1)
        g.adj[0].append(0)
        g.dedup()
        assert g.adj[0] == [1]

    def test_out_of_range_rejected(self):
        g = Graph(2)
        with pytest.raises(AppError):
            g.add_edge(0, 2)

    def test_to_networkx(self):
        g = Graph(3)
        g.add_edge(0, 1, weight=4.0)
        gx = to_networkx(g)
        assert gx[0][1]["weight"] == 4.0


class TestRmat:
    def test_deterministic(self):
        a, b = rmat(5, 4, seed=3), rmat(5, 4, seed=3)
        assert a.adj == b.adj

    def test_seed_matters(self):
        assert rmat(5, 4, seed=3).adj != rmat(5, 4, seed=4).adj

    def test_no_self_loops_or_dups(self):
        g = rmat(6, 6, seed=1)
        for u in range(g.n):
            assert u not in g.adj[u]
            assert len(set(g.adj[u])) == len(g.adj[u])

    def test_power_law_skew(self):
        """R-MAT must concentrate degree: the top decile of nodes holds a
        disproportionate share of edges."""
        g = rmat(9, 8, seed=1)
        degrees = sorted((g.degree(v) for v in range(g.n)), reverse=True)
        top = sum(degrees[:g.n // 10])
        assert top > 0.3 * sum(degrees)

    def test_weighted(self):
        g = rmat(4, 4, seed=1, weighted=True)
        for u, v in g.edges():
            assert 0.0 < g.weight(u, v) < 1.0

    def test_scale_bounds(self):
        with pytest.raises(AppError):
            rmat(0)
        with pytest.raises(AppError):
            rmat(25)


class TestRmf:
    def test_structure(self):
        g, s, t = rmf_wide(3, 4, seed=1)
        assert g.n == 9 * 4
        assert s == 0 and t == g.n - 1
        assert g.directed

    def test_interframe_edges_small_caps(self):
        g, s, t = rmf_wide(3, 3, seed=1, cap_range=(1, 10))
        inter = [(u, v) for u, v in g.edges() if v // 9 == u // 9 + 1]
        assert len(inter) == 9 * 2
        assert all(1 <= g.weight(u, v) <= 10 for u, v in inter)

    def test_intra_frame_caps_large(self):
        g, _, _ = rmf_wide(3, 2, seed=1, cap_range=(1, 10))
        intra = [(u, v) for u, v in g.edges() if v // 9 == u // 9]
        assert all(g.weight(u, v) == 10 * 9 for u, v in intra)

    def test_flow_is_bounded_by_frame_cut(self):
        """Max flow must not exceed the capacity of any inter-frame cut."""
        import networkx as nx

        g, s, t = rmf_wide(3, 3, seed=2)
        cut = sum(g.weight(u, v) for u, v in g.edges()
                  if u < 9 and 9 <= v < 18)
        value, _ = nx.maximum_flow(to_networkx(g), s, t)
        assert 0 < value <= cut

    def test_validation(self):
        with pytest.raises(AppError):
            rmf_wide(1, 3)
        with pytest.raises(AppError):
            rmf_wide(3, 3, cap_range=(5, 1))


class TestGrid3d:
    def test_dimensions(self):
        g = grid3d(3, 4, 2)
        assert g.n == 24

    def test_degrees(self):
        g = grid3d(3, 3, 3)
        center = (1 * 3 + 1) * 3 + 1
        assert g.degree(center) == 6
        assert g.degree(0) == 3

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_edge_count(self, x, y, z):
        g = grid3d(x, y, z)
        want = ((x - 1) * y * z + x * (y - 1) * z + x * y * (z - 1))
        assert g.m == 2 * want


class TestRandomGraph:
    def test_edge_count(self):
        g = random_graph(32, 50, seed=1)
        assert g.m == 100

    def test_no_self_loops(self):
        g = random_graph(16, 40, seed=2)
        assert all(u not in g.adj[u] for u in range(g.n))
