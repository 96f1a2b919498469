"""The plain-Python result oracles agree with networkx.

Each oracle the graph apps' checks use is compared with its networkx
counterpart on random graphs that include disconnected parts and
unreachable nodes, self-loops, parallel edges and zero-weight or
zero-capacity edges.
"""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.maxflow import MaxflowInput, reference_maxflow
from repro.errors import AppError
from repro.graphs import Graph, rmf_wide
from repro.graphs.reference import (bfs_levels, component_count,
                                    dijkstra_lengths, msf_weight)

from .nx_oracle import networkx_maxflow, to_networkx

EXAMPLES = settings(max_examples=60, deadline=None)


@st.composite
def graphs(draw, directed=False, min_n=1, max_n=10, degree=2):
    """Random graphs on few nodes with at most ``degree * n`` edges, so
    that duplicate pairs (parallel edges), self-loops and unconnected nodes
    are common. Integer weights in [0, 9] keep every distance exact."""
    n = draw(st.integers(min_n, max_n))
    node = st.integers(0, n - 1)
    g = Graph(n, directed=directed)
    for u, v, w in draw(st.lists(st.tuples(node, node, st.integers(0, 9)),
                                 max_size=degree * n)):
        g.add_edge(u, v, weight=w)
    return g


@st.composite
def transport_networks(draw):
    """Source -> suppliers -> consumers -> sink networks with random
    capacities. Shortest augmenting paths taken greedily often strand flow
    here, so a correct flow must cancel earlier pushes."""
    n_left, n_right = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    n = n_left + n_right + 2
    left, right = range(1, n_left + 1), range(n_left + 1, n - 1)
    cap = st.integers(1, 9)
    g = Graph(n, directed=True)
    for a in left:
        g.add_edge(0, a, weight=draw(cap))
    for b in right:
        g.add_edge(b, n - 1, weight=draw(cap))
    for a in left:
        for b in right:
            if draw(st.booleans()):
                g.add_edge(a, b, weight=draw(cap))
    return g


#: directed and undirected graphs alike
any_graphs = st.booleans().flatmap(lambda directed: graphs(directed))


class TestTraversals:
    @EXAMPLES
    @given(any_graphs)
    def test_bfs_levels(self, g):
        want = nx.single_source_shortest_path_length(to_networkx(g), 0)
        assert bfs_levels(g, 0) == dict(want)

    @EXAMPLES
    @given(any_graphs)
    def test_dijkstra_lengths(self, g):
        want = nx.single_source_dijkstra_path_length(to_networkx(g), 0)
        assert dijkstra_lengths(g, 0) == dict(want)

    def test_unreachable_nodes_are_absent(self):
        g = Graph(4, directed=True)
        g.add_edge(0, 1, weight=3)
        g.add_edge(2, 0, weight=1)
        assert bfs_levels(g, 0) == {0: 0, 1: 1}
        assert dijkstra_lengths(g, 0) == {0: 0, 1: 3}

    def test_unweighted_edges_cost_one(self):
        g = Graph(3)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        assert dijkstra_lengths(g, 0) == {0: 0, 1: 1.0, 2: 2.0}


class TestForests:
    @EXAMPLES
    @given(graphs())
    def test_component_count(self, g):
        assert (component_count(g.n, g.edges())
                == nx.number_connected_components(to_networkx(g)))

    @EXAMPLES
    @given(graphs())
    def test_msf_weight(self, g):
        want = sum(d["weight"] for _, _, d in
                   nx.minimum_spanning_edges(to_networkx(g), data=True))
        assert msf_weight(g) == want

    def test_disconnected_forest(self):
        g = Graph(6)
        g.add_edge(0, 1, weight=4)
        g.add_edge(1, 2, weight=2)
        g.add_edge(0, 2, weight=1)
        g.add_edge(3, 4, weight=5)
        assert msf_weight(g) == 8
        assert component_count(g.n, g.edges()) == 3


def flow_input(g: Graph) -> MaxflowInput:
    return MaxflowInput(g, 0, g.n - 1)


class TestMaxflow:
    @EXAMPLES
    @given(graphs(directed=True, min_n=2, degree=4))
    def test_matches_networkx(self, g):
        inp = flow_input(g)
        assert reference_maxflow(inp) == networkx_maxflow(inp)

    @EXAMPLES
    @given(transport_networks())
    def test_transport_networks_match_networkx(self, g):
        inp = flow_input(g)
        assert reference_maxflow(inp) == networkx_maxflow(inp)

    @pytest.mark.parametrize("b,layers,seed", [(2, 3, 1), (3, 3, 2),
                                               (4, 4, 4), (5, 6, 7)])
    def test_rmf_wide_matches_networkx(self, b, layers, seed):
        g, s, t = rmf_wide(b, layers, seed=seed)
        inp = MaxflowInput(g, s, t)
        assert reference_maxflow(inp) == networkx_maxflow(inp) > 0

    def test_parallel_edges_add_up(self):
        g = Graph(3, directed=True)
        for _ in range(3):
            g.add_edge(0, 1, weight=4)
        g.add_edge(1, 2, weight=20)
        assert reference_maxflow(flow_input(g)) == 12

    def test_flow_must_cancel_through_a_reverse_edge(self):
        """The unique shortest path 0-1-2-7 blocks both longer paths; the
        second unit of flow must undo its push along 1 -> 2."""
        g = Graph(8, directed=True)
        for u, v in [(0, 1), (1, 2), (2, 7), (1, 3), (3, 4), (4, 7),
                     (0, 5), (5, 6), (6, 2)]:
            g.add_edge(u, v, weight=1)
        assert reference_maxflow(flow_input(g)) == 2

    def test_zero_capacity_and_unreachable_sink(self):
        g = Graph(3, directed=True)
        g.add_edge(0, 1, weight=5)
        g.add_edge(1, 2, weight=0)
        assert reference_maxflow(flow_input(g)) == 0

    def test_source_is_sink_rejected(self):
        g = Graph(2, directed=True)
        g.add_edge(0, 1, weight=1)
        with pytest.raises(AppError):
            reference_maxflow(MaxflowInput(g, 0, 0))
