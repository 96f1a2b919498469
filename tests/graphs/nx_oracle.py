"""networkx views of the repo's graph inputs.

networkx is a test-only dependency: it cross-checks the plain-Python
oracles the applications' result checks use (:mod:`repro.graphs.reference`
and :func:`repro.apps.maxflow.reference_maxflow`).
"""

import networkx as nx


def to_networkx(g):
    """``g`` as a networkx graph; every edge carries its
    :meth:`~repro.graphs.Graph.weight` as ``weight`` and ``capacity``."""
    gx = nx.DiGraph() if g.directed else nx.Graph()
    gx.add_nodes_from(range(g.n))
    for u, v in g.edges():
        gx.add_edge(u, v, weight=g.weight(u, v), capacity=g.weight(u, v))
    return gx


def networkx_maxflow(inp):
    """Flow value of a :class:`~repro.apps.maxflow.MaxflowInput`; a
    ``DiGraph`` holds one edge per node pair, so parallel edges' capacities
    are summed into it."""
    gx = nx.DiGraph()
    gx.add_nodes_from(range(inp.n))
    for k in range(0, inp.m, 2):
        u, v, c = inp.eu[k], inp.ev[k], inp.cap0[k]
        if gx.has_edge(u, v):
            gx[u][v]["capacity"] += c
        else:
            gx.add_edge(u, v, capacity=c)
    value, _ = nx.maximum_flow(gx, inp.source, inp.sink)
    return value
