"""Plain-Python graph oracles for the applications' result checks.

Each function answers one question about a :class:`Graph` with the
textbook sequential algorithm and shares no code with the speculative
implementations it checks. The tests cross-check every one of them
against networkx on random graphs.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, Iterable, Iterator, Sequence

from .graph import Graph


def bfs_levels(g: Graph, source: int) -> Dict[int, int]:
    """Hop count from ``source`` to every node it reaches."""
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        u = frontier.popleft()
        for v in g.adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                frontier.append(v)
    return dist


def dijkstra_lengths(g: Graph, source: int) -> Dict[int, float]:
    """Shortest weighted distance from ``source`` to every node it reaches
    (edge costs from :meth:`Graph.weight`, so unweighted edges cost 1)."""
    dist: Dict[int, float] = {}
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in dist:
            continue
        dist[u] = d
        for v in g.adj[u]:
            if v not in dist:
                heapq.heappush(heap, (d + g.weight(u, v), v))
    return dist


def spanning_forest(n: int,
                    edges: Iterable[Sequence]) -> Iterator[Sequence]:
    """The edges that join two components when taken in the given order
    (greedy union-find): a spanning forest of the undirected graph on
    nodes ``0..n-1``. Each edge starts with its two endpoints."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for edge in edges:
        ru, rv = find(edge[0]), find(edge[1])
        if ru != rv:
            parent[ru] = rv
            yield edge


def component_count(n: int, edges: Iterable[Sequence]) -> int:
    """Connected components of the undirected graph on ``0..n-1``."""
    return n - sum(1 for _ in spanning_forest(n, edges))


def msf_weight(g: Graph) -> float:
    """Total weight of a minimum spanning forest (Kruskal)."""
    ranked = sorted(((u, v, g.weight(u, v)) for u, v in g.edges()),
                    key=lambda e: e[2])
    return sum(w for _, _, w in spanning_forest(g.n, ranked))
