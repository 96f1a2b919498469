"""A minimal directed/undirected graph container.

Kept deliberately independent of the simulator: applications copy the
adjacency they need into speculative memory at build time. The result
checks read it through the plain-Python oracles in :mod:`.reference`;
networkx is only the tests' cross-check of those oracles.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import AppError


class Graph:
    """Adjacency-list graph with optional edge weights/capacities."""

    def __init__(self, n: int, directed: bool = False):
        if n < 0:
            raise AppError("node count must be >= 0")
        self.n = n
        self.directed = directed
        self.adj: List[List[int]] = [[] for _ in range(n)]
        self.weights: Dict[Tuple[int, int], float] = {}

    def add_edge(self, u: int, v: int, weight: Optional[float] = None) -> None:
        """Add an edge (both directions unless directed), optionally weighted."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise AppError(f"edge ({u},{v}) out of range")
        self.adj[u].append(v)
        if not self.directed:
            self.adj[v].append(u)
        if weight is not None:
            self.weights[(u, v)] = weight
            if not self.directed:
                self.weights[(v, u)] = weight

    def has_edge(self, u: int, v: int) -> bool:
        """True when v is adjacent to u."""
        return v in self.adj[u]

    def weight(self, u: int, v: int, default: float = 1.0) -> float:
        """Edge weight/capacity, or ``default`` when unweighted."""
        return self.weights.get((u, v), default)

    def neighbors(self, u: int) -> List[int]:
        """Adjacency list of u (shared reference; do not mutate)."""
        return self.adj[u]

    def degree(self, u: int) -> int:
        """Number of stored edges out of u."""
        return len(self.adj[u])

    @property
    def m(self) -> int:
        """Number of stored directed edges (2x logical edges if undirected)."""
        return sum(len(a) for a in self.adj)

    def edges(self) -> Iterable[Tuple[int, int]]:
        """Each logical edge once (u <= v for undirected graphs)."""
        for u in range(self.n):
            for v in self.adj[u]:
                if self.directed or u <= v:
                    yield (u, v)

    def dedup(self) -> "Graph":
        """Remove duplicate edges and self-loops (in place); returns self."""
        for u in range(self.n):
            seen = set()
            out = []
            for v in self.adj[u]:
                if v != u and v not in seen:
                    seen.add(v)
                    out.append(v)
            self.adj[u] = out
        return self

    def __repr__(self) -> str:
        kind = "digraph" if self.directed else "graph"
        return f"Graph({kind}, n={self.n}, m={self.m})"
