"""Miscellaneous deterministic generators: 3D grids."""

from __future__ import annotations

from ..errors import AppError
from .graph import Graph


def grid3d(x: int, y: int, z: int) -> Graph:
    """An x*y*z grid graph (labyrinth's routing substrate).

    Node id = (zi * y + yi) * x + xi; 6-neighbour connectivity.
    """
    if min(x, y, z) < 1:
        raise AppError("grid dimensions must be >= 1")
    n = x * y * z
    g = Graph(n, directed=False)

    def node(xi: int, yi: int, zi: int) -> int:
        return (zi * y + yi) * x + xi

    for zi in range(z):
        for yi in range(y):
            for xi in range(x):
                u = node(xi, yi, zi)
                if xi + 1 < x:
                    g.add_edge(u, node(xi + 1, yi, zi))
                if yi + 1 < y:
                    g.add_edge(u, node(xi, yi + 1, zi))
                if zi + 1 < z:
                    g.add_edge(u, node(xi, yi, zi + 1))
    return g

