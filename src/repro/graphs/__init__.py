"""Deterministic graph generators for the paper's workloads (Table 3).

- :func:`rmat` — R-MAT power-law graphs (mis; stands in for kron_g500 in msf
  and com-youtube in color at toy scale).
- :func:`rmf_wide` — layered DIMACS "rmf" maxflow networks (maxflow).
- :func:`grid3d` — 3D grids (labyrinth).

All generators are seeded and return :class:`Graph` (plain CSR-style
adjacency, independent of the simulator). :mod:`.reference` holds the
sequential oracles (BFS, Dijkstra, Kruskal, component count) that the
graph apps' result checks compare against.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".graph": ("Graph",),
    ".rmat": ("rmat",),
    ".rmf": ("rmf_wide",),
    ".generators": ("grid3d",),
})

__all__ = ["Graph", "rmat", "rmf_wide", "grid3d"]
