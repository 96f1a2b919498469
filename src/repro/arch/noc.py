"""K x K mesh network-on-chip latency model (paper Table 2).

X-Y dimension-ordered routing: 1 cycle per hop going straight, 2 cycles on
the (single) turn, as in Tile64. Only latency is modeled — the simulator
operates at task granularity, where NoC *bandwidth* is never the bottleneck
for the studied workloads.
"""

from __future__ import annotations

from ..errors import ConfigError


class MeshNoC:
    """Latency oracle for a K x K tile mesh."""

    def __init__(self, mesh_dim: int, hop_straight: int = 1, hop_turn: int = 2):
        if mesh_dim < 1:
            raise ConfigError("mesh_dim must be >= 1")
        self.mesh_dim = mesh_dim
        self.hop_straight = hop_straight
        self.hop_turn = hop_turn
        # Precompute the (small) tile-to-tile latency table.
        n = mesh_dim * mesh_dim
        self._lat = [[self._compute(a, b) for b in range(n)] for a in range(n)]

    def coords(self, tile: int):
        """(row, column) of a tile id."""
        return divmod(tile, self.mesh_dim)

    def _compute(self, a: int, b: int) -> int:
        ay, ax = self.coords(a)
        by, bx = self.coords(b)
        dx, dy = abs(ax - bx), abs(ay - by)
        if dx == 0 and dy == 0:
            return 0
        lat = (dx + dy) * self.hop_straight
        if dx and dy:  # X-Y routing makes exactly one turn
            lat += self.hop_turn - self.hop_straight
        return lat

    def latency(self, src_tile: int, dst_tile: int) -> int:
        """One-way latency in cycles."""
        return self._lat[src_tile][dst_tile]

    def round_trip(self, src_tile: int, dst_tile: int) -> int:
        return 2 * self._lat[src_tile][dst_tile]
