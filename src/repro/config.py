"""System configuration (paper Table 2).

:class:`SystemConfig` captures every architectural parameter the simulator
uses. The defaults reproduce the paper's 256-core, 64-tile chip; the
``small()``/``scaled()`` constructors produce the smaller square-mesh systems
used for scaling curves (the paper simulates K x K tile meshes for K <= 8,
keeping per-core queue and cache capacities constant).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from .errors import ConfigError


@dataclass(frozen=True)
class LatencyModel:
    """Memory/NoC latency parameters, in cycles (paper Table 2).

    The simulator charges each speculative access a latency picked from this
    model by :class:`repro.arch.cache.CacheModel`: repeated touches of a line
    a task already holds cost ``l1_hit``; the first touch costs ``l2_hit``
    when the line's home tile is the accessing tile, otherwise ``l3_hit``
    plus the mesh hop latency to the home tile; a configurable fraction of
    first touches (``mem_miss_rate``) escalates to main memory.
    """

    l1_hit: int = 2
    l2_hit: int = 7
    l3_hit: int = 9
    mem_latency: int = 120
    hop_straight: int = 1
    hop_turn: int = 2
    mem_miss_rate: float = 0.03


@dataclass(frozen=True)
class SystemConfig:
    """Full configuration of a simulated Fractal system (paper Table 2)."""

    # --- topology -------------------------------------------------------
    mesh_dim: int = 8                 # K x K tile mesh
    cores_per_tile: int = 4

    # --- task/commit queues --------------------------------------------
    task_queue_per_core: int = 64     # 16384 total at 256 cores
    commit_queue_per_core: int = 16   # 4096 total at 256 cores

    # --- fractal virtual time ------------------------------------------
    vt_bits: int = 128                # fractal VT bit budget
    tiebreaker_bits: int = 32
    enable_zooming: bool = True
    # Paper Sec. 6.3 future work: flatten *flattenable* (decomposition-
    # only) subdomains deeper than the threshold into their parent domain,
    # avoiding zooming and recovering parallelism for over-nested code.
    flatten_nesting: bool = False
    flatten_depth_threshold: int = 2

    # --- instruction overheads (cycles) ---------------------------------
    enqueue_cost: int = 5
    dequeue_cost: int = 5
    finish_cost: int = 5
    create_subdomain_cost: int = 2

    # --- conflict detection ---------------------------------------------
    conflict_mode: str = "bloom"      # "bloom" | "precise"
    bloom_bits: int = 2048
    bloom_ways: int = 8
    conflict_check_cost: int = 5      # per tile check

    # --- commits / spills ------------------------------------------------
    commit_interval: int = 200        # GVT arbiter period
    spill_threshold: float = 0.85     # coalescers fire at 85% task-queue fill
    spill_batch: int = 15             # tasks spilled per coalescer
    coalescer_cost_per_task: int = 10
    splitter_cost_per_task: int = 10

    # --- scheduling -------------------------------------------------------
    use_hints: bool = True            # spatial hints + load balancing
    load_balance_threshold: int = 8   # steal when longer by this many tasks

    # --- memory/NoC -------------------------------------------------------
    line_bytes: int = 64
    latency: LatencyModel = field(default_factory=LatencyModel)

    # --- misc --------------------------------------------------------------
    seed: int = 0                     # seeds Bloom hashing & any stochastic model
    abort_penalty: int = 20           # rollback delay per aborted task

    def __post_init__(self) -> None:
        if self.mesh_dim < 1:
            raise ConfigError(f"mesh_dim must be >= 1, got {self.mesh_dim}")
        if self.cores_per_tile < 1:
            raise ConfigError("cores_per_tile must be >= 1")
        if self.vt_bits < 32:
            raise ConfigError("vt_bits must be at least one domain VT (32)")
        if self.tiebreaker_bits < 4:
            raise ConfigError("tiebreaker_bits must be >= 4")
        if self.conflict_mode not in ("bloom", "precise"):
            raise ConfigError(f"unknown conflict_mode {self.conflict_mode!r}")
        if not (0.0 < self.spill_threshold <= 1.0):
            raise ConfigError("spill_threshold must be in (0, 1]")
        if self.bloom_bits & (self.bloom_bits - 1):
            raise ConfigError("bloom_bits must be a power of two")

    # --- derived quantities ----------------------------------------------
    @property
    def n_tiles(self) -> int:
        """Number of tiles (mesh_dim squared)."""
        return self.mesh_dim * self.mesh_dim

    @property
    def n_cores(self) -> int:
        """Total cores on the chip."""
        return self.n_tiles * self.cores_per_tile

    @property
    def task_queue_per_tile(self) -> int:
        """Task-queue entries per tile."""
        return self.task_queue_per_core * self.cores_per_tile

    @property
    def commit_queue_per_tile(self) -> int:
        """Commit-queue entries per tile."""
        return self.commit_queue_per_core * self.cores_per_tile

    @property
    def total_task_queue(self) -> int:
        """Chip-wide task-queue capacity (the speculation window)."""
        return self.task_queue_per_tile * self.n_tiles

    @property
    def total_commit_queue(self) -> int:
        """Chip-wide commit-queue capacity."""
        return self.commit_queue_per_tile * self.n_tiles

    # --- constructors -------------------------------------------------------
    @classmethod
    def with_cores(cls, n_cores: int, **overrides) -> "SystemConfig":
        """Config for an ``n_cores``-core system with square tile mesh.

        Mirrors the paper's methodology: per-core queue/cache capacities are
        constant across system sizes, so bigger systems have bigger total
        queues (which sometimes causes superlinear speedups; see paper §5).
        """
        if n_cores < 1:
            raise ConfigError("n_cores must be >= 1")
        preferred = int(overrides.pop("cores_per_tile", 4))
        # Find a K x K mesh with c cores/tile such that c * K^2 == n_cores,
        # preferring c closest to the paper's 4 cores/tile.
        candidates = []
        for mesh in range(int(math.isqrt(n_cores)), 0, -1):
            tiles = mesh * mesh
            if n_cores % tiles == 0:
                candidates.append((abs(n_cores // tiles - preferred), mesh))
        if not candidates:
            raise ConfigError(f"cannot tile {n_cores} cores into a square mesh")
        _, mesh = min(candidates)
        return cls(mesh_dim=mesh, cores_per_tile=n_cores // (mesh * mesh),
                   **overrides)

    @classmethod
    def paper_256core(cls, **overrides) -> "SystemConfig":
        """The paper's full 256-core, 64-tile configuration (Table 2)."""
        return cls(mesh_dim=8, cores_per_tile=4, **overrides)

    def replace(self, **changes) -> "SystemConfig":
        """Return a copy with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def describe(self) -> str:
        """Human-readable, Table 2-style description."""
        lines = [
            f"Cores      {self.n_cores} cores in {self.n_tiles} tiles "
            f"({self.cores_per_tile} cores/tile)",
            f"Queues     {self.task_queue_per_core} task queue entries/core "
            f"({self.total_task_queue} total), "
            f"{self.commit_queue_per_core} commit queue entries/core "
            f"({self.total_commit_queue} total), {self.vt_bits}-bit fractal VTs",
            f"Conflicts  {self.conflict_mode}"
            + (f", {self.bloom_bits // 1024} Kbit {self.bloom_ways}-way Bloom "
               f"filters, H3 hash functions" if self.conflict_mode == "bloom"
               else ""),
            f"Commits    tiles send updates to GVT arbiter every "
            f"{self.commit_interval} cycles",
            f"Spills     coalescers fire when a task queue is "
            f"{self.spill_threshold:.0%} full; spill up to {self.spill_batch} tasks",
            f"Scheduler  spatial hints {'with load balancing' if self.use_hints else 'OFF'}",
            f"Fractal    {self.enqueue_cost} cycles/enqueue+dequeue+finish, "
            f"{self.create_subdomain_cost} cycles/create_subdomain",
            f"NoC        {self.mesh_dim}x{self.mesh_dim} mesh, "
            f"{self.latency.hop_straight} cycle/hop straight, "
            f"{self.latency.hop_turn} on turns",
            f"Memory     L1 {self.latency.l1_hit}c / L2 {self.latency.l2_hit}c / "
            f"L3 {self.latency.l3_hit}c / mem {self.latency.mem_latency}c, "
            f"{self.line_bytes} B lines",
        ]
        return "\n".join(lines)
