"""Table 2: configuration of the simulated system.

Prints the modeled 256-core configuration alongside the paper's values and
asserts the architectural parameters match Table 2 exactly.
"""

from _common import emit
from repro.config import SystemConfig


if __name__ == "__main__":
    cfg = SystemConfig.paper_256core()
    emit("table2_config", cfg.describe())
    assert cfg.n_cores == 256
    assert cfg.n_tiles == 64 and cfg.cores_per_tile == 4
    assert cfg.total_task_queue == 16384
    assert cfg.total_commit_queue == 4096
    assert cfg.vt_bits == 128
    assert cfg.bloom_bits == 2048 and cfg.bloom_ways == 8
    assert cfg.commit_interval == 200
    assert cfg.spill_threshold == 0.85 and cfg.spill_batch == 15
    assert cfg.enqueue_cost == 5 and cfg.create_subdomain_cost == 2
    assert cfg.latency.l1_hit == 2 and cfg.latency.l2_hit == 7
    assert cfg.latency.l3_hit == 9 and cfg.latency.mem_latency == 120
    assert cfg.mesh_dim == 8
