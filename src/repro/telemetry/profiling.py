"""Hot-path profiling: frontier-scan and conflict-probe counters.

The simulator core keeps raw (non-registry) counters on its hot-path
structures — the GVT frontier and the task queues count heap entries
examined per minimum query (the frontier also records its peak size),
the speculative memory counts candidate owners examined per conflict
check, and the Bloom model counts live tasks walked per false-positive
sample. They are plain ints bumped inline, deliberately **outside** the
metrics registry so vanilla runs export byte-identical metrics to older
versions (the same discipline as the resilience counters); ``repro
profile`` gathers them after a run, folds them into the registry, and
renders the report below.

The counters double as a regression surface (``CEILINGS`` in
``tests/core/test_stats_pins.py``): scan/probe work per event is a
deterministic property of the run, so a pinned ceiling catches an
accidental return to linear scanning even on a noisy machine where
wall-clock alone could not.
"""

from __future__ import annotations

from typing import Dict, Optional

#: JSON schema tag for exported profiles (v4 drops the exact-Bloom
#: signature-bank counters)
PROFILE_SCHEMA = "repro.hot-path-profile/4"


def collect_profile(sim, wall_s: Optional[float] = None) -> Dict:
    """Gather hot-path counters from a finished simulator into one doc."""
    frontier = sim._frontier
    dyn = frontier._dyn
    queue_scans = 0
    queue_queries = 0
    for tile in sim.tiles:
        queue_scans += tile.unit.scan_steps
        queue_queries += tile.unit.queries
    mem = sim.memory
    accesses = mem.n_loads + mem.n_stores
    gvt_queries = frontier.queries
    gvt_scans = frontier.scan_steps + dyn.scan_steps
    conflicts = sim.conflicts
    doc = {
        "schema": PROFILE_SCHEMA,
        "name": sim.stats.name,
        "n_cores": sim.stats.n_cores,
        "makespan": sim.now,
        "events": sim._event_seq,
        "gvt": {
            "queries": gvt_queries,
            "scan_steps": gvt_scans,
            "mean_scan_len": gvt_scans / gvt_queries if gvt_queries else 0.0,
            # most heap entries, dead ones included, seen at a tick
            "peak_entries": frontier.peak_entries,
        },
        "queues": {
            "queries": queue_queries,
            "scan_steps": queue_scans,
            "mean_scan_len": (queue_scans / queue_queries
                              if queue_queries else 0.0),
        },
        "memory": {
            "accesses": accesses,
            "probe_steps": mem.probe_steps,
            "mean_probe_len": mem.probe_steps / accesses if accesses else 0.0,
            "true_conflicts": mem.n_true_conflicts,
            # constants kept for benchmarks/perf/workloads.py, which reads
            # them: every access walks its line's chains
            "fast_hits": 0,
            "slow_probes": accesses,
            "epoch_bumps": 0,
        },
        "conflict_model": {
            "model": conflicts.name,
            "probe_steps": conflicts.probe_steps,
            "false_positives": conflicts.false_positives,
        },
        "tiebreaker_wraparounds": sim.alloc.wraparounds,
    }
    if wall_s is not None:
        doc["wall_s"] = wall_s
    return doc


def fold_into_registry(metrics, profile: Dict) -> None:
    """Export the profile counters through the metrics registry.

    Called only by ``repro profile`` — vanilla runs must not see these
    names, so metric exports stay byte-identical when profiling is off.
    The scan and probe totals are counters; the frontier's peak size is a
    gauge, like the registry's other peaks.
    """
    metrics.counter("profile_gvt_queries").value = \
        profile["gvt"]["queries"]
    metrics.counter("profile_gvt_scan_steps").value = \
        profile["gvt"]["scan_steps"]
    metrics.counter("profile_queue_scan_steps").value = \
        profile["queues"]["scan_steps"]
    metrics.counter("profile_mem_probe_steps").value = \
        profile["memory"]["probe_steps"]
    metrics.counter("profile_conflict_probe_steps").value = \
        profile["conflict_model"]["probe_steps"]
    metrics.gauge("profile_gvt_peak_entries").set(
        profile["gvt"]["peak_entries"])


def format_profile(profile: Dict) -> str:
    """Human-readable hot-path report."""
    g, q, m, c = (profile["gvt"], profile["queues"], profile["memory"],
                  profile["conflict_model"])
    lines = [
        f"hot-path profile: {profile['name']} "
        f"@ {profile['n_cores']} cores "
        f"({profile['makespan']:,} cycles, {profile['events']:,} events)",
        "",
        f"  GVT frontier     {g['queries']:>12,} queries   "
        f"{g['scan_steps']:>12,} heap entries examined   "
        f"(mean {g['mean_scan_len']:.2f}/query)",
        f"  frontier size    {g['peak_entries']:>12,} peak heap entries "
        f"(dead ones included)",
        f"  queue indexes    {q['queries']:>12,} queries   "
        f"{q['scan_steps']:>12,} heap entries examined   "
        f"(mean {q['mean_scan_len']:.2f}/query)",
        f"  conflict checks  {m['accesses']:>12,} accesses  "
        f"{m['probe_steps']:>12,} candidate owners probed "
        f"(mean {m['mean_probe_len']:.2f}/access)",
        f"  {c['model']:<6} sampling   "
        f"{c['probe_steps']:>12,} live tasks walked   "
        f"{c['false_positives']:>12,} false positives",
        f"  true conflicts   {m['true_conflicts']:>12,}    "
        f"tiebreaker wraparounds {profile['tiebreaker_wraparounds']}",
    ]
    if "wall_s" in profile:
        lines.append(f"  wall clock       {profile['wall_s']:>12.3f} s")
    return "\n".join(lines)

