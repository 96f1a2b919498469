"""Every pinned run outside the repo benchmark: ``RunStats`` digest (which
covers the makespan) and event count, plus hot-path counter
ceilings for the runs ``repro profile`` makes.

``benchmarks/perf/pins.json`` pins the four benchmark workloads. These
runs cover the rest: safe mode and livelock throttling (the storm fault
plan), exception retries that unwind inside a task body (the transient
plan), zoom-ins of coalescer-spilled tasks and re-keyed spill buffers,
commit-queue pressure aborts (on one tile, and on many tiles in one
tick), aborts with no rollback delay (the core frees in the cycle
being simulated), the PBBS family under every variant (audited and
checked against the sequential reference), and three
``repro profile`` runs whose scan and probe counters ``CEILINGS``
bounds. Zoom-park aborts of tasks that already spawned children are
tested in ``test_zooming.py`` (``TestEnqueueSuperAcrossZoom``).
Host-side optimizations of the simulator must reproduce every pin
exactly. Print a ``PINS`` block to paste over the one below with::

    PYTHONPATH=src python -m tests.core.test_stats_pins
"""

import dataclasses
import functools
import importlib
import pathlib

import pytest

from repro import SystemConfig
from repro.apps import mis, zoomtree
from repro.apps.pbbs import VARIANTS_PBBS, contract, refine, spanning
from repro.apps.registry import APPS
from repro.bench.harness import run_app
from repro.faults.plan import load_fault_file
from repro.farm.job import stable_digest
from repro.telemetry.profiling import collect_profile

from .test_commit_queue_pressure import _build as _build_cq_pressure

PLANS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "faultplans"

PINS = {
    "commit-queue-pressure": (
        "c6a970f7cb68079df4c9b9ef481cc46646ace541c76bfa104a7481984690b145",
        5017),
    "contract/flat@8c": (
        "565776ea215b99cba281be1cc6c50451faedd90a4358e22c28443935a2e7bb0f",
        796),
    "contract/fractal@8c": (
        "e6ba429628eaef2a3e770ffbe844a3ae34d878214c71b1eca8f8a2c114856896",
        1525),
    "contract/specfor@8c": (
        "ce660f1c21038f1b20b75e890b3e7d27bc187733dba94ad5098a8118d550f69d",
        2487),
    "contract/swarm@8c": (
        "2a74d1b7b86204259c54812be454228e52eda0232dc262b7fe70efa4868b2216",
        2708),
    "maxflow/fractal@4c": (
        "fcdc4daf2d241c57444ba6f9467f060481b6f6e4788711252ab7c1d9f489b3e2",
        112823),
    "mis-16c-zero-penalty": (
        "eb267b3af0b7f2ff10f499d7682842b3d8977ea172d5252a60756c808f74c1e7",
        18106),
    "mis-64c-cq1": (
        "f59f649f72e132899a1480cc078619aced9e64b6436884e61dbdfee66b0490b4",
        29553),
    "mis-8c-storm": (
        "e556dd73eec2f920da06ed99f1d27b580e68072c24ed5d5973769fc2a09d4bc4",
        4038),
    "mis-8c-storm-throttled": (
        "4e3c40994359129dc8f73737934a36c3ba543d97039a20115f9cb9cc1c780d1b",
        3981),
    "mis-8c-transient": (
        "c1e80f5845fd6228c40c8a6f8b37326e803023b7dcb2e5a7ba1dc3ce54c90862",
        5580),
    "mis/fractal@16c": (
        "89e4d4099ebdcf97371e1574612225c00a61aaa5ea2543d80e2e15f388048807",
        10085),
    "refine/flat@8c": (
        "485a20ae93abd0d92f09a5202f0bf4aef293fe99a96e084149ba5a70964c58cb",
        408),
    "refine/fractal@8c": (
        "a8e878cbc282d353e8caf7ee535d38fbe2c1f47d7f97bb3f9441d1ad89f832f2",
        327),
    "refine/specfor@8c": (
        "3e4c304ac347616f64cc3d3afe0fc4a957f789085ef813ac93ea04a7bf6bc0f9",
        1264),
    "refine/swarm@8c": (
        "03e4f26abca62d98a3fbc115fb728cd6e5847c61448018780eb2a684baef5a24",
        1165),
    "spanning/flat@8c": (
        "9e240c28c6aab00364302d358e9d40e6c3bf9a56c439a7477407dd4f662b758e",
        3467),
    "spanning/fractal@8c": (
        "43f1988124adc04a27f6018619e763b967ffe71d719bb071feb57a0df911e9a7",
        2822),
    "spanning/specfor@16c": (
        "f6325aa6bf4ac171af7eb092f1b8cde73dc2df2fb16c97d752d5d5cacdcb6c5a",
        7190),
    "spanning/specfor@8c": (
        "94f84129a4f7258a7cfcfc4b6ef2d008f2106d8ad81c2213391dcf5823a41cb9",
        3190),
    "spanning/swarm@8c": (
        "6c93f24ee2e134cd6d4ebe9a3059e2b9b903960ca90678f85434d53708cdd375",
        3796),
    "zoomtree-4c-spill-zoom": (
        "bf3d2117648e94d706dd9386861073853bdd2f6e5ea4257d8af7e4cba9fa7691",
        80588),
    "zoomtree-8c-vt64": (
        "77511e5d6fa3f90edad9e7c7c6f82d8e66986ee8910d3cacae005d12cb4bddc6",
        2867),
}


def _mis_under(plan, scale=7, **policy):
    faults, resilience = load_fault_file(PLANS / plan)
    resilience = dataclasses.replace(resilience, **policy)
    return run_app(mis, mis.make_input(scale=scale), n_cores=8,
                   faults=faults, resilience=resilience).sim


def _zoomtree():
    cfg = SystemConfig.with_cores(8, vt_bits=64)
    return run_app(zoomtree, zoomtree.make_input(fanout=3, depth=6),
                   config=cfg).sim


def _zoomtree_spill_zoom():
    cfg = SystemConfig.with_cores(4, vt_bits=96, task_queue_per_core=2)
    return run_app(zoomtree, zoomtree.make_input(fanout=4, depth=8,
                                                 work_cycles=300),
                   config=cfg, audit=True).sim


def _mis_zero_penalty():
    cfg = SystemConfig.with_cores(16, abort_penalty=0)
    return run_app(mis, mis.make_input(scale=8, edge_factor=5),
                   config=cfg).sim


def _mis_small_commit_queues():
    cfg = SystemConfig.with_cores(64, commit_queue_per_core=1)
    return run_app(mis, mis.make_input(scale=8, edge_factor=5),
                   config=cfg).sim


def _cq_pressure():
    sim = _build_cq_pressure()
    sim.run()
    return sim


#: seeded PBBS inputs, each run under every variant
PBBS_INPUTS = {
    "spanning": (spanning, dict(scale=5, edge_factor=3, seed=5)),
    "contract": (contract, dict(n=32, seed=9)),
    "refine": (refine, dict(width=8, n_ops=32, seed=11)),
}


def _pbbs(name, variant):
    app, params = PBBS_INPUTS[name]
    return run_app(app, app.make_input(**params), variant=variant,
                   n_cores=8, audit=True, check=True).sim


#: the runs whose hot-path counters ``CEILINGS`` bounds, as (app, cores)
PROFILED = (("mis", 16), ("maxflow", 4), ("spanning", 16))


def _profiled(name, cores):
    """A run as ``repro profile`` makes it: default input, best (last)
    variant, ``SystemConfig.with_cores(cores)`` (Bloom conflicts, seed 0)."""
    module, variants = APPS[name]
    app = importlib.import_module(module)
    return run_app(app, app.make_input(), variant=variants[-1],
                   n_cores=cores).sim


RUNS = {
    # scale 6: at the default scale 7 this plan aborts 1.3M attempts
    "mis-8c-storm": lambda: _mis_under("storm.json", scale=6),
    # the same storm with safe mode out of reach: the livelock detector
    # throttles dispatch to one task per tile instead
    "mis-8c-storm-throttled": lambda: _mis_under(
        "storm.json", scale=6, safe_mode_threshold=1.0),
    "mis-8c-transient": lambda: _mis_under("transient.json"),
    "zoomtree-8c-vt64": _zoomtree,
    # two-task task queues under a three-level VT budget: zoom-ins pull
    # coalescer-spilled tasks into zoom frames, and zooms and compactions
    # re-key spill buffers that still hold tasks
    "zoomtree-4c-spill-zoom": _zoomtree_spill_zoom,
    # with no rollback delay, an aborted attempt frees its core in the
    # cycle being simulated, which no default config does
    "mis-16c-zero-penalty": _mis_zero_penalty,
    "commit-queue-pressure": _cq_pressure,
    # one commit-queue entry per core: most GVT ticks abort one finished
    # task on each of many wedged tiles at once
    "mis-64c-cq1": _mis_small_commit_queues,
    **{f"{name}/{variant}@8c": functools.partial(_pbbs, name, variant)
       for name in PBBS_INPUTS for variant in VARIANTS_PBBS},
    **{f"{name}/{APPS[name][1][-1]}@{cores}c": functools.partial(
        _profiled, name, cores) for name, cores in PROFILED},
}


#: Hot-path counter ceilings, ~1.2x above what the indexed, compacted hot
#: path produces. Scan and probe work per event is a deterministic
#: property of a run, so a reintroduced linear scan, or a GVT frontier
#: that keeps its dead entries (``gvt_peak_entries`` stays near twice the
#: live tasks), fails here even where wall clock is too noisy to tell.
#: ``mem_probe_steps`` bounds all chain-walk work of the memory's
#: conflict checks.
CEILINGS = {
    "mis/fractal@16c": dict(
        gvt_queries=20, gvt_peak_entries=790, gvt_scan_steps=1900,
        queue_scan_steps=1000, mem_probe_steps=22400,
        conflict_probe_steps=1000),
    "maxflow/fractal@4c": dict(
        gvt_queries=4100, gvt_peak_entries=275, gvt_scan_steps=111800,
        queue_scan_steps=5000, mem_probe_steps=40600,
        conflict_probe_steps=5000),
    "spanning/specfor@16c": dict(
        gvt_queries=60, gvt_peak_entries=155, gvt_scan_steps=1300,
        queue_scan_steps=1000, mem_probe_steps=8700,
        conflict_probe_steps=1000),
}


def counters(profile):
    """The ``collect_profile`` counters a ceiling can name."""
    return {
        "gvt_queries": profile["gvt"]["queries"],
        "gvt_peak_entries": profile["gvt"]["peak_entries"],
        "gvt_scan_steps": profile["gvt"]["scan_steps"],
        "queue_scan_steps": profile["queues"]["scan_steps"],
        "mem_probe_steps": profile["memory"]["probe_steps"],
        "conflict_probe_steps": profile["conflict_model"]["probe_steps"],
    }


def measure(name):
    """``(digest, events)`` of one run, and its hot-path profile."""
    sim = RUNS[name]()
    profile = collect_profile(sim)
    return (stable_digest(sim.stats.to_dict()), profile["events"]), profile


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_stats_match_pin(name):
    pin, profile = measure(name)
    assert pin == PINS.get(name)
    got = counters(profile)
    over = {counter: f"{got[counter]} > ceiling {ceiling}"
            for counter, ceiling in CEILINGS.get(name, {}).items()
            if got[counter] > ceiling}
    assert not over, f"{name}: hot-path counters over ceiling: {over}"


def test_ceilings_name_pinned_runs_and_profile_counters():
    assert set(CEILINGS) <= set(RUNS)
    reported = counters(collect_profile(RUNS["refine/flat@8c"]()))
    for name, ceilings in CEILINGS.items():
        assert set(ceilings) <= set(reported), name


if __name__ == "__main__":
    print("PINS = {")
    for name in sorted(RUNS):
        (digest, events), _ = measure(name)
        print(f'    "{name}": (\n        "{digest}",\n        {events}),')
    print("}")
