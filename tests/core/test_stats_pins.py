"""Pinned ``RunStats`` digests for paths the repo benchmark does not run.

``benchmarks/perf/pins.json`` pins the four benchmark workloads. These
runs cover what they skip: safe mode and livelock throttling (the storm
fault plan), exception retries that unwind inside a task body (the
transient plan), zoom-park aborts of tasks that already spawned children,
and commit-queue pressure aborts. Host-side optimizations of the
simulator must reproduce every digest exactly.

Print the current digests with::

    PYTHONPATH=src python -m tests.core.test_stats_pins
"""

import dataclasses
import pathlib

import pytest

from repro import SystemConfig
from repro.apps import mis, zoomtree
from repro.bench.harness import run_app
from repro.faults.plan import load_fault_file
from repro.farm import stable_digest

from .test_commit_queue_pressure import _build as _build_cq_pressure

PLANS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "faultplans"

PINS = {
    "mis-8c-storm":
        "e556dd73eec2f920da06ed99f1d27b580e68072c24ed5d5973769fc2a09d4bc4",
    "mis-8c-storm-throttled":
        "4e3c40994359129dc8f73737934a36c3ba543d97039a20115f9cb9cc1c780d1b",
    "mis-8c-transient":
        "c1e80f5845fd6228c40c8a6f8b37326e803023b7dcb2e5a7ba1dc3ce54c90862",
    "zoomtree-8c-vt64":
        "77511e5d6fa3f90edad9e7c7c6f82d8e66986ee8910d3cacae005d12cb4bddc6",
    "commit-queue-pressure":
        "c6a970f7cb68079df4c9b9ef481cc46646ace541c76bfa104a7481984690b145",
}


def _mis_under(plan, scale=7, **policy):
    faults, resilience = load_fault_file(PLANS / plan)
    resilience = dataclasses.replace(resilience, **policy)
    return run_app(mis, mis.make_input(scale=scale), n_cores=8,
                   faults=faults, resilience=resilience).stats


def _zoomtree():
    cfg = SystemConfig.with_cores(8, vt_bits=64)
    return run_app(zoomtree, zoomtree.make_input(fanout=3, depth=6),
                   config=cfg).stats


RUNS = {
    # scale 6: at the default scale 7 this plan aborts 1.3M attempts
    "mis-8c-storm": lambda: _mis_under("storm.json", scale=6),
    # the same storm with safe mode out of reach: the livelock detector
    # throttles dispatch to one task per tile instead
    "mis-8c-storm-throttled": lambda: _mis_under(
        "storm.json", scale=6, safe_mode_threshold=1.0),
    "mis-8c-transient": lambda: _mis_under("transient.json"),
    "zoomtree-8c-vt64": _zoomtree,
    "commit-queue-pressure": lambda: _build_cq_pressure().run(),
}


def digest(name):
    return stable_digest(RUNS[name]().to_dict())


@pytest.mark.parametrize("name", sorted(PINS))
def test_run_stats_match_pin(name):
    assert digest(name) == PINS[name]


if __name__ == "__main__":
    for name in sorted(RUNS):
        print(f"{name}: {digest(name)}")
