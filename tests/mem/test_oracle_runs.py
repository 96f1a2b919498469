"""Full simulations agree under production ``SpecMemory`` and the
chain-walk oracle.

Each case runs one app twice: once as shipped, and once with
:class:`ChainWalkMemory` (premature accesses found by walking the line's
writer chain over each writer's ``still_executing()``) patched in as the
simulator's memory. The two ``RunStats`` digests must be equal. The runs
are bounded by ``max_cycles`` so a memory that livelocks (a stale
in-flight index aborts every later accessor forever) raises instead of
hanging.
"""

import pytest

import repro.core.simulator as simulator
from repro import SystemConfig
from repro.apps import maxflow, mis, silo
from repro.apps.stamp import intruder
from repro.bench.harness import run_app
from repro.farm.job import stable_digest

from .inflight_oracle import ChainWalkMemory

#: name -> (app, input kwargs, cores, conflict mode, max_cycles), with
#: max_cycles well above each run's makespan
CASES = {
    "mis-16c-precise": (mis, {}, 16, "precise", 50_000),
    "maxflow-4c-precise": (maxflow, {"b": 3, "layers": 3}, 4, "precise",
                           1_000_000),
    "silo-8c-precise": (silo, {}, 8, "precise", 50_000),
    "mis-16c-bloom": (mis, {}, 16, "bloom", 50_000),
    "intruder-8c-bloom": (intruder, {}, 8, "bloom", 50_000),
}


def _digest(memory_cls, app, kwargs, cores, conflicts, max_cycles):
    cfg = SystemConfig.with_cores(cores, conflict_mode=conflicts)
    run = run_app(app, app.make_input(**kwargs), n_cores=cores, config=cfg,
                  max_cycles=max_cycles)
    assert type(run.handles["_sim"].memory) is memory_cls
    return stable_digest(run.stats.to_dict())


@pytest.mark.parametrize("case", CASES)
def test_production_matches_chain_walk_oracle(case, monkeypatch):
    production = _digest(simulator.SpecMemory, *CASES[case])
    monkeypatch.setattr(simulator, "SpecMemory", ChainWalkMemory)
    assert _digest(ChainWalkMemory, *CASES[case]) == production
