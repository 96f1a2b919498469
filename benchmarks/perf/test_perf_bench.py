"""Checks on the benchmark's own machinery (run: ``pytest benchmarks/perf -q``)."""

import importlib
import json
import re
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import trace as layertrace  # noqa: E402
import workloads  # noqa: E402

TINY = [workloads.Run("mis", {"scale": 6, "edge_factor": 4}, cores=16)]


@pytest.fixture(scope="module")
def tiny_reps():
    """A plain and a traced repetition of a small mis workload."""
    workloads.WORKLOADS["tiny"] = TINY
    try:
        yield (workloads.run_rep("tiny", seed=0),
               workloads.run_rep("tiny", seed=0, traced=True))
    finally:
        del workloads.WORKLOADS["tiny"]


def test_traced_run_has_plain_digest(tiny_reps):
    plain, traced = tiny_reps
    assert [r["digest"] for r in traced["runs"]] == \
        [r["digest"] for r in plain["runs"]]
    assert traced["trace"]["layers"]["apps"]["calls"] > 0


class Root:
    def run(self, leaf, mid):
        time.sleep(0.002)
        mid.work(leaf)
        leaf.work()


class Mid:
    def work(self, leaf):
        time.sleep(0.003)
        leaf.work()


class Leaf:
    def work(self):
        time.sleep(0.001)


def test_self_times_sum_to_root_span():
    layers = {layertrace.ROOT_LAYER: [(__name__, "Root", ("run",))],
              "mid": [(__name__, "Mid", None)],
              "leaf": [(__name__, "Leaf", None)]}
    with layertrace.Tracer(layers) as tracer:
        Root().run(Leaf(), Mid())
        Leaf().work()  # outside the root span: not counted
    report = tracer.report()
    rows = report["layers"]
    assert {k: r["calls"] for k, r in rows.items()} == \
        {layertrace.ROOT_LAYER: 1, "mid": 1, "leaf": 2}
    assert rows["mid"]["child_calls"] == 1
    assert rows[layertrace.ROOT_LAYER]["child_calls"] == 2
    total = sum(r["self_s"] for r in rows.values())
    assert total == pytest.approx(report["root_s"], abs=1e-4)
    assert rows["mid"]["self_s"] == pytest.approx(0.003, abs=2e-3)

    # calibrated against a faster untraced run, the layers add up to it
    report.update(cost_in=1e-4, cost_out=3e-4)
    cal = layertrace.calibrate_layers(report, report["root_s"] - 1e-3)
    assert sum(r["self_s"] for r in cal.values()) == \
        pytest.approx(report["root_s"] - 1e-3, abs=1e-9)
    assert sum(r["share"] for r in cal.values()) == \
        pytest.approx(1.0)


def test_uninstall_restores_every_attribute():
    from repro.core.task import TaskDesc

    def snapshot():
        attrs = {(TaskDesc, "__init__"): vars(TaskDesc)["__init__"]}
        for targets in layertrace.LAYERS.values():
            for modname, clsname, _ in targets:
                cls = getattr(importlib.import_module(modname), clsname)
                for name, value in vars(cls).items():
                    attrs[(cls, name)] = value
        return attrs

    before = snapshot()
    tracer = layertrace.Tracer().install()
    try:
        patched = snapshot()
        changed = [k for k in before if patched[k] is not before[k]]
        assert len(changed) == len(tracer._patches) > 20
    finally:
        tracer.uninstall()
    after = snapshot()
    assert all(after[k] is before[k] for k in before)


def test_emitted_metrics_are_declared(tiny_reps):
    plain, traced = tiny_reps
    spec = json.loads(bench.SPEC.read_text())
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    e2e = bench.e2e_sample(plain)
    per_layer = bench.layer_metrics(plain["counts"], [traced],
                                    plain["sim_wall_s"])
    for emitted, declared in ((e2e, spec["end_to_end"]),
                              (per_layer, spec["per_layer"])):
        assert all(pattern.fullmatch(name) for name in emitted)
        assert set(emitted) == {m["name"] for m in declared}


def test_corrupt_pin_fails_every_run(tiny_reps):
    plain, _ = tiny_reps
    good = bench.WorkloadResult("tiny", 0, {})
    good.add(plain)
    bad = bench.WorkloadResult("tiny", 0, {"tiny": {"mis": "0" * 64}})
    bad.add(plain)
    assert good.ledger.failed == 0 and good.plain
    assert bad.ledger.failed == bad.ledger.attempted == 1
    assert not bad.plain
