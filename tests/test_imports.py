"""Every module in the ``repro`` package imports cleanly, and every
package's ``__all__`` names something that exists.

Walks the package tree, so a module-level import of a deleted or renamed
module fails here even when no other test happens to import the module
that holds it. A bloom-mode simulation must not load numpy at all,
checked graph-app and STAMP runs must not need networkx, numpy or scipy,
and a run plus its digest must load neither the farm nor OpenSSL. The
packages load their names on first use, so a plain run loads only the
modules it executes.
"""

import hashlib
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.apps import maxflow, stamp
from repro.bench.harness import run_app
from repro.farm.job import canonical_json, stable_digest

#: ``__main__`` modules run their CLI on import, so they are left out
MODULES = sorted(info.name for info in
                 pkgutil.walk_packages(repro.__path__, prefix="repro.")
                 if not info.name.endswith(".__main__"))


def test_walk_finds_the_package_tree():
    assert "repro.cli" in MODULES
    assert "repro.farm.farm" in MODULES
    assert "repro.core.simulator" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(name)


def test_every_package_export_resolves():
    """Each name in each package's ``__all__`` is an attribute of it, so
    a deletion cannot leave a stale export behind."""
    missing = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if not info.ispkg:
            continue
        pkg = importlib.import_module(info.name)
        missing += [f"{info.name}.{n}" for n in getattr(pkg, "__all__", ())
                    if not hasattr(pkg, n)]
    missing += [f"repro.{n}" for n in repro.__all__ if not hasattr(repro, n)]
    assert not missing


def run_fresh(script):
    """Run ``script`` in a fresh interpreter that imports this ``repro``;
    fails the test on a non-zero exit, else returns its stdout."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_bloom_simulation_does_not_load_numpy():
    """The simulator, its memory layer and the Bloom signatures are plain
    Python: importing numpy would cost every run its start-up time and
    memory. Runs in a fresh interpreter, since this one may have numpy."""
    run_fresh(textwrap.dedent("""
        import sys
        import repro
        from repro.apps import mis
        from repro.bench.harness import run_app
        from repro.config import SystemConfig
        cfg = SystemConfig.with_cores(4, conflict_mode="bloom")
        run = run_app(mis, mis.make_input(scale=5), variant="fractal",
                      n_cores=4, config=cfg)
        assert run.stats.tasks_committed > 0
        assert "numpy" not in sys.modules, "numpy was imported"
    """))


@pytest.mark.parametrize("module,inp,variant", [
    ("repro.apps.maxflow", "b=2, layers=3", "fractal"),
    ("repro.apps.msf", "scale=4, edge_factor=3", "fractal"),
    ("repro.apps.pbbs.spanning", "scale=4, edge_factor=3", "specfor"),
    ("repro.apps.swarm.bfs", "scale=4, edge_factor=3", "swarm"),
    ("repro.apps.swarm.sssp", "scale=4, edge_factor=3", "swarm"),
])
def test_graph_app_check_needs_no_networkx(module, inp, variant):
    """networkx is a test-only cross-check: every graph app's result check
    runs on its plain-Python oracle in an interpreter that cannot import
    networkx."""
    run_fresh(textwrap.dedent(f"""
        import importlib, sys
        sys.modules["networkx"] = None  # any import of it now fails
        from repro.bench.harness import run_app
        app = importlib.import_module("{module}")
        run = run_app(app, app.make_input({inp}), variant="{variant}",
                      n_cores=4, check=True)
        assert run.stats.tasks_committed > 0
    """))


@pytest.mark.parametrize("name", stamp.__all__)
def test_stamp_check_needs_no_numpy_or_scipy(name):
    """numpy and scipy are test-only: yada reads its Delaunay mesh from a
    committed table, so every STAMP app builds its default input, runs and
    passes its result check in an interpreter that cannot import either."""
    run_fresh(textwrap.dedent(f"""
        import sys
        sys.modules["numpy"] = sys.modules["scipy"] = None
        from repro.apps.stamp import {name} as app
        from repro.bench.harness import run_app
        run = run_app(app, app.make_input(), variant="fractal", n_cores=4,
                      check=True)
        assert run.stats.tasks_committed > 0
    """))


def test_run_and_digest_load_neither_farm_nor_openssl():
    """One checked run plus its ``RunStats`` digest is what every bench
    child, farm worker and benchmark repetition does: it must not pay for
    the farm's scheduler, cache, validation or sharding, for
    ``multiprocessing``, or for OpenSSL (``hashlib`` loads ``_hashlib``)."""
    run_fresh(textwrap.dedent("""
        import sys
        from repro.apps import maxflow
        from repro.bench.harness import run_app
        from repro.farm.job import stable_digest
        run = run_app(maxflow, maxflow.make_input(b=2, layers=3), check=True)
        assert len(stable_digest(run.stats.to_dict())) == 64
        loaded = [m for m in ("_hashlib", "multiprocessing",
                              "concurrent.futures", "repro.farm.farm",
                              "repro.farm.cache", "repro.farm.validate",
                              "repro.farm.shard") if m in sys.modules]
        assert not loaded, f"loaded: {loaded}"
    """))


def test_digest_without_builtin_sha256_falls_back_to_hashlib():
    """With neither ``_sha2`` (3.12+) nor ``_sha256`` (3.10, 3.11)
    importable, ``stable_digest`` uses ``hashlib`` and yields the same
    digests, so each Python version's import branch agrees with the
    others."""
    doc = {"app": "maxflow", "cores": [1, 4, 16], "ratio": 0.5,
           "tags": {"b", "a"}}
    stats = run_app(maxflow, maxflow.make_input(b=2, layers=3),
                    check=True).stats.to_dict()
    out = run_fresh(textwrap.dedent(f"""
        import hashlib, json, sys
        sys.modules["_sha256"] = sys.modules["_sha2"] = None
        from repro.apps import maxflow
        from repro.bench.harness import run_app
        from repro.farm import job
        assert job.sha256 is hashlib.sha256
        stats = run_app(maxflow, maxflow.make_input(b=2, layers=3),
                        check=True).stats.to_dict()
        print(json.dumps([job.stable_digest({doc!r}),
                          job.stable_digest(stats)]))
    """))
    for obj, got in zip((doc, stats), json.loads(out)):
        assert got == stable_digest(obj)
        assert got == hashlib.sha256(
            canonical_json(obj).encode()).hexdigest()


#: what a plain run never executes: fault injection and resilience, the
#: serial executor, the audit, the high-level API, the exporters, and the
#: stdlib modules of the farm's two error paths
NOT_IN_A_PLAIN_RUN = ("repro.faults", "repro.core.audit", "repro.core.serial",
                      "repro.core.highlevel", "repro.telemetry.export",
                      "repro.telemetry.perfetto", "pickle", "traceback")


def test_plain_run_loads_only_what_it_executes():
    """A checked run, its digest and its profile (what every bench child
    and farm worker does) load none of the modules that only faults,
    resilience, audits, exports or failures use."""
    out = run_fresh(textwrap.dedent(f"""
        import sys
        from repro.apps import maxflow
        from repro.bench.harness import run_app
        from repro.farm.job import stable_digest
        from repro.telemetry.profiling import collect_profile
        run = run_app(maxflow, maxflow.make_input(b=2, layers=3), check=True)
        assert len(stable_digest(run.stats.to_dict())) == 64
        assert collect_profile(run.sim)["events"] > 0
        print(sorted(m for m in sys.modules
                     if m.startswith({NOT_IN_A_PLAIN_RUN!r})))
    """))
    assert out.strip() == "[]"


def test_fault_machinery_loads_when_a_run_uses_it():
    """The positive control: a run given a fault plan and a resilience
    policy loads them on first use, injects faults and absorbs them."""
    run_fresh(textwrap.dedent("""
        import sys
        from repro.apps import maxflow
        from repro.bench.harness import run_app
        from repro.faults import FaultPlan, ResiliencePolicy
        run = run_app(maxflow, maxflow.make_input(b=2, layers=3), check=True,
                      faults=FaultPlan(seed=3, task_exception_rate=0.2),
                      resilience=ResiliencePolicy(max_attempts=10))
        assert run.stats.completed
        assert run.stats.faults_injected > 0
        assert run.stats.exec_fault_retries > 0
        assert "repro.faults.injector" in sys.modules
    """))


def test_cli_loads_flag_modules_on_use():
    """``import repro.cli`` loads neither the fault plan and resilience
    policy, the exporters nor the ASCII chart: the command or flag that
    uses one imports it."""
    out = run_fresh(textwrap.dedent("""
        import sys
        import repro.cli
        print(sorted(m for m in sys.modules if m.startswith((
            "repro.faults.", "repro.telemetry.export",
            "repro.telemetry.perfetto", "repro.bench.plots"))))
    """))
    assert out.strip() == "[]"


PACKAGES = sorted(info.name for info in
                  pkgutil.walk_packages(repro.__path__, prefix="repro.")
                  if info.ispkg) + ["repro"]


@pytest.mark.parametrize("name", PACKAGES)
def test_lazy_namespace_keeps_the_public_surface(name):
    """Each package lists every exported name in ``dir()``, binds all of
    them on ``import *``, and names itself for an unknown attribute."""
    pkg = importlib.import_module(name)
    exported = getattr(pkg, "__all__", None)
    if exported is not None:
        assert set(exported) <= set(dir(pkg))
        ns = {}
        exec(f"from {name} import *", ns)
        assert set(exported) <= set(ns)
    with pytest.raises(AttributeError, match=repr(name)):
        pkg.no_such_name


def test_validate_module_runs_without_a_second_import():
    """``python -m repro.telemetry.validate`` loads its module once: the
    package looks its names up lazily, so runpy finds no earlier copy of
    the module (which it reports as a RuntimeWarning, an error here)."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         "repro.telemetry.validate"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("usage:")
