"""Farm graceful shutdown (request_stop / SIGTERM drain) and worker-crash
crash bundles.

Drain semantics under test: a stop request mid-sweep lets in-flight jobs
finish — and persist their cache entries — while unstarted jobs fail
fast with a ``farm stopped`` error, and the process pool is shut down
waited-for (never orphaned). The stop triggers are
exercised both directly (:meth:`Farm.request_stop` from a bus
subscriber, deterministic) and through a real mid-run SIGTERM
(:func:`repro.farm.install_sigterm_drain`).
"""

import json
import os
import signal

from repro.farm import Farm, JobSpec, ResultCache, install_sigterm_drain
from repro.faults import validate_crash_bundle
from repro.faults.resilience import ResiliencePolicy

FAKEAPP = "tests.farm._fakeapp"

FAST_RETRY = ResiliencePolicy(backoff_base=1, backoff_factor=1.0,
                              backoff_cap=1)


def specs_for(n, **extra):
    return [JobSpec(app=FAKEAPP, variant="fractal", n_cores=2,
                    input_kwargs={"n_tasks": 4 + i, **extra},
                    label=f"fake-{i}") for i in range(n)]


class StopAfterFirstDone:
    """Bus subscriber that fires a stop action on the first job_done."""

    def __init__(self, action):
        self.action = action
        self.fired = False

    def __call__(self, event):
        if event.KIND == "job_done" and not self.fired:
            self.fired = True
            self.action()


def run_drained(farm, n_jobs, action):
    farm.bus.subscribe(StopAfterFirstDone(action))
    return farm.run(specs_for(n_jobs))


class TestRequestStop:
    def test_drain_finishes_inflight_and_fails_unstarted(self, tmp_path,
                                                         pool_spy):
        cache = ResultCache(tmp_path / "cache")
        farm = Farm(jobs=2, cache=cache, backlog_factor=1, warmup=False)
        pools = pool_spy(farm)
        results = run_drained(farm, 12, farm.request_stop)
        assert len(results) == 12           # every job gets a result row
        done = [r for r in results if r.error is None]
        drained = [r for r in results
                   if r.error is not None and "farm stopped" in r.error]
        assert done and drained             # both populations exist
        assert len(done) + len(drained) == 12
        # every completed job persisted its cache entry
        for r in done:
            assert cache.get(r.digest) is not None
        # the pool was shut down waited-for, not orphaned
        assert [p["wait"] for p in pools] == [True]
        assert farm.n_drained >= 1
        assert farm.n_drain_failed == len(drained)

    def test_drained_farm_runs_again_cleanly(self, tmp_path):
        farm = Farm(jobs=2, backlog_factor=1, warmup=False)
        run_drained(farm, 8, farm.request_stop)
        results = farm.run(specs_for(3))    # fresh run: stop flag cleared
        assert all(r.error is None for r in results)

    def test_inline_farm_drains_too(self):
        farm = Farm(jobs=1)
        results = run_drained(farm, 6, farm.request_stop)
        assert len(results) == 6
        assert results[0].error is None     # the one that triggered stop
        assert any(r.error is not None and "farm stopped" in r.error
                   for r in results)


class TestSigtermDrain:
    def test_mid_run_sigterm_drains_instead_of_orphaning(self, tmp_path,
                                                        pool_spy):
        cache = ResultCache(tmp_path / "cache")
        farm = Farm(jobs=2, cache=cache, backlog_factor=1, warmup=False)
        pools = pool_spy(farm)
        previous = signal.getsignal(signal.SIGTERM)
        install_sigterm_drain(farm)
        try:
            results = run_drained(
                farm, 12,
                lambda: os.kill(os.getpid(), signal.SIGTERM))
            assert len(results) == 12
            done = [r for r in results if r.error is None]
            drained = [r for r in results if r.error is not None]
            assert done and drained
            assert all("farm stopped" in r.error for r in drained)
            for r in done:
                assert cache.get(r.digest) is not None
            # pool shut down waited-for
            assert [p["wait"] for p in pools] == [True]
        finally:
            signal.signal(signal.SIGTERM, previous)
            signal.signal(signal.SIGINT, signal.default_int_handler)


class TestWorkerCrashBundles:
    def test_worker_crash_writes_valid_bundle(self, tmp_path):
        dump_dir = tmp_path / "crashes"
        spec = JobSpec(app=FAKEAPP, variant="fractal", n_cores=2,
                       input_kwargs={"n_tasks": 4, "crash_times": 99,
                                     "scratch": str(tmp_path / "s")},
                       label="crasher")
        farm = Farm(jobs=2, max_attempts=2,
                    retry_policy=FAST_RETRY, warmup=False,
                    crash_dump_dir=str(dump_dir))
        results = farm.run([spec])
        assert results[0].error is not None
        bundles = sorted(dump_dir.glob("crash-farm-*.json"))
        assert len(bundles) == 2            # one per attempt
        for i, path in enumerate(bundles, start=1):
            doc = json.loads(path.read_text())
            validate_crash_bundle(doc)
            assert doc["reason"] == "farm_worker_crash"
            assert doc["farm"]["digest"] == spec.digest()
            assert doc["farm"]["attempt"] == i
            assert f"a{i}" in path.name

    def test_no_dir_means_no_bundle(self, tmp_path):
        spec = JobSpec(app=FAKEAPP, variant="fractal", n_cores=2,
                       input_kwargs={"n_tasks": 4, "crash_times": 99,
                                     "scratch": str(tmp_path / "s")},
                       label="crasher")
        farm = Farm(jobs=2, max_attempts=1,
                    retry_policy=FAST_RETRY, warmup=False)
        results = farm.run([spec])
        assert results[0].error is not None  # crash still surfaces
