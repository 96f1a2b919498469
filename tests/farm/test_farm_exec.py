"""Farm execution tests: determinism, cache, retries, crash recovery.

The pool tests fork real worker processes running the fake app in
``tests/farm/_fakeapp.py`` (importable in workers because pytest puts the
repo root on ``sys.path`` and fork inherits it).
"""

import pytest

from repro.errors import FarmError
from repro.farm.cache import ResultCache
from repro.farm.farm import Farm
from repro.farm.job import JobSpec, stable_digest
from repro.farm.shard import select_shard

FAKEAPP = "tests.farm._fakeapp"


def specs_for(counts=(4, 6, 8), **extra):
    return [JobSpec(app=FAKEAPP, variant="fractal", n_cores=2,
                    input_kwargs={"n_tasks": n, **extra},
                    label=f"fake-{n}") for n in counts]


def stats_digests(results):
    return [stable_digest(r.stats.to_dict()) for r in results]


class TestInline:
    def test_ordered_ok_results(self):
        farm = Farm(jobs=1)
        results = farm.run(specs_for())
        assert [r.label for r in results] == ["fake-4", "fake-6", "fake-8"]
        assert all(r.ok and not r.cached for r in results)
        assert [r.stats.tasks_committed for r in results] == [4, 6, 8]
        farm.raise_on_failures(results)  # no-op on success
        assert farm.summary()["done"] == 3
        assert farm.summary()["failed"] == 0

    def test_retry_until_success(self, tmp_path):
        spec = JobSpec(app=FAKEAPP, variant="fractal", n_cores=2,
                       input_kwargs={"n_tasks": 4, "fail_times": 1,
                                     "scratch": str(tmp_path / "s")})
        farm = Farm(jobs=1)
        (res,) = farm.run([spec])
        assert res.ok
        assert res.attempts == 2
        assert farm.summary()["retries"] == 1

    def test_retries_exhausted_reported_not_raised(self, tmp_path):
        spec = JobSpec(app=FAKEAPP, variant="fractal", n_cores=2,
                       input_kwargs={"n_tasks": 4, "fail_times": 99,
                                     "scratch": str(tmp_path / "s")},
                       label="doomed")
        farm = Farm(jobs=1)
        (res,) = farm.run([spec])
        assert not res.ok
        assert "transient fake-app failure" in res.error
        assert res.attempts == 2
        with pytest.raises(FarmError) as err:
            farm.raise_on_failures([res])
        assert err.value.failures == [("doomed", res.error)]

    def test_shard_filter(self):
        specs = specs_for(counts=(4, 5, 6, 7, 8, 9))
        full = {s.digest() for s in specs}
        seen = set()
        for k in (1, 2, 3):
            shard = select_shard(specs, k, 3, key=JobSpec.digest)
            results = Farm(jobs=1).run(shard)
            assert seen.isdisjoint(r.digest for r in results)
            seen.update(r.digest for r in results)
        assert seen == full


class TestCacheIntegration:
    def test_second_run_all_hits(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="t1")
        cold = Farm(jobs=1, cache=cache)
        first = cold.run(specs_for())
        assert all(not r.cached for r in first)
        warm = Farm(jobs=1, cache=cache)
        second = warm.run(specs_for())
        assert all(r.cached for r in second)
        assert warm.summary()["cache_hits"] == 3
        assert stats_digests(first) == stats_digests(second)

    def test_timeout_partial_result_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="t1")
        spec = JobSpec(app=FAKEAPP, variant="fractal", n_cores=1,
                       input_kwargs={"n_tasks": 50_000,
                                     "work_cycles": 1000})
        farm = Farm(jobs=1, cache=cache, timeout_s=0.01)
        (res,) = farm.run([spec])
        assert res.ok                    # graceful stop, not an error
        assert not res.stats.completed   # but the run is partial
        assert res.stats.failure is not None
        assert cache.entries() == 0      # partials never cached
        # and the timed spec is a distinct content address
        assert farm._with_timeout(spec).digest() != spec.digest()


class TestPool:
    def test_parallel_matches_inline(self):
        specs = specs_for()
        inline = Farm(jobs=1).run(specs_for())
        pooled = Farm(jobs=2).run(specs)
        assert [r.label for r in pooled] == [r.label for r in inline]
        assert stats_digests(pooled) == stats_digests(inline)

    def test_pool_retry(self, tmp_path):
        specs = specs_for(counts=(4, 6))
        specs.append(JobSpec(app=FAKEAPP, variant="fractal", n_cores=2,
                             input_kwargs={"n_tasks": 4, "fail_times": 1,
                                           "scratch": str(tmp_path / "s")}))
        farm = Farm(jobs=2)
        results = farm.run(specs)
        assert all(r.ok for r in results)
        assert results[-1].attempts == 2
        assert farm.summary()["retries"] == 1

    def test_worker_crash_recovery(self, tmp_path):
        specs = specs_for(counts=(4, 6))
        specs.append(JobSpec(app=FAKEAPP, variant="fractal", n_cores=2,
                             input_kwargs={"n_tasks": 4, "crash_times": 1,
                                           "scratch": str(tmp_path / "s")},
                             label="crasher"))
        farm = Farm(jobs=2)
        results = farm.run(specs)
        assert [r.label for r in results][:2] == ["fake-4", "fake-6"]
        assert all(r.ok for r in results)
        assert farm.summary()["worker_crashes"] >= 1

    def test_crash_exhausts_attempts(self, tmp_path):
        spec = JobSpec(app=FAKEAPP, variant="fractal", n_cores=2,
                       input_kwargs={"n_tasks": 4, "crash_times": 99,
                                     "scratch": str(tmp_path / "s")},
                       label="always-crashes")
        farm = Farm(jobs=2)
        (res,) = farm.run([spec])
        assert not res.ok
        assert "crash" in res.error or "broke" in res.error
        with pytest.raises(FarmError):
            farm.raise_on_failures([res])


class TestSweepCores:
    def test_sweep_jobs_param_matches_serial(self):
        from repro.apps import zoomtree
        from repro.bench.harness import sweep_cores

        inp = zoomtree.make_input(fanout=2, depth=3)
        serial = sweep_cores(zoomtree, inp, ["fractal"], [1, 2])
        parallel = sweep_cores(zoomtree, inp, ["fractal"], [1, 2],
                               farm=Farm(jobs=2))
        assert stats_digests(serial) == stats_digests(parallel)
        assert all(r.cached for r in parallel)  # no live simulator
        with pytest.raises(AttributeError):
            parallel[0].sim
