"""Farm worker-crash crash bundles: one validated bundle per crashed
attempt when ``crash_dump_dir`` is set, none otherwise."""

import json

from repro.farm.farm import Farm
from repro.farm.job import JobSpec
from repro.faults import validate_crash_bundle

FAKEAPP = "tests.farm._fakeapp"


class TestWorkerCrashBundles:
    def test_worker_crash_writes_valid_bundle(self, tmp_path):
        dump_dir = tmp_path / "crashes"
        spec = JobSpec(app=FAKEAPP, variant="fractal", n_cores=2,
                       input_kwargs={"n_tasks": 4, "crash_times": 99,
                                     "scratch": str(tmp_path / "s")},
                       label="crasher")
        farm = Farm(jobs=2, crash_dump_dir=str(dump_dir))
        results = farm.run([spec])
        assert results[0].error is not None
        bundles = sorted(dump_dir.glob("crash-farm-*.json"))
        assert len(bundles) == 2            # one per attempt (MAX_ATTEMPTS)
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
        farm = Farm(jobs=2)
        results = farm.run([spec])
        assert results[0].error is not None  # crash still surfaces
        assert not list(tmp_path.glob("**/crash-farm-*.json"))
