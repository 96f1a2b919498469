"""benchmarks/perf_smoke.py: a failed profile run cleans up after itself."""

import importlib
import pathlib
import subprocess
import tempfile

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"


def test_failed_profile_run_leaves_no_temp_file(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    perf_smoke = importlib.import_module("perf_smoke")
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(subprocess, "run", lambda cmd, **kw:
                        subprocess.CompletedProcess(cmd, 1, "", "boom\n"))
    with pytest.raises(SystemExit, match="profile run failed for mis@4c"):
        perf_smoke.profile_workload("mis", 4)
    assert list(tmp_path.iterdir()) == []
