"""``REPRO_BENCH_CORES`` is checked the way ``run_all.py --cores`` is.

Every figure sweep normalises to its 1-core run, so a core list without 1
must be refused before any run starts, whether a bench is started by
``run_all.py`` or on its own.
"""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"
SRC_DIR = BENCH_DIR.parent / "src"


@pytest.fixture()
def common(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    return importlib.import_module("_common")


def test_default_sweep_without_the_variable(common, monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_CORES", raising=False)
    assert common.core_counts() == list(common.DEFAULT_CORES)


def test_variable_sets_the_sweep(common, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_CORES", "1,4,16")
    assert common.core_counts() == [1, 4, 16]


@pytest.mark.parametrize("value, message", [
    ("16", "'16' must include 1 (speedups are relative to 1 core)"),
    ("4,16", "'4,16' must include 1 (speedups are relative to 1 core)"),
    ("1,x", "'x' is not a positive integer"),
])
def test_bad_variable_is_a_usage_error(common, monkeypatch, capsys,
                                       value, message):
    monkeypatch.setenv("REPRO_BENCH_CORES", value)
    with pytest.raises(SystemExit) as exc:
        common.core_counts()
    assert exc.value.code == 2
    assert f"error: REPRO_BENCH_CORES: {message}" in capsys.readouterr().err


def test_standalone_bench_refuses_a_sweep_without_one_core():
    env = dict(os.environ, REPRO_BENCH_CORES="16", REPRO_BENCH_CACHE="0",
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(SRC_DIR), os.environ.get("PYTHONPATH"))
                   if p))
    res = subprocess.run(
        [sys.executable, str(BENCH_DIR / "bench_fig06_mis.py")],
        capture_output=True, text=True, env=env, cwd=str(BENCH_DIR),
        timeout=300)
    assert res.returncode == 2, res.stderr
    # the same words as `run_all.py --cores 16`
    assert ("bench_fig06_mis.py: error: REPRO_BENCH_CORES: '16' must "
            "include 1 (speedups are relative to 1 core)") in res.stderr
    assert res.stdout == ""
