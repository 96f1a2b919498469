"""benchmarks/run_all.py CLI tests: selection, failure summary, summary JSON.

The real bench modules take minutes; these tests point run_all at tiny
stand-in bench modules written to a tmp dir and monkeypatched into
``BENCHES``.
"""

import importlib
import json
import pathlib
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"


@pytest.fixture()
def run_all():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        yield importlib.import_module("run_all")
    finally:
        while str(BENCH_DIR) in sys.path:
            sys.path.remove(str(BENCH_DIR))


@pytest.fixture()
def fake_benches(run_all, tmp_path, monkeypatch):
    """Three stand-in bench modules: two pass, one raises."""
    # snapshot the env keys main() mutates so teardown restores them
    monkeypatch.setenv("REPRO_BENCH_CACHE", "0")
    (tmp_path / "bench_alpha.py").write_text(
        "print('alpha table')\n")
    (tmp_path / "bench_beta.py").write_text(
        "print('beta table')\n")
    (tmp_path / "bench_broken.py").write_text(
        "raise RuntimeError('bench exploded')\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setattr(run_all, "BENCHES",
                        ["bench_alpha", "bench_beta", "bench_broken"])
    return run_all


class TestSelection:
    def test_only_and_prefix_optional(self, fake_benches):
        sel = fake_benches.resolve_selection(only=["alpha,bench_beta"])
        assert sel == ["bench_alpha", "bench_beta"]

    def test_skip(self, fake_benches):
        sel = fake_benches.resolve_selection(skip=["broken"])
        assert sel == ["bench_alpha", "bench_beta"]

    def test_unknown_name_rejected(self, fake_benches):
        with pytest.raises(SystemExit):
            fake_benches.resolve_selection(only=["nope"])

    def test_list_flag(self, fake_benches, capsys, tmp_path):
        rc = fake_benches.main(["--list", "--skip", "broken"])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["bench_alpha", "bench_beta"]

    def test_shard_flag_partitions(self, fake_benches, capsys):
        names = set()
        for k in (1, 2):
            fake_benches.main(["--list", "--shard", f"{k}/2"])
            names.update(capsys.readouterr().out.split())
        assert names == {"bench_alpha", "bench_beta", "bench_broken"}

    def test_shard_assignment_pinned(self, fake_benches, capsys):
        # Pin the hash-based assignment: any change to the shard function
        # silently reshuffles CI matrix slices, so lock it down.
        fake_benches.main(["--list", "--shard", "1/2"])
        assert capsys.readouterr().out.split() == ["bench_beta",
                                                   "bench_broken"]
        fake_benches.main(["--list", "--shard", "2/2"])
        assert capsys.readouterr().out.split() == ["bench_alpha"]

    def test_shard_of_filtered_list_is_stable(self, fake_benches, capsys):
        # --shard composes with --only/--skip by sharding the *filtered*
        # list, and hash assignment is stable under subsetting: dropping
        # bench_beta must not move the survivors between shards.
        fake_benches.main(["--list", "--skip", "beta", "--shard", "1/2"])
        assert capsys.readouterr().out.split() == ["bench_broken"]
        fake_benches.main(["--list", "--only", "alpha,broken",
                           "--shard", "2/2"])
        assert capsys.readouterr().out.split() == ["bench_alpha"]

    @pytest.mark.parametrize("bad", ["three", "0/2", "3/2", "1/0", "a/b"])
    def test_malformed_shard_exits_cleanly(self, fake_benches, bad):
        # Regression: a bad K/N used to escape as a raw ConfigError
        # traceback instead of a usage-style exit.
        with pytest.raises(SystemExit) as exc:
            fake_benches.main(["--list", "--shard", bad])
        assert "--shard" in str(exc.value)

    @pytest.mark.parametrize("flag,value", [("--cores", "0"),
                                            ("--cores", "1,x"),
                                            ("--cores", ",4"),
                                            ("--cores", "16"),
                                            ("--cores", "4,16"),
                                            ("--jobs", "0")])
    def test_bad_cores_or_jobs_is_a_usage_error(self, fake_benches, capsys,
                                                flag, value):
        # Regression: these used to start every bench, each failing with
        # a traceback (--cores; without 1 a KeyError, since the sweeps
        # normalise to the 1-core run) or silently running serially
        # (--jobs 0).
        with pytest.raises(SystemExit) as exc:
            fake_benches.main(["--list", flag, value])
        assert exc.value.code == 2
        assert f"error: argument {flag}" in capsys.readouterr().err


class TestExecution:
    def test_success_run_and_summary(self, fake_benches, tmp_path, capsys):
        out_path = tmp_path / "summary.json"
        rc = fake_benches.main(["--only", "alpha,beta", "--no-cache",
                                "--summary-out", str(out_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "alpha table" in out and "beta table" in out
        doc = json.loads(out_path.read_text())
        assert doc["schema"] == "repro.bench-summary/1"
        assert doc["ok"] is True
        assert [b["name"] for b in doc["benches"]] == ["bench_alpha",
                                                       "bench_beta"]
        assert all(b["ok"] for b in doc["benches"])
        assert set(doc["cache"]) == {"hits", "misses"}

    def test_failure_summary_and_exit_code(self, fake_benches, tmp_path,
                                           capsys):
        out_path = tmp_path / "summary.json"
        rc = fake_benches.main(["--no-cache",
                                "--summary-out", str(out_path)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "alpha table" in captured.out   # others still ran
        assert "1 of 3 benches FAILED" in captured.err
        assert "bench_broken" in captured.err
        assert "bench exploded" in captured.err
        doc = json.loads(out_path.read_text())
        assert doc["ok"] is False
        broken = next(b for b in doc["benches"]
                      if b["name"] == "bench_broken")
        assert not broken["ok"]
        assert "bench exploded" in broken["error"]

    def test_parallel_jobs_same_outputs(self, fake_benches, tmp_path,
                                        capsys):
        out_path = tmp_path / "summary.json"
        rc = fake_benches.main(["--only", "alpha,beta", "--jobs", "2",
                                "--no-cache",
                                "--summary-out", str(out_path)])
        assert rc == 0
        out = capsys.readouterr().out
        # outputs print in submission order even under --jobs
        assert out.index("alpha table") < out.index("beta table")
        doc = json.loads(out_path.read_text())
        assert doc["jobs"] == 2 and doc["ok"] is True

    def test_run_bench_reports_cache_stats(self, fake_benches, tmp_path,
                                           monkeypatch):
        # the same run twice: the first executes, the second is a hit
        (tmp_path / "bench_counts.py").write_text(
            "from _common import run_once\n"
            "from tests.farm import _fakeapp\n"
            "for _ in range(2):\n"
            "    run_once(_fakeapp, _fakeapp.make_input(n_tasks=4),\n"
            "             'fractal', 2)\n")
        monkeypatch.setenv("REPRO_BENCH_CACHE", "1")
        monkeypatch.setenv("REPRO_BENCH_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setattr(importlib.import_module("_common"), "_CACHE",
                            None)
        rec = fake_benches.run_bench("bench_counts")
        assert rec["error"] is None
        assert rec["cache"] == {"hits": 1, "misses": 1}
