"""Crash bundles: building, writing, validating, and the CLI validator."""

import json

import pytest

from repro import Ordering, Simulator, SystemConfig
from repro.cli import main as cli_main
from repro.core.task import TaskState
from repro.errors import FractalError, TaskExecutionError
from repro.faults import FaultPlan
from repro.faults.crashdump import (CRASH_BUNDLE_SCHEMA, build_crash_bundle,
                                    validate_crash_bundle, write_crash_bundle)

from ..core.gvt_oracle import gvt_linear
from .conftest import build_counter_sim


def _crashed_sim(tmp_path):
    """A simulator that just died on an injected fatal task exception."""
    plan = FaultPlan(seed=1, task_exception_rate=1.0)
    sim = build_counter_sim(
        4, 4, sim_kwargs=dict(faults=plan, crash_dump_dir=str(tmp_path)))
    with pytest.raises(TaskExecutionError):
        sim.run()
    return sim


def _misuse_body(ctx):
    ctx.store(64, 1)
    ctx.compute(-1)                     # typed API misuse: FractalError


def _later_body(ctx, i):
    ctx.store(128 * (i + 2), i)


class TestBundleFromRealFailure:
    def test_library_error_in_a_body_keeps_the_gvt(self, tmp_path):
        """A library error escaping a running body reaches the crash
        bundle while the attempt is still RUNNING. The bundle's GVT must
        count it by its full key, as the linear oracle does."""
        cfg = SystemConfig.with_cores(8, conflict_mode="precise")
        sim = Simulator(cfg, root_ordering=Ordering.ORDERED_32,
                        crash_dump_dir=str(tmp_path))
        for i in range(6):
            sim.enqueue_root(_later_body, i, ts=i + 1, hint=0)
        sim.enqueue_root(_misuse_body, ts=0, hint=1)
        with pytest.raises(FractalError):
            sim.run()
        running = [t for t in sim._live if t.state is TaskState.RUNNING]
        assert [t.label for t in running] == ["_misuse_body"]
        # off core 0, the full key's tiebreaker differs from the pending
        # entry's lower bound, so a missing run entry would show
        assert running[0].core.cid != 0
        with open(sim.crash_bundle_path) as fh:
            doc = json.load(fh)
        expect = gvt_linear(sim, sim.alloc.lower_bound(sim.now))
        assert expect == running[0].order_key
        assert doc["gvt"] == repr(expect)


    def test_dump_written_and_valid(self, tmp_path):
        sim = _crashed_sim(tmp_path)
        assert sim.crash_bundle_path is not None
        with open(sim.crash_bundle_path) as fh:
            doc = json.load(fh)
        validate_crash_bundle(doc)          # raises on any malformation
        assert doc["schema"] == CRASH_BUNDLE_SCHEMA
        assert doc["reason"] == "TaskExecutionError"
        assert doc["error"]["type"] == "TaskExecutionError"
        assert doc["run"] == "counter"
        assert doc["injections"].get("task_exception", 0) > 0
        assert doc["n_events_seen"] >= len(doc["events"]) > 0
        assert len(doc["tiles"]) == sim.config.n_tiles

    def test_build_without_dump_dir_is_pure(self):
        plan = FaultPlan(seed=1, task_exception_rate=1.0)
        sim = build_counter_sim(4, 4, sim_kwargs=dict(faults=plan))
        with pytest.raises(TaskExecutionError) as exc_info:
            sim.run()
        assert sim.crash_bundle_path is None   # no dir configured: no file
        doc = build_crash_bundle(sim, "manual", exc_info.value)
        json.dumps(doc)                        # JSON-safe even with no ring
        assert doc["events"] == []
        assert doc["error"]["type"] == "TaskExecutionError"

    def test_deterministic_filename_overwrites(self, tmp_path):
        plan = FaultPlan(seed=1, task_exception_rate=1.0)
        sim = build_counter_sim(4, 4, sim_kwargs=dict(faults=plan))
        with pytest.raises(TaskExecutionError):
            sim.run()
        first = write_crash_bundle(sim, str(tmp_path), "manual")
        second = write_crash_bundle(sim, str(tmp_path), "manual")
        assert first == second
        assert len(list(tmp_path.iterdir())) == 1


class TestValidation:
    def _valid_doc(self, tmp_path):
        sim = _crashed_sim(tmp_path)
        with open(sim.crash_bundle_path) as fh:
            return json.load(fh)

    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            validate_crash_bundle([1, 2])

    def test_rejects_wrong_schema(self, tmp_path):
        doc = self._valid_doc(tmp_path)
        doc["schema"] = "repro.crash/999"
        with pytest.raises(ValueError, match="bad schema"):
            validate_crash_bundle(doc)

    def test_rejects_missing_top_level_key(self, tmp_path):
        doc = self._valid_doc(tmp_path)
        del doc["gvt"]
        with pytest.raises(ValueError, match="missing bundle keys"):
            validate_crash_bundle(doc)

    def test_rejects_malformed_live_task(self, tmp_path):
        doc = self._valid_doc(tmp_path)
        doc["live_tasks"] = [{"tid": 1}]
        with pytest.raises(ValueError, match="live_tasks"):
            validate_crash_bundle(doc)

    def test_rejects_malformed_event(self, tmp_path):
        doc = self._valid_doc(tmp_path)
        doc["events"] = [{"kind": "no_such_event_kind"}]
        with pytest.raises(ValueError, match="events\\[0\\]"):
            validate_crash_bundle(doc)


def main(paths):
    """``python -m repro crash-validate PATHS...`` in-process."""
    return cli_main(["crash-validate", *paths])


class TestValidatorCli:
    def test_valid_bundle_returns_zero(self, tmp_path, capsys):
        sim = _crashed_sim(tmp_path)
        assert main([sim.crash_bundle_path]) == 0
        assert "ok" in capsys.readouterr().out

    def test_invalid_bundle_returns_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "nope"}))
        assert main([str(path)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_no_arguments_returns_two(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([])
        assert exit_info.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_truncated_json_returns_four_without_traceback(
            self, tmp_path, capsys):
        sim = _crashed_sim(tmp_path)
        with open(sim.crash_bundle_path) as fh:
            whole = fh.read()
        path = tmp_path / "torn.json"
        path.write_text(whole[:len(whole) // 2])   # crash mid-write
        assert main([str(path)]) == 4
        err = capsys.readouterr().err
        assert "INVALID JSON (truncated or garbage)" in err
        assert "line" in err and "column" in err
        assert "Traceback" not in err

    def test_garbage_bytes_return_four(self, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_bytes(b"\x00\xff not json")
        assert main([str(path)]) == 4
        assert "INVALID JSON" in capsys.readouterr().err

    def test_missing_file_returns_four(self, tmp_path, capsys):
        assert main([str(tmp_path / "never-written.json")]) == 4
        assert "UNREADABLE" in capsys.readouterr().err

    def test_wrong_field_type_names_the_field(self, tmp_path, capsys):
        sim = _crashed_sim(tmp_path)
        with open(sim.crash_bundle_path) as fh:
            doc = json.load(fh)
        doc["live_tasks"] = "not-a-list"
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(doc))
        assert main([str(path)]) == 1
        err = capsys.readouterr().err
        assert "'live_tasks' must be a list" in err
        assert "got str" in err

    def test_worst_exit_code_wins_across_files(self, tmp_path, capsys):
        sim = _crashed_sim(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "nope"}))
        torn = tmp_path / "torn.json"
        torn.write_text("{")
        # every file is reported, not just the first failure
        assert main([sim.crash_bundle_path, str(bad), str(torn)]) == 4
        captured = capsys.readouterr()
        assert "ok" in captured.out
        assert "INVALID —" in captured.err
        assert "INVALID JSON" in captured.err


class TestCrashValidateSubcommand:
    def test_repro_crash_validate_exits_four_on_torn_json(
            self, tmp_path, capsys):
        path = tmp_path / "torn.json"
        path.write_text('{"schema": "repro.crash/1", "run"')
        assert cli_main(["crash-validate", str(path)]) == 4
        err = capsys.readouterr().err
        assert "INVALID JSON (truncated or garbage)" in err
        assert "Traceback" not in err

    def test_repro_crash_validate_ok_bundle(self, tmp_path, capsys):
        sim = _crashed_sim(tmp_path)
        assert cli_main(["crash-validate", sim.crash_bundle_path]) == 0
        assert "ok" in capsys.readouterr().out
