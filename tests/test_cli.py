"""Tests for the command-line interface."""

import json
import pathlib
import re
import subprocess
import sys

import pytest

from repro.cli import APPS, main


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "repro", *argv],
                          capture_output=True, text=True, timeout=300)
    return proc


class TestCli:
    def test_apps_lists_everything(self):
        proc = run_cli("apps")
        assert proc.returncode == 0
        for name in APPS:
            assert name in proc.stdout

    def test_config_prints_table2(self):
        proc = run_cli("config")
        assert proc.returncode == 0
        assert "256 cores" in proc.stdout

    def test_run_mis(self):
        proc = run_cli("run", "mis", "--cores", "4", "--audit")
        assert proc.returncode == 0
        assert "result check: OK" in proc.stdout

    def test_run_with_serial(self):
        proc = run_cli("run", "silo", "--cores", "4", "--serial")
        assert proc.returncode == 0
        assert "serial reference" in proc.stdout

    def test_unknown_app_fails(self):
        proc = run_cli("run", "nope")
        assert proc.returncode == 2
        assert "unknown app" in proc.stderr

    def test_bad_variant_fails(self):
        proc = run_cli("run", "bfs", "--variant", "fractal")
        assert proc.returncode == 2

    def test_sweep_prints_chart(self):
        proc = run_cli("sweep", "mis", "--variants", "flat,fractal",
                       "--cores", "1,4")
        assert proc.returncode == 0
        assert "speedup vs cores" in proc.stdout
        assert "1.00x" in proc.stdout

    def test_main_callable_in_process(self, capsys):
        assert main(["config"]) == 0
        assert "GVT" in capsys.readouterr().out

    def test_every_app_importable(self):
        import importlib
        for name, (module, variants) in APPS.items():
            mod = importlib.import_module(module)
            assert hasattr(mod, "make_input")
            assert hasattr(mod, "build")
            assert hasattr(mod, "check")


class TestSubcommands:
    def test_help_lists_exactly_the_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        # the usage line and the positional list both spell the choices
        listed = set(re.findall(r"\{([a-z,-]+)\}", capsys.readouterr().out))
        assert listed == {"run,sweep,profile,crash-validate,apps,config"}

    def test_profile_writes_json(self, tmp_path, capsys):
        path = tmp_path / "profile.json"
        assert main(["profile", "mis", "--cores", "4",
                     "--json", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro.hot-path-profile/4"
        peak = doc["gvt"]["peak_entries"]
        assert peak > 0
        out = capsys.readouterr().out
        assert "profile json" in out
        assert f"{peak:,} peak heap entries" in out

    def test_profile_metrics_export_the_frontier_peak(self, tmp_path):
        prof, metrics = tmp_path / "p.json", tmp_path / "m.json"
        assert main(["profile", "mis", "--cores", "4", "--json", str(prof),
                     "--metrics-out", str(metrics)]) == 0
        peak = json.loads(prof.read_text())["gvt"]["peak_entries"]
        gauges = {g["name"]: g["value"] for g in
                  json.loads(metrics.read_text())["metrics"]["gauges"]}
        assert gauges["profile_gvt_peak_entries"] == peak > 0

    def test_profile_without_app_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["profile"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "app" in err


class TestTelemetryFlags:
    def test_trace_out_writes_valid_jsonl(self, tmp_path):
        import json
        from repro.telemetry.validate import validate_jsonl
        path = tmp_path / "t.jsonl"
        assert main(["run", "mis", "--cores", "4",
                     "--trace-out", str(path)]) == 0
        n = validate_jsonl(path)
        assert n > 0
        kinds = {json.loads(line)["kind"]
                 for line in path.read_text().splitlines()}
        assert kinds >= {"enqueue", "dispatch", "commit"}

    def test_perfetto_and_metrics_out(self, tmp_path, capsys):
        import json
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "m.json"
        assert main(["run", "mis", "--cores", "4", "--perfetto", str(trace),
                     "--metrics-out", str(metrics)]) == 0
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"]
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])
        m = json.loads(metrics.read_text())
        assert m["schema"] == "repro.metrics/1"
        # acceptance: registry cycle totals == the reported breakdown
        totals = {}
        for c in m["metrics"]["counters"]:
            if c["name"] == "cycles":
                cat = c["labels"]["category"]
                totals[cat] = totals.get(cat, 0) + c["value"]
        assert totals == m["stats"]["breakdown"]

    def test_metrics_out_without_event_flags(self, tmp_path):
        import json
        metrics = tmp_path / "m.json"
        assert main(["run", "silo", "--cores", "4",
                     "--metrics-out", str(metrics)]) == 0
        m = json.loads(metrics.read_text())
        assert m["stats"]["tasks_committed"] > 0


class TestExitCodes:
    def test_check_failure_exits_1(self, monkeypatch, capsys):
        from repro.apps import mis
        from repro.errors import AppError

        def bad_check(handles, inp):
            raise AppError("forced failure")

        monkeypatch.setattr(mis, "check", bad_check)
        assert main(["run", "mis", "--cores", "4"]) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_simulation_error_exits_2(self, monkeypatch, capsys):
        from repro.apps import mis
        from repro.errors import SimulationError

        def bad_build(sim, inp, variant, **kw):
            raise SimulationError("forced invariant violation")

        monkeypatch.setattr(mis, "build", bad_build)
        assert main(["run", "mis", "--cores", "4"]) == 2
        assert "simulation error" in capsys.readouterr().err

    def test_serial_check_failure_exits_1(self, monkeypatch, capsys):
        from repro.apps import mis
        from repro.errors import AppError

        calls = {"n": 0}
        real_check = mis.check

        def second_check_fails(handles, inp):
            calls["n"] += 1
            if calls["n"] > 1:
                raise AppError("serial mismatch")
            return real_check(handles, inp)

        monkeypatch.setattr(mis, "check", second_check_fails)
        assert main(["run", "mis", "--cores", "4", "--serial"]) == 1
        assert "serial reference check: FAILED" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "mis", "--cores", "1", "--metrics-out"],
        ["profile", "mis", "--cores", "1", "--json"],
        ["sweep", "mis", "--variants", "flat", "--cores", "1",
         "--summary-out"],
    ])
    def test_unwritable_export_exits_1(self, argv, tmp_path, capsys):
        assert main([*argv, str(tmp_path / "missing" / "x.json")]) == 1
        assert "cannot write export:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,flag", [
        (["run", "mis", "--cores", "0"], "--cores"),
        (["run", "mis", "--cores", "-4"], "--cores"),
        (["profile", "mis", "--cores", "0"], "--cores"),
        (["sweep", "mis", "--cores", ",4"], "--cores"),
        (["sweep", "mis", "--cores", "1,0"], "--cores"),
        (["sweep", "mis", "--cores", "1", "--jobs", "0"], "--jobs"),
        (["run", "mis", "--max-attempts", "-3"], "--max-attempts"),
        # variant names are checked before any job runs
        (["run", "mis", "--variant", "bogus"], "--variant"),
        (["profile", "mis", "--variant", "bogus"], "--variant"),
        (["sweep", "mis", "--variants", "flat,bogus"], "--variants"),
    ])
    def test_bad_count_is_a_usage_error(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}" in err
        assert "Traceback" not in err


class TestFaultFlags:
    plans = pathlib.Path(__file__).parent.parent / "benchmarks" / "faultplans"

    def test_run_help_documents_exit_codes_and_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        out = capsys.readouterr().out
        assert "--faults" in out
        assert "--max-attempts" in out
        assert "--crash-dump-dir" in out
        for code in ("0 ", "1 ", "2 ", "3 ", "4 "):
            assert code in out
        assert "QueueError" in out
        assert "watchdog" in out

    def test_transient_plan_still_succeeds(self, capsys):
        assert main(["run", "mis", "--cores", "4", "--audit",
                     "--faults", str(self.plans / "transient.json")]) == 0
        out = capsys.readouterr().out
        assert "result check: OK" in out
        assert "resilience:" in out
        assert "faults injected" in out

    def test_invalid_plan_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"fautls": {}}')
        assert main(["run", "mis", "--faults", str(bad)]) == 2
        assert "cannot load --faults plan" in capsys.readouterr().err
        missing = tmp_path / "nope.json"
        assert main(["run", "mis", "--faults", str(missing)]) == 2

    def test_watchdog_partial_run_exits_4(self, tmp_path, capsys):
        plan = tmp_path / "wd.json"
        plan.write_text('{"resilience": {"max_cycles": 200}}')
        dump = tmp_path / "bundles"
        assert main(["run", "mis", "--cores", "4",
                     "--faults", str(plan),
                     "--crash-dump-dir", str(dump)]) == 4
        err = capsys.readouterr().err
        assert "watchdog fired" in err
        assert "crash bundle" in err
        bundles = list(dump.glob("crash-*.json"))
        assert len(bundles) == 1
        from repro.faults.crashdump import validate_crash_bundle
        validate_crash_bundle(json.loads(bundles[0].read_text()))

    def test_queue_error_exits_3(self, monkeypatch, capsys):
        import repro.cli as cli
        from repro.errors import QueueError

        def overflow(*a, **kw):
            raise QueueError("task queue wedged beyond recovery")

        monkeypatch.setattr(cli, "run_app", overflow)
        assert main(["run", "mis", "--cores", "4"]) == 3
        assert "queue" in capsys.readouterr().err.lower()

    def test_max_attempts_overrides_plan(self, capsys):
        # exhausting retries turns an injected transient into a fatal
        # AppError -> exit 1; the same plan with its own budget passes
        plan = self.plans / "transient.json"
        assert main(["run", "mis", "--cores", "4", "--faults", str(plan),
                     "--max-attempts", "1"]) == 1
        assert main(["run", "mis", "--cores", "4", "--faults", str(plan),
                     "--max-attempts", "8"]) == 0
