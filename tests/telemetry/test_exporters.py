"""Exporter tests: streaming JSONL, Perfetto structure, metrics JSON,
schema validation."""

import json

import pytest

from repro.telemetry import (
    EventBus,
    JsonlExporter,
    MetricsRegistry,
    ValidationError,
    metrics_snapshot,
    to_perfetto,
    validate_event_dict,
    validate_jsonl,
    write_metrics_json,
    write_perfetto,
)
from repro.telemetry.events import (
    AbortEvent,
    CommitEvent,
    ConflictEvent,
    GvtTickEvent,
    SpillEvent,
    ZoomEvent,
)
from repro.core.stats import CycleBreakdown, RunStats

EVENTS = [
    CommitEvent(40, 1, "update", core=0, start=10, duration=30, depth=1),
    AbortEvent(55, 2, "update", core=1, start=20, executed=35,
               reason="write conflict", parked=False, cascade=1, hop=0),
    ConflictEvent(55, 17, "write", tid=1, vt="(O32 5)", core=0,
                  victims=[2], victim_vts=["(O32 9)"], victim_cores=[1]),
    SpillEvent(60, 0, "coalescer", n_tasks=8, duration=23),
    ZoomEvent(70, "in", depth=1, n_spilled=3),
    GvtTickEvent(200, 4, 2, commits=1),
]


class TestJsonl:
    def test_streaming_exporter_matches_batch(self, tmp_path):
        path = tmp_path / "s.jsonl"
        bus = EventBus()
        with JsonlExporter(path) as exp:
            bus.subscribe(exp)
            for e in EVENTS:
                bus.emit(e)
        assert exp.n_events == len(EVENTS)
        lines = path.read_text().splitlines()
        assert [json.loads(line) for line in lines] == \
            [e.to_dict() for e in EVENTS]

    def test_validate_jsonl_accepts_export(self, tmp_path):
        path = tmp_path / "ok.jsonl"
        with JsonlExporter(path) as exp:
            for e in EVENTS:
                exp(e)
        assert validate_jsonl(path) == len(EVENTS)

    def test_validate_rejects_bad_lines(self, tmp_path):
        for bad, msg in [
            ("{not json", "not JSON"),
            ('"scalar"', "not an object"),
            ('{"kind": "martian", "t": 0}', "unknown event kind"),
            ('{"kind": "commit", "t": 1}', "missing fields"),
        ]:
            path = tmp_path / "bad.jsonl"
            path.write_text(bad + "\n")
            with pytest.raises(ValidationError, match=msg):
                validate_jsonl(path)

    def test_validate_rejects_empty_log(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValidationError, match="no events"):
            validate_jsonl(path)

    def test_validate_event_dict_timestamp(self):
        with pytest.raises(ValidationError, match="bad timestamp"):
            validate_event_dict({"kind": "zoom", "t": -1, "direction": "in",
                                 "depth": 0, "n_spilled": 0})
        with pytest.raises(ValidationError, match="bad timestamp"):
            validate_event_dict({"kind": "zoom", "t": True, "direction": "in",
                                 "depth": 0, "n_spilled": 0})


class TestPerfetto:
    def test_structure(self, tmp_path):
        doc = to_perfetto(EVENTS, sim_name="unit")
        evs = doc["traceEvents"]
        slices = [e for e in evs if e.get("ph") == "X"]
        # one committed slice + one aborted slice
        cats = sorted(s["cat"] for s in slices)
        assert cats == ["aborted", "task"]
        committed = next(s for s in slices if s["cat"] == "task")
        assert (committed["ts"], committed["dur"]) == (10, 30)
        aborted = next(s for s in slices if s["cat"] == "aborted")
        assert aborted["args"]["reason"] == "write conflict"
        # the conflict becomes one flow-arrow pair per victim
        flows = sorted(e["ph"] for e in evs if e.get("ph") in ("s", "f"))
        assert flows == ["f", "s"]
        # counters + instants + process metadata all present
        assert any(e.get("ph") == "C" for e in evs)
        assert any(e.get("ph") == "i" for e in evs)
        assert any(e.get("ph") == "M" and e.get("name") == "process_name"
                   for e in evs)
        path = tmp_path / "trace.json"
        write_perfetto(EVENTS, path, sim_name="unit")
        assert json.loads(path.read_text())["traceEvents"]


class TestMetricsJson:
    def test_snapshot_includes_stats(self, tmp_path):
        m = MetricsRegistry()
        m.inc("cycles", 7, category="committed", core=0)
        stats = RunStats(name="unit", n_cores=1, makespan=7,
                         breakdown=CycleBreakdown(committed=7),
                         tasks_committed=1)
        doc = metrics_snapshot(m, stats)
        assert doc["schema"] == "repro.metrics/1"
        assert doc["stats"]["breakdown"]["committed"] == 7
        path = tmp_path / "m.json"
        write_metrics_json(m, path, stats=stats)
        on_disk = json.loads(path.read_text())
        assert on_disk == doc
        # and the stats round-trip back into an equal RunStats
        assert RunStats.from_dict(on_disk["stats"]) == stats


class TestRunStatsRoundTrip:
    def test_full_round_trip(self):
        stats = RunStats(
            name="rt", n_cores=4, makespan=123,
            breakdown=CycleBreakdown(committed=100, aborted=20, spill=3,
                                     stall=2, empty=367),
            tasks_committed=10, tasks_aborted=2, tasks_squashed=1,
            tasks_spilled=4, enqueues=13, domains_created=2,
            domains_flattened=1, max_depth=3, true_conflicts=2,
            false_positive_conflicts=1, zoom_ins=1, zoom_outs=1,
            tiebreaker_wraparounds=1, gvt_ticks=5,
            cache={"hits": 9, "misses": 2})
        d = json.loads(json.dumps(stats.to_dict()))
        assert RunStats.from_dict(d) == stats

    def test_from_dict_ignores_unknown_keys(self):
        d = RunStats(name="x").to_dict()
        d["future_field"] = 42
        d["breakdown"]["future_cat"] = 7
        assert RunStats.from_dict(d).name == "x"
