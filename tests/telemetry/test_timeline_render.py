"""Edge-case tests for the ASCII timeline renderer (paper Fig. 1 style).

The renderer draws recorded ``commit``/``abort`` events, so the cases
cover both which events become segments and how segments are drawn.
"""

from repro.telemetry.events import (AbortEvent, CommitEvent, DispatchEvent,
                                     FinishEvent)
from repro.telemetry.timeline import render_timeline


def commit(core, start, end, label):
    return CommitEvent(end, 0, label, core=core, start=start,
                       duration=end - start, depth=0)


def abort(core, start, end, label, *, parked=False):
    return AbortEvent(end, 0, label, core=core, start=start,
                      executed=end - start, reason="write conflict",
                      parked=parked, cascade=-1, hop=-1)


def _rows(text):
    """Per-core glyph strings between the | markers."""
    return [line.split("|")[1] for line in text.splitlines()[1:]]


class TestRenderTimeline:
    def test_empty_trace(self):
        assert render_timeline([], n_cores=4) == "(empty trace)"

    def test_single_cycle_segment_gets_one_column(self):
        # sub-column segments are clamped to >= 1 glyph instead of vanishing
        events = [commit(0, 0, 100, "a"), commit(0, 100, 101, "b")]
        out = render_timeline(events, n_cores=1, width=10)
        row = _rows(out)[0]
        assert row.count("b") == 1
        assert len(row) == 10

    def test_lone_single_cycle_segment_fills_width(self):
        out = render_timeline([commit(0, 5, 6, "a")], n_cores=1, width=10)
        assert _rows(out)[0] == "a" * 10

    def test_zero_length_segments_are_dropped_on_record(self):
        events = [commit(0, 5, 5, "a"), abort(0, 7, 7, "b")]
        assert render_timeline(events, n_cores=1) == "(empty trace)"

    def test_window_clipping(self):
        events = [commit(0, 0, 10, "a"), commit(0, 90, 100, "b"),
                  commit(0, 45, 55, "c")]
        out = render_timeline(events, n_cores=1, width=10, t0=40, t1=60)
        row = _rows(out)[0]
        # only the in-window segment renders; the others are clipped away
        assert "c" in row
        assert "a" not in row and "b" not in row
        assert "time 40 .. 60" in out.splitlines()[0]

    def test_segment_straddling_window_edge_is_clamped(self):
        out = render_timeline([commit(0, 0, 100, "a")], n_cores=1, width=10,
                              t0=50, t1=60)
        assert _rows(out)[0] == "a" * 10

    def test_custom_glyph_map(self):
        events = [commit(0, 0, 10, "relabel"), commit(0, 10, 20, "push")]
        out = render_timeline(events, n_cores=1, width=20,
                              glyphs={"relabel": "G"})
        row = _rows(out)[0]
        assert "G" in row          # mapped label
        assert "p" in row          # unmapped label falls back to first letter
        assert "r" not in row

    def test_aborted_marks_x_regardless_of_glyphs(self):
        out = render_timeline([abort(0, 0, 10, "task")], n_cores=1,
                              width=10, glyphs={"task": "T"})
        assert _rows(out)[0] == "x" * 10

    def test_idle_cores_render_blank_rows(self):
        out = render_timeline([commit(0, 0, 10, "a")], n_cores=3, width=10)
        rows = _rows(out)
        assert rows[1] == " " * 10
        assert rows[2] == " " * 10


class TestTraceBuilder:
    """Which recorded events become timeline segments."""

    def test_builds_trace_from_commit_and_abort_events(self):
        out = render_timeline([commit(0, 10, 40, "work"),
                               abort(1, 20, 55, "work")],
                              n_cores=2, width=45)
        assert out.splitlines()[0].startswith("time 10 .. 55 cycles")
        rows = _rows(out)
        assert rows[0] == "w" * 30 + " " * 15
        assert rows[1] == " " * 10 + "x" * 35

    def test_parked_and_coreless_aborts_are_skipped(self):
        events = [abort(1, 20, 55, "work", parked=True),
                  AbortEvent(60, 3, "work", core=None, start=20, executed=40,
                             reason="squash", parked=False, cascade=2,
                             hop=1)]
        assert render_timeline(events, n_cores=2) == "(empty trace)"

    def test_other_event_kinds_are_ignored(self):
        events = [DispatchEvent(0, 1, "a", core=0, tile=0, attempt=1),
                  commit(0, 0, 10, "a"),
                  FinishEvent(10, 1, core=0, cycles=10)]
        assert (render_timeline(events, n_cores=1)
                == render_timeline(events[1:2], n_cores=1))
