"""Execution timelines (paper Fig. 1) drawn from the event stream.

:func:`render_timeline` takes a run's recorded ``commit``/``abort``
events (subscribe an ``EventRecorder("commit", "abort")`` before the run)
and draws the ASCII chart where each row is a core, time flows right, and
aborted work is marked.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .events import Event

#: (core, start, end, label, aborted)
_Segment = Tuple[int, int, int, str, bool]


def _segments(events: Iterable[Event]) -> List[_Segment]:
    """One segment per committed or aborted attempt, in event order.

    Zoom-park rollbacks (``AbortEvent.parked``) and aborts of tasks that
    never ran on a core are skipped — the chart shows counted aborts of
    executed work only — and zero-length segments are dropped.
    """
    segs = []
    for ev in events:
        kind = ev.KIND
        if kind == "commit":
            end, aborted = ev.start + ev.duration, False
        elif kind == "abort" and not ev.parked and ev.core is not None:
            end, aborted = ev.start + ev.executed, True
        else:
            continue
        if end > ev.start:
            segs.append((ev.core, ev.start, end, ev.label, aborted))
    return segs


def render_timeline(events: Iterable[Event], n_cores: int, width: int = 100,
                    glyphs: Optional[Dict[str, str]] = None,
                    t0: Optional[int] = None, t1: Optional[int] = None) -> str:
    """Render an ASCII execution timeline from commit/abort events.

    Each task label is assigned a glyph from its first letter (override
    with ``glyphs``, mapping label → single character); aborted segments
    render as ``x``. Idle time is blank.
    """
    segs = _segments(events)
    if not segs:
        return "(empty trace)"
    t0 = min(s[1] for s in segs) if t0 is None else t0
    t1 = max(s[2] for s in segs) if t1 is None else t1
    span = max(t1 - t0, 1)
    scale = width / span
    rows = []
    for core in range(n_cores):
        row = [" "] * width
        for seg_core, start, end, label, aborted in segs:
            if seg_core != core or end <= t0 or start >= t1:
                continue
            a = max(int((start - t0) * scale), 0)
            b = min(max(int((end - t0) * scale), a + 1), width)
            if aborted:
                ch = "x"
            elif glyphs and label in glyphs:
                ch = glyphs[label]
            else:
                ch = (label[:1] or "#")
            for i in range(a, b):
                row[i] = ch
        rows.append(f"Core {core:<3d} |{''.join(row)}|")
    header = f"time {t0:,} .. {t1:,} cycles  ('x' = aborted work)"
    return "\n".join([header] + rows)
