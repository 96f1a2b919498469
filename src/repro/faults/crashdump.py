"""Crash bundles: one JSON file describing why a run died.

When a run fails — a :class:`repro.errors.SimulationError`, a
serializability violation, exhausted retries, a watchdog fire — the
simulator calls :func:`write_crash_bundle` with the exception and its
crash-dump directory. The bundle captures everything a post-mortem needs
without a debugger attached: the telemetry event ring buffer, per-tile
queue states, the GVT, the earliest live tasks with their fractal VTs,
fault-injection counts, and a partial stats snapshot.

``python -m repro crash-validate <bundle.json>`` validates a bundle
against :data:`CRASH_BUNDLE_SCHEMA` (the CI smoke job runs this).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

#: schema identifier stamped into every bundle
CRASH_BUNDLE_SCHEMA = "repro.crash/1"

#: top-level keys every bundle must carry
_REQUIRED_KEYS = (
    "schema", "run", "reason", "error", "cycle", "gvt", "n_live",
    "live_tasks", "tiles", "resilience_state", "injections", "stats",
    "events", "n_events_seen",
)

_LIVE_TASK_KEYS = ("tid", "label", "state", "attempt", "n_aborts", "vt",
                   "depth")
_TILE_KEYS = ("tile", "pending", "task_queue_cap", "commit_occupancy",
              "commit_queue_cap", "finish_stalled")


def _live_sample(sim, limit: int = 10) -> List[Dict[str, Any]]:
    """The ``limit`` earliest live tasks (the ones wedging the GVT)."""
    tasks = sorted((t for t in sim._live if t.vt is not None),
                   key=lambda t: t.order_key)[:limit]
    return [{
        "tid": t.tid,
        "label": t.label,
        "state": t.state.value,
        "attempt": t.attempt,
        "n_aborts": t.n_aborts,
        "vt": repr(t.vt),
        "depth": t.domain.depth,
    } for t in tasks]


def build_crash_bundle(sim, reason: str,
                       exc: Optional[BaseException] = None) -> dict:
    """Snapshot ``sim``'s failure state as a JSON-safe dict."""
    try:
        gvt = sim._compute_gvt()
    except Exception:                         # never let diagnostics throw
        gvt = None
    injector = getattr(sim, "_faults", None)
    detector = getattr(sim, "_livelock", None)
    ring = getattr(sim, "_crash_ring", None)
    m = sim.metrics
    return {
        "schema": CRASH_BUNDLE_SCHEMA,
        "run": sim.name,
        "reason": reason,
        "error": (None if exc is None else
                  {"type": type(exc).__name__, "message": str(exc)}),
        "cycle": sim.now,
        "gvt": None if gvt is None else repr(gvt),
        "n_live": len(sim._live),
        "live_tasks": _live_sample(sim),
        "tiles": [tile.unit.snapshot() for tile in sim.tiles],
        "resilience_state": {
            "mode": None if detector is None else detector.state,
            "safe_commits": 0 if detector is None else detector.safe_commits,
        },
        "injections": None if injector is None else dict(injector.injected),
        "stats": {
            "tasks_committed": m.total("tasks", outcome="committed"),
            "tasks_aborted": m.total("tasks", outcome="aborted"),
            "tasks_squashed": m.total("tasks", outcome="squashed"),
            "enqueues": m.total("enqueues"),
            "gvt_ticks": sim.arbiter.ticks,
            "commits_total": sim._commit_seq,
        },
        "events": ([] if ring is None
                   else [e.to_dict() for e in ring]),
        "n_events_seen": 0 if ring is None else ring.n_seen,
    }


def write_crash_bundle(sim, directory: str, reason: str,
                       exc: Optional[BaseException] = None) -> str:
    """Write a bundle under ``directory``; returns the file path.

    The filename is deterministic (run name + cycle), so re-runs of the
    same failure overwrite rather than accumulate.
    """
    bundle = build_crash_bundle(sim, reason, exc)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"crash-{sim.name}-c{sim.now}.json")
    with open(path, "w") as fh:
        json.dump(bundle, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def build_farm_crash_bundle(spec, reason: str, *, attempt: int,
                            detail: str = "",
                            events: Optional[List[dict]] = None) -> dict:
    """Snapshot a Farm worker-process death as a ``repro.crash/1`` bundle.

    A worker crash has no simulator to introspect — the process is gone —
    so the simulator-shaped keys are present-but-empty and the payload
    that matters lives under ``farm``: the fragment's JobSpec content
    digest (enough to re-run the exact job) and the attempt count when
    the worker died.
    """
    return {
        "schema": CRASH_BUNDLE_SCHEMA,
        "run": spec.display,
        "reason": reason,
        "error": {"type": "WorkerCrash", "message": detail},
        "cycle": 0,
        "gvt": None,
        "n_live": 0,
        "live_tasks": [],
        "tiles": [],
        "resilience_state": {"mode": None, "safe_commits": 0},
        "injections": None,
        "stats": {},
        "events": list(events or []),
        "n_events_seen": len(events or []),
        "farm": {
            "digest": spec.digest(),
            "app": spec.app,
            "variant": spec.variant,
            "n_cores": spec.resolved_config().n_cores,
            "attempt": attempt,
        },
    }


def write_farm_crash_bundle(spec, directory: str, reason: str, *,
                            attempt: int, detail: str = "",
                            events: Optional[List[dict]] = None) -> str:
    """Write a farm worker-crash bundle; returns the file path.

    Deterministic filename (digest prefix + attempt): retried crashes of
    the same job produce distinct bundles, re-runs overwrite.
    """
    bundle = build_farm_crash_bundle(spec, reason, attempt=attempt,
                                     detail=detail, events=events)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(
        directory, f"crash-farm-{spec.digest()[:12]}-a{attempt}.json")
    with open(path, "w") as fh:
        json.dump(bundle, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def validate_crash_bundle(doc: dict) -> None:
    """Raise ``ValueError`` unless ``doc`` is a well-formed crash bundle."""
    if not isinstance(doc, dict):
        raise ValueError("crash bundle must be a JSON object")
    if doc.get("schema") != CRASH_BUNDLE_SCHEMA:
        raise ValueError(f"bad schema {doc.get('schema')!r}, "
                         f"expected {CRASH_BUNDLE_SCHEMA!r}")
    missing = [k for k in _REQUIRED_KEYS if k not in doc]
    if missing:
        raise ValueError(f"missing bundle keys: {missing}")
    for key in ("live_tasks", "tiles", "events"):
        if not isinstance(doc[key], list):
            raise ValueError(
                f"field {key!r} must be a list, "
                f"got {type(doc[key]).__name__}")
    for i, task in enumerate(doc["live_tasks"]):
        if not isinstance(task, dict):
            raise ValueError(f"live_tasks[{i}] must be an object, "
                             f"got {type(task).__name__}")
        absent = [k for k in _LIVE_TASK_KEYS if k not in task]
        if absent:
            raise ValueError(f"live_tasks[{i}] missing {absent}")
    for i, tile in enumerate(doc["tiles"]):
        if not isinstance(tile, dict):
            raise ValueError(f"tiles[{i}] must be an object, "
                             f"got {type(tile).__name__}")
        absent = [k for k in _TILE_KEYS if k not in tile]
        if absent:
            raise ValueError(f"tiles[{i}] missing {absent}")
    from ..telemetry.validate import validate_event_dict
    for i, event in enumerate(doc["events"]):
        try:
            validate_event_dict(event)
        except Exception as e:
            raise ValueError(f"events[{i}] invalid: {e}")


def validate_paths(paths: List[str], *, out=None) -> int:
    """Validate each bundle file; returns the worst exit code seen.

    Exit codes: 0 all valid, 1 a structurally invalid bundle, 4 a file
    that is not readable JSON at all (missing, truncated mid-write, or
    garbage) — each with a field-level message, never a traceback.
    """
    import sys
    out = out or sys.stderr
    worst = 0
    for path in paths:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except OSError as exc:
            print(f"{path}: UNREADABLE — {exc}", file=out)
            worst = max(worst, 4)
            continue
        except json.JSONDecodeError as exc:
            print(f"{path}: INVALID JSON (truncated or garbage) — "
                  f"{exc.msg} at line {exc.lineno} column {exc.colno}",
                  file=out)
            worst = max(worst, 4)
            continue
        except UnicodeDecodeError as exc:
            print(f"{path}: INVALID JSON (truncated or garbage) — "
                  f"not UTF-8 text ({exc.reason} at byte {exc.start})",
                  file=out)
            worst = max(worst, 4)
            continue
        try:
            validate_crash_bundle(doc)
        except ValueError as exc:
            print(f"{path}: INVALID — {exc}", file=out)
            worst = max(worst, 1)
            continue
        print(f"{path}: ok ({len(doc['events'])} buffered events, "
              f"cycle {doc['cycle']}, reason {doc['reason']!r})")
    return worst

