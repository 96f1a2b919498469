"""repro.telemetry — structured observability for simulation runs.

Three layers (see README "Observability"):

- :class:`EventBus` + typed :mod:`events <repro.telemetry.events>` — every
  observable state transition (dispatch, finish, abort+cause, squash,
  conflict with addresses/VTs, commit, enqueue, spill, zoom, tiebreaker
  wraparound, GVT tick) as a timestamped event, zero-overhead when no
  subscriber is attached;
- :class:`MetricsRegistry` — labeled counters/gauges/histograms that are
  the single source of truth :class:`repro.core.stats.RunStats` is rebuilt
  from;
- exporters — JSONL event logs, Chrome/Perfetto ``trace_event`` JSON,
  metrics-JSON snapshots — plus derived analyses (abort cascades,
  conflict hot addresses, per-depth abort ratios) and the ASCII timeline
  (:func:`repro.telemetry.timeline.render_timeline`) drawn from recorded
  events.
"""

from .bus import EventBus, EventRecorder, EventRingBuffer
from .events import (
    EVENT_SCHEMA,
    EVENT_TYPES,
    AbortEvent,
    CommitEvent,
    ConflictEvent,
    DispatchEvent,
    DivertEvent,
    EnqueueEvent,
    Event,
    FaultInjectedEvent,
    FinishEvent,
    GvtTickEvent,
    LivelockThrottleEvent,
    QueuePressureEvent,
    RetryBackoffEvent,
    SafeModeEnterEvent,
    SafeModeExitEvent,
    SpecForRoundEvent,
    SpillEvent,
    SquashEvent,
    WatchdogEvent,
    WraparoundEvent,
    ZoomEvent,
    event_from_dict,
)
from .export import (
    JsonlExporter,
    metrics_snapshot,
    read_events_jsonl,
    write_events_jsonl,
    write_metrics_json,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .perfetto import to_perfetto, write_perfetto
from .profiling import (PROFILE_SCHEMA, collect_profile, fold_into_registry,
                        format_profile)

_VALIDATE_NAMES = ("ValidationError", "validate_event_dict",
                   "validate_jsonl")


def __getattr__(name):
    # Lazy so ``python -m repro.telemetry.validate`` does not import the
    # module twice (once via the package, once as __main__).
    if name in _VALIDATE_NAMES:
        from . import validate
        return getattr(validate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "EVENT_SCHEMA",
    "EVENT_TYPES",
    "PROFILE_SCHEMA",
    "AbortEvent",
    "CommitEvent",
    "ConflictEvent",
    "Counter",
    "DispatchEvent",
    "DivertEvent",
    "EnqueueEvent",
    "Event",
    "EventBus",
    "EventRecorder",
    "EventRingBuffer",
    "FaultInjectedEvent",
    "FinishEvent",
    "Gauge",
    "GvtTickEvent",
    "Histogram",
    "JsonlExporter",
    "LivelockThrottleEvent",
    "MetricsRegistry",
    "QueuePressureEvent",
    "RetryBackoffEvent",
    "SafeModeEnterEvent",
    "SafeModeExitEvent",
    "SpecForRoundEvent",
    "SpillEvent",
    "SquashEvent",
    "ValidationError",
    "WatchdogEvent",
    "WraparoundEvent",
    "ZoomEvent",
    "collect_profile",
    "event_from_dict",
    "fold_into_registry",
    "format_profile",
    "metrics_snapshot",
    "read_events_jsonl",
    "to_perfetto",
    "validate_event_dict",
    "validate_jsonl",
    "write_events_jsonl",
    "write_metrics_json",
    "write_perfetto",
]
