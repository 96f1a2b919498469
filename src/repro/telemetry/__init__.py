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
  metrics-JSON snapshots — plus the ASCII timeline
  (:func:`repro.telemetry.timeline.render_timeline`) drawn from recorded
  events.

Each name loads its module on first use, so a run with no subscriber
loads the bus, the events and the registry, not the exporters.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".bus": ("EventBus", "EventRecorder", "EventRingBuffer"),
    ".events": ("EVENT_SCHEMA", "EVENT_TYPES", "AbortEvent", "CommitEvent",
                "ConflictEvent", "DispatchEvent", "DivertEvent",
                "EnqueueEvent", "Event", "FaultInjectedEvent", "FinishEvent",
                "GvtTickEvent", "LivelockThrottleEvent",
                "QueuePressureEvent", "RetryBackoffEvent",
                "SafeModeEnterEvent", "SafeModeExitEvent",
                "SpecForRoundEvent", "SpillEvent", "SquashEvent",
                "WatchdogEvent", "WraparoundEvent", "ZoomEvent"),
    ".export": ("JsonlExporter", "metrics_snapshot", "write_metrics_json"),
    ".metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
    ".perfetto": ("to_perfetto", "write_perfetto"),
    ".profiling": ("PROFILE_SCHEMA", "collect_profile", "fold_into_registry",
                   "format_profile"),
    # looked up, not imported, so ``python -m repro.telemetry.validate``
    # does not load its module twice (once here, once as __main__)
    ".validate": ("ValidationError", "validate_event_dict",
                  "validate_jsonl"),
})

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
    "fold_into_registry",
    "format_profile",
    "metrics_snapshot",
    "to_perfetto",
    "validate_event_dict",
    "validate_jsonl",
    "write_metrics_json",
    "write_perfetto",
]
