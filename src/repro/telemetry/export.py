"""Exporters: JSONL event logs and metrics-JSON snapshots.

The JSONL log is one event dict per line (see
:data:`repro.telemetry.events.EVENT_SCHEMA`), in emission order — exactly
the ordered event log that offline checkers (vector-clock atomicity,
predefined-order diagnostics) consume. The metrics snapshot bundles the
registry dump with the run's :class:`repro.core.stats.RunStats` so a
single file answers both "what happened" and "how much".
"""

from __future__ import annotations

import json
from typing import IO

from .events import Event
from .metrics import MetricsRegistry


class JsonlExporter:
    """A streaming bus subscriber writing one JSON line per event.

    For runs too large to buffer in an :class:`EventRecorder`. Use as a
    context manager or call :meth:`close` when the run ends.
    """

    def __init__(self, path_or_file):
        if hasattr(path_or_file, "write"):
            self._fh: IO[str] = path_or_file
            self._owns = False
        else:
            self._fh = open(path_or_file, "w", encoding="utf-8")
            self._owns = True
        self.n_events = 0

    def __call__(self, event: Event) -> None:
        self._fh.write(json.dumps(event.to_dict(), separators=(",", ":")))
        self._fh.write("\n")
        self.n_events += 1

    def close(self) -> None:
        if self._owns:
            self._fh.close()

    def __enter__(self) -> "JsonlExporter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
def metrics_snapshot(metrics: MetricsRegistry, stats=None) -> dict:
    """The metrics-JSON document: registry dump + optional RunStats."""
    doc = {"schema": "repro.metrics/1", "metrics": metrics.snapshot()}
    if stats is not None:
        doc["stats"] = stats.to_dict()
    return doc


def write_metrics_json(metrics: MetricsRegistry, path, stats=None) -> None:
    """Write the metrics snapshot (and RunStats, if given) to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(metrics_snapshot(metrics, stats), fh, indent=2)
        fh.write("\n")
