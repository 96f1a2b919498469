"""The metrics registry: labeled counters, gauges, and histograms.

One :class:`MetricsRegistry` per simulation is the single source of truth
for run accounting: the simulator increments registry metrics during the
run (cycles per category per core, task outcomes per domain depth,
enqueues per tile, ...) and :class:`repro.core.stats.RunStats` /
``CycleBreakdown`` are *rebuilt* from the registry at finalize — there is
no second set of books.

Metrics are identified by a name plus a set of ``key=value`` labels
(per-tile, per-core, per-domain-depth dimensions). Handles returned by
``counter()`` / ``gauge()`` / ``histogram()`` are cheap mutable cells the
hot paths cache and bump directly.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Optional, Tuple

LabelKey = Tuple[str, Tuple[Tuple[str, object], ...]]


class Counter:
    """A monotonically increasing integer cell."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time value (last write wins; ``track_max`` keeps peaks)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def set(self, v) -> None:
        self.value = v

    def track_max(self, v) -> None:
        if v > self.value:
            self.value = v


class Histogram:
    """A fixed-bound histogram with sum/count (bucket = first bound >= v)."""

    __slots__ = ("bounds", "counts", "sum", "count")

    DEFAULT_BOUNDS = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500,
                      5000, 10000, 25000, 50000, 100000)

    def __init__(self, bounds: Optional[Iterable[float]] = None):
        self.bounds = tuple(bounds) if bounds is not None else self.DEFAULT_BOUNDS
        self.counts = [0] * (len(self.bounds) + 1)   # +1: overflow bucket
        self.sum = 0
        self.count = 0

    def observe(self, v) -> None:
        self.counts[bisect.bisect_left(self.bounds, v)] += 1
        self.sum += v
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        buckets = {f"le_{b}": c for b, c in zip(self.bounds, self.counts)}
        buckets["inf"] = self.counts[-1]
        return {"buckets": buckets, "sum": self.sum, "count": self.count,
                "mean": self.mean}


class MetricsRegistry:
    """Get-or-create registry of labeled counters/gauges/histograms."""

    def __init__(self):
        self._counters: Dict[LabelKey, Counter] = {}
        self._gauges: Dict[LabelKey, Gauge] = {}
        self._histograms: Dict[LabelKey, Histogram] = {}

    @staticmethod
    def _key(name: str, labels: dict) -> LabelKey:
        return (name, tuple(sorted(labels.items())))

    # ------------------------------------------------------------------
    def counter(self, name: str, **labels) -> Counter:
        key = self._key(name, labels)
        c = self._counters.get(key)
        if c is None:
            c = self._counters[key] = Counter()
        return c

    def gauge(self, name: str, **labels) -> Gauge:
        key = self._key(name, labels)
        g = self._gauges.get(key)
        if g is None:
            g = self._gauges[key] = Gauge()
        return g

    def histogram(self, name: str, bounds: Optional[Iterable[float]] = None,
                  **labels) -> Histogram:
        key = self._key(name, labels)
        h = self._histograms.get(key)
        if h is None:
            h = self._histograms[key] = Histogram(bounds)
        return h

    def inc(self, name: str, n: int = 1, **labels) -> None:
        """Convenience: increment the counter ``name{labels}`` by ``n``."""
        self.counter(name, **labels).inc(n)

    # ------------------------------------------------------------------
    def total(self, name: str, **match) -> int:
        """Sum of every counter named ``name`` whose labels ⊇ ``match``.

        ``total("cycles", category="committed")`` sums the per-core
        committed-cycle counters; ``total("cycles")`` sums all categories.
        """
        want = match.items()
        out = 0
        for (n, labels), c in self._counters.items():
            if n == name and all(kv in labels for kv in want):
                out += c.value
        return out

    def counters_named(self, name: str) -> List[Tuple[dict, Counter]]:
        """All ``(labels, counter)`` pairs for one metric name."""
        return [(dict(labels), c) for (n, labels), c in
                self._counters.items() if n == name]

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-safe dump of every metric, labels inlined."""

        def row(key: LabelKey, value) -> dict:
            name, labels = key
            return {"name": name, "labels": dict(labels), "value": value}

        return {
            "counters": [row(k, c.value)
                         for k, c in sorted(self._counters.items(),
                                            key=lambda kv: repr(kv[0]))],
            "gauges": [row(k, g.value)
                       for k, g in sorted(self._gauges.items(),
                                          key=lambda kv: repr(kv[0]))],
            "histograms": [row(k, h.snapshot())
                           for k, h in sorted(self._histograms.items(),
                                              key=lambda kv: repr(kv[0]))],
        }
