"""Per-layer host self time for the benchmark's traced runs.

The tracer wraps the calls into each simulator layer from outside the
package: it patches the public methods of the layer's classes with
timing wrappers, runs the workload, and restores every attribute
afterwards. Nothing under ``src/`` changes.

Each wrapped call is a span. A span's *self time* is its duration minus
the durations of the wrapped calls made inside it, so the self times of
all spans inside one ``Simulator.run`` add up to that root span exactly.
Code that is not wrapped (private helpers, ``heapq``, the typed
``repro.mem.data`` wrappers, the NoC) counts toward the nearest wrapped
caller.

A wrapper costs about a microsecond per call, part of it inside the
span it measures and part in its caller. :meth:`Tracer.calibrate` times
both parts on a no-op, which gives their ratio but only about half their
size in a real run (a tight loop keeps the wrapper hot in the caches).
:func:`calibrate_layers` therefore scales both costs so the wrappers
account for exactly the extra time of the traced run over an untraced
run of the same workload, then subtracts them: each layer loses
``calls * cost_in`` for its own spans and ``child_calls * cost_out`` for
the wrapped calls it made.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from typing import Callable, Dict, List, Optional, Tuple

#: The methods that make up each layer, as ``(module, class, methods)``;
#: ``methods=None`` means every public (no leading underscore) plain
#: function defined on the class. The VT classes are immutable values, so their
#: constructors are the operation and are wrapped too. ``core.zoom`` also
#: takes ``create_subdomain``, the nesting call every workload makes, so
#: no layer reads zero time on a workload that does not zoom. ``apps`` has
#: no entry: task bodies are wrapped one by one as ``TaskDesc`` receives
#: them. The spill path (``arch.spill``) is left out: no workload spills.
LAYERS: Dict[str, List[Tuple[str, str, Optional[Tuple[str, ...]]]]] = {
    "core.simulator": [("repro.core.simulator", "Simulator", ("run",))],
    "core.api": [("repro.core.api", "TaskContext",
                  ("load", "store", "compute", "emit", "enqueue",
                   "enqueue_sub", "enqueue_super"))],
    "core.abort": [("repro.core.simulator", "Simulator",
                    ("_abort_cascade",))],
    "core.zoom": [("repro.core.zoom", "ZoomController", None),
                  ("repro.core.api", "TaskContext", ("create_subdomain",))],
    "apps": [],
    "mem.memory": [("repro.mem.memory", "SpecMemory", None)],
    "mem.conflicts": [("repro.mem.conflicts", "BloomConflictModel", None),
                      ("repro.mem.conflicts", "PreciseConflictModel", None)],
    "mem.bloom": [("repro.mem.bloom", "H3HashFamily", None),
                  ("repro.mem.bloom", "BloomSignature", None),
                  ("repro.mem.bloom", "SignatureBank", None)],
    "vt": [("repro.vt.fractal_vt", "FractalVT", None),
           ("repro.vt.fractal_vt", "FractalVT", ("__init__",)),
           ("repro.vt.domain_vt", "DomainVT", None),
           ("repro.vt.domain_vt", "DomainVT", ("__init__",)),
           ("repro.vt.tiebreaker", "TiebreakerAllocator", None)],
    "arch.queues": [("repro.arch.task_unit", "TaskUnit", None)],
    "arch.gvt": [("repro.arch.gvt", "GvtArbiter", None),
                 ("repro.arch.gvt", "GvtFrontier", None)],
    "arch.scheduler": [("repro.arch.scheduler", "HintScheduler", None)],
    "arch.cache": [("repro.arch.cache", "CacheModel", None)],
}

#: the layer whose span is the root: only work inside it is reported
ROOT_LAYER = "core.simulator"


def _public_functions(cls) -> List[str]:
    return [name for name, attr in vars(cls).items()
            if not name.startswith("_") and inspect.isfunction(attr)
            and not inspect.isgeneratorfunction(attr)]


class Tracer:
    """Patches the layers in :data:`LAYERS` and accumulates span times.

    Per layer it keeps ``[calls, self_s, child_calls]``. Only spans that
    end inside a root span (``Simulator.run``) reach :attr:`totals`, so
    construction work before ``run()`` is left out. Use as a context
    manager, or call :meth:`install` and :meth:`uninstall`.
    """

    def __init__(self, layers: Dict = LAYERS,
                 clock: Callable[[], float] = time.perf_counter):
        self.layers = layers
        self.clock = clock
        self.live: Dict[str, List] = {name: [0, 0.0, 0] for name in layers}
        self.totals: Dict[str, List] = {name: [0, 0.0, 0] for name in layers}
        #: wall seconds inside root spans, summed
        self.root_s = 0.0
        self.cost_in = 0.0
        self.cost_out = 0.0
        # frame = [child seconds, child calls]; the bottom frame collects
        # spans that run outside any root
        self._stack: List[List] = [[0.0, 0]]
        self._patches: List[Tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------
    def span(self, fn: Callable, layer: str) -> Callable:
        """``fn`` timed as a span of ``layer`` (a bare closure: cheap
        enough to make one per task)."""
        rec = self.live[layer]
        stack = self._stack
        push, pop = stack.append, stack.pop
        clock = self.clock

        def span(*args, **kwargs):
            frame = [0.0, 0]
            push(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                pop()
                rec[0] += 1
                rec[1] += dt - frame[0]
                rec[2] += frame[1]
                parent = stack[-1]
                parent[0] += dt
                parent[1] += 1

        return span

    def _root(self, fn: Callable) -> Callable:
        span = self.span(fn, ROOT_LAYER)

        def root(*args, **kwargs):
            before = {k: list(v) for k, v in self.live.items()}
            t0 = self.clock()
            try:
                return span(*args, **kwargs)
            finally:
                self.root_s += self.clock() - t0
                for k, rec in self.live.items():
                    tot, old = self.totals[k], before[k]
                    for i in range(3):
                        tot[i] += rec[i] - old[i]

        return root

    def _patch(self, owner, name: str, new: Callable) -> None:
        original = vars(owner)[name]
        self._patches.append((owner, name, original))
        setattr(owner, name, functools.wraps(original)(new))

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, targets in self.layers.items():
            for modname, attr, methods in targets:
                cls = getattr(importlib.import_module(modname), attr)
                for name in methods or _public_functions(cls):
                    fn = vars(cls)[name]
                    self._patch(cls, name, self._root(fn)
                                if layer == ROOT_LAYER
                                else self.span(fn, layer))
        if "apps" in self.layers:
            self._wrap_task_bodies()
        return self

    def _wrap_task_bodies(self) -> None:
        from repro.core.task import TaskDesc
        init = vars(TaskDesc)["__init__"]
        span = self.span

        def traced_init(task, fn, *args, label=None, **kwargs):
            if label is None:
                label = getattr(fn, "__name__", "task")
            init(task, span(fn, "apps"), *args, label=label, **kwargs)

        self._patch(TaskDesc, "__init__", traced_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- calibration and report ----------------------------------------
    def calibrate(self, n: int = 100_000, rounds: int = 5) -> None:
        """Measure the wrapper cost inside (``cost_in``) and outside
        (``cost_out``) the span it records, as medians over ``rounds``."""
        def noop():
            return None

        probe = Tracer({"calibration": []}, self.clock)
        wrapped = probe.span(noop, "calibration")
        rec = probe.live["calibration"]
        clock = self.clock
        ins, outs = [], []
        for _ in range(rounds):
            rec[1] = 0.0
            t0 = clock()
            for _ in range(n):
                noop()
            plain = clock() - t0
            t0 = clock()
            for _ in range(n):
                wrapped()
            traced = clock() - t0
            inside = max(0.0, (rec[1] - plain) / n)
            ins.append(inside)
            outs.append(max(0.0, (traced - plain) / n - inside))
        self.cost_in = statistics.median(ins)
        self.cost_out = statistics.median(outs)

    def report(self) -> Dict:
        """The raw measurements :func:`calibrate_layers` takes."""
        return {
            "root_s": self.root_s,
            "cost_in": self.cost_in,
            "cost_out": self.cost_out,
            "layers": {layer: {"calls": calls, "self_s": self_s,
                               "child_calls": child_calls}
                       for layer, (calls, self_s, child_calls)
                       in self.totals.items()},
        }


def calibrate_layers(report: Dict, plain_s: float) -> Dict:
    """Per layer: calls, calibrated self seconds and share of their sum.

    ``plain_s`` is the untraced wall time of the same runs; the wrapper
    costs in ``report`` are scaled so that they add up to the traced
    self times' excess over it (never below zero).
    """
    layers = report["layers"]
    cin, cout = report["cost_in"], report["cost_out"]
    modelled = sum(r["calls"] * cin + r["child_calls"] * cout
                   for r in layers.values())
    excess = max(sum(r["self_s"] for r in layers.values()) - plain_s, 0.0)
    scale = excess / modelled if modelled else 0.0
    rows = {}
    for layer, r in layers.items():
        cal = r["self_s"] - scale * (r["calls"] * cin
                                     + r["child_calls"] * cout)
        rows[layer] = {"calls": r["calls"], "self_s": max(cal, 0.0)}
    total = sum(r["self_s"] for r in rows.values()) or 1.0
    for r in rows.values():
        r["share"] = r["self_s"] / total
    return rows
