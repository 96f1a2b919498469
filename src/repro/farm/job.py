"""Jobs: canonical descriptions of one simulation run, and their digests.

A :class:`JobSpec` captures everything that determines a run's outcome —
app, input, variant, core count, full :class:`~repro.config.SystemConfig`,
fault plan, resilience policy, build options — as a *canonical* JSON-safe
dict (:meth:`JobSpec.canonical`) hashed into a stable content address
(:meth:`JobSpec.digest`). Two specs with the same digest produce
byte-identical :class:`~repro.core.stats.RunStats`, which is what lets the
:class:`~repro.farm.cache.ResultCache` skip re-execution and the
:class:`~repro.farm.farm.Farm` fan jobs out across worker processes while
keeping sweep tables byte-identical to serial runs.

Canonicalization (:func:`canonical`) is structural: containers are
ordered, dataclasses and ``to_dict``-bearing objects are expanded
field-by-field, sets are sorted by their canonical JSON, and anything
opaque falls back to a pickle digest. It never depends on ``id()``,
``repr`` addresses, or dict insertion order.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..config import SystemConfig
from ..core.stats import RunStats
from ..errors import ConfigError

# The interpreter's built-in SHA-256, as random.py does it: importing
# hashlib would also load _hashlib, which maps OpenSSL's libcrypto into
# every process that only digests a run. Same function, same digests.
try:
    from _sha2 import sha256            # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256      # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256

#: canonical-form version; bump to invalidate every existing digest
JOB_SCHEMA = "repro.farm-job/1"

_MAX_DEPTH = 32


def _pickle_digest(obj: Any) -> Dict[str, str]:
    """Last-resort content key for objects with no structural form."""
    import pickle
    payload = pickle.dumps(obj, protocol=4)
    return {"__pickle_sha256__": sha256(payload).hexdigest()}


def canonical(obj: Any, _depth: int = 0) -> Any:
    """Reduce ``obj`` to a deterministic JSON-safe structure.

    Handles primitives, containers (dicts sorted by key, sets sorted by
    canonical JSON; a dict with any non-``str`` key becomes a tagged
    list of ``[key, value]`` pairs sorted by canonical JSON, so ``1`` and
    ``"1"`` stay distinct keys), dataclasses, objects exposing
    ``to_dict()``, and plain ``__dict__`` objects (private attributes
    skipped). Anything else — or anything nested deeper than the cycle
    guard allows — degrades to a pickle digest.
    """
    if _depth > _MAX_DEPTH:
        return _pickle_digest(obj)
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, bytes):
        return {"__bytes__": obj.hex()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v, _depth + 1) for v in obj]
    if isinstance(obj, dict):
        if all(isinstance(k, str) for k in obj):
            return {k: canonical(obj[k], _depth + 1) for k in sorted(obj)}
        # a non-str key keeps its type: {1: x} and {"1": x} must differ
        pairs = [[canonical(k, _depth + 1), canonical(v, _depth + 1)]
                 for k, v in obj.items()]
        return {"__items__": sorted(pairs, key=_dumps)}
    if isinstance(obj, (set, frozenset)):
        return {"__set__": sorted(canonical_json(v) for v in obj)}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {"__dataclass__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            out[f.name] = canonical(getattr(obj, f.name), _depth + 1)
        return out
    to_dict = getattr(obj, "to_dict", None)
    if callable(to_dict):
        return {"__class__": type(obj).__name__,
                "state": canonical(to_dict(), _depth + 1)}
    attrs = getattr(obj, "__dict__", None)
    if attrs is not None:
        public = {k: v for k, v in attrs.items() if not k.startswith("_")}
        return {"__class__": type(obj).__qualname__,
                "attrs": canonical(public, _depth + 1)}
    return _pickle_digest(obj)


def _dumps(form: Any) -> str:
    return json.dumps(form, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True)


def canonical_json(obj: Any) -> str:
    """The canonical form of ``obj`` as compact, key-sorted JSON."""
    return _dumps(canonical(obj))


def stable_digest(obj: Any) -> str:
    """SHA-256 hex digest of the canonical JSON of ``obj``."""
    return sha256(canonical_json(obj).encode()).hexdigest()


@dataclass
class JobSpec:
    """One simulation run, content-addressable and shippable to a worker.

    Either ``input_obj`` (a picklable, already-built input) or
    ``input_kwargs`` (arguments for the app module's ``make_input``,
    built worker-side) describes the input; ``input_key`` optionally
    overrides the cache key when neither canonicalizes cheaply.
    ``config`` wins over ``n_cores`` when both are given.
    """

    app: str                                  # module path, e.g. repro.apps.mis
    variant: str = "fractal"
    n_cores: int = 4
    config: Optional[SystemConfig] = None
    input_obj: Any = None
    input_kwargs: Optional[Dict[str, Any]] = None
    input_key: Optional[str] = None
    check: bool = True
    max_cycles: Optional[int] = None
    fault_plan: Any = None                    # repro.faults.FaultPlan
    resilience: Any = None                    # repro.faults.ResiliencePolicy
    build_options: Dict[str, Any] = field(default_factory=dict)
    label: str = ""

    def resolved_config(self) -> SystemConfig:
        """The full config this job runs under (defaults applied)."""
        return self.config or SystemConfig.with_cores(self.n_cores)

    @property
    def display(self) -> str:
        """Short human label for progress lines and events."""
        if self.label:
            return self.label
        short = self.app.rsplit(".", 1)[-1]
        return f"{short}-{self.variant}@{self.resolved_config().n_cores}c"

    def _input_canonical(self) -> Any:
        if self.input_key is not None:
            return {"key": self.input_key}
        if self.input_kwargs is not None:
            return {"make_input": canonical(self.input_kwargs)}
        return {"object": canonical(self.input_obj)}

    def canonical(self) -> dict:
        """The JSON-safe dict the content address is computed from."""
        return {
            "schema": JOB_SCHEMA,
            "app": self.app,
            "variant": self.variant,
            "config": canonical(self.resolved_config()),
            "input": self._input_canonical(),
            "check": self.check,
            "max_cycles": self.max_cycles,
            "fault_plan": canonical(self.fault_plan),
            "resilience": canonical(self.resilience),
            "build_options": canonical(self.build_options),
        }

    def digest(self) -> str:
        """Stable content address (SHA-256 hex) of this job."""
        d = getattr(self, "_digest", None)
        if d is None:
            d = self._digest = stable_digest(self.canonical())
        return d


@dataclass
class JobResult:
    """Outcome of one job: stats plus provenance."""

    digest: str
    app: str
    variant: str
    n_cores: int
    label: str
    stats: Optional[RunStats] = None
    cached: bool = False
    wall_s: float = 0.0
    attempts: int = 1
    #: ``"ExcType: message"`` when the job ultimately failed, else None
    error: Optional[str] = None
    traceback: Optional[str] = None

    @classmethod
    def for_spec(cls, spec: JobSpec, **outcome) -> "JobResult":
        """The result of ``spec`` with its provenance fields filled in."""
        return cls(digest=spec.digest(), app=spec.app, variant=spec.variant,
                   n_cores=spec.resolved_config().n_cores,
                   label=spec.display, **outcome)

    @property
    def ok(self) -> bool:
        """True when the job produced stats (possibly partial) without
        raising."""
        return self.error is None and self.stats is not None


def execute_job(spec: JobSpec) -> JobResult:
    """Run one :class:`JobSpec` to completion in *this* process.

    This is the farm's worker entry point — it never raises for
    application/simulation errors; failures come back as a
    :class:`JobResult` with ``error`` set so the parent can apply its
    retry policy.
    """
    from ..bench.harness import run_app

    t0 = time.perf_counter()
    try:
        app = importlib.import_module(spec.app)
        inp = spec.input_obj
        if inp is None and spec.input_kwargs is not None:
            inp = app.make_input(**spec.input_kwargs)
        cfg = spec.resolved_config()
        run = run_app(app, inp, variant=spec.variant, n_cores=cfg.n_cores,
                      config=cfg, check=spec.check,
                      max_cycles=spec.max_cycles,
                      faults=spec.fault_plan, resilience=spec.resilience,
                      **spec.build_options)
        return JobResult.for_spec(spec, stats=run.stats,
                                  wall_s=time.perf_counter() - t0)
    except ConfigError:
        raise                     # caller bug, not a transient failure
    except Exception as exc:
        import traceback
        return JobResult.for_spec(spec, error=f"{type(exc).__name__}: {exc}",
                                  traceback=traceback.format_exc(),
                                  wall_s=time.perf_counter() - t0)
