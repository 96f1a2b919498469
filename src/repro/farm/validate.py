"""Structured validation of JobSpec / fault-plan JSON documents.

Every surface that accepts an untrusted JSON description of a run —
``repro run --faults`` and any future config loader — funnels through
this module instead of calling dataclass constructors directly, so
malformed input produces a :class:`SpecValidationError` carrying
*field-level* messages (one ``{"field", "error"}`` entry per offending
field) rather than a raw traceback. The CLI prints them one per line.

``validate_jobspec`` accepts the wire form of one run::

    {
      "app": "mis",                  # registry name or dotted module path
      "variant": "fractal",
      "n_cores": 16,
      "config": {"conflict_mode": "precise", "seed": 3},
      "input": {"scale": 7},         # kwargs for the app's make_input
      "check": true,
      "max_cycles": null,
      "faults": {"task_exception_rate": 0.05},
      "resilience": {"max_attempts": 5},
      "build": {},
      "label": "mis-precise"
    }

and returns a canonical :class:`~repro.farm.job.JobSpec` whose digest is
the job's content address.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple

from ..config import LatencyModel, SystemConfig
from ..errors import ConfigError
from .job import JobSpec

#: top-level keys a JobSpec document may carry
SPEC_KEYS = ("app", "variant", "n_cores", "config", "input", "input_key",
             "check", "max_cycles", "faults", "resilience", "build",
             "label")

#: sections a fault-plan file may carry
FAULT_FILE_KEYS = ("seed", "faults", "resilience")


class SpecValidationError(ConfigError):
    """A JSON document failed validation; ``errors`` lists every field.

    Each entry is ``{"field": "<dotted.path>", "error": "<message>"}``,
    a JSON-safe structure callers can report as-is.
    """

    def __init__(self, errors: List[Dict[str, str]], *,
                 what: str = "job spec", source: Optional[str] = None):
        self.errors = list(errors)
        self.what = what
        self.source = source
        where = f"{what} ({source})" if source else what
        detail = "; ".join(f"{e['field']}: {e['error']}" for e in self.errors)
        super().__init__(f"invalid {where}: {detail}")

    def lines(self) -> List[str]:
        """One human-readable line per field error (CLI rendering)."""
        return [f"{e['field']}: {e['error']}" for e in self.errors]


class _Collector:
    """Accumulates field errors so one pass reports every problem."""

    def __init__(self):
        self.errors: List[Dict[str, str]] = []

    def add(self, field: str, message: str) -> None:
        self.errors.append({"field": field, "error": message})

    def raise_if_any(self, *, what: str, source: Optional[str]) -> None:
        if self.errors:
            raise SpecValidationError(self.errors, what=what, source=source)


def _type_name(v: Any) -> str:
    return type(v).__name__


def _want_str(errs, doc, key, default=None):
    v = doc.get(key, default)
    if v is not None and not isinstance(v, str):
        errs.add(key, f"must be a string, got {_type_name(v)}")
        return default
    return v


def _want_bool(errs, doc, key, default):
    v = doc.get(key, default)
    if not isinstance(v, bool):
        errs.add(key, f"must be a boolean, got {_type_name(v)}")
        return default
    return v


def _want_int(errs, doc, key, default, *, minimum=None, optional=False):
    v = doc.get(key, default)
    if v is None and optional:
        return None
    if isinstance(v, bool) or not isinstance(v, int):
        errs.add(key, f"must be an integer, got {_type_name(v)}")
        return default
    if minimum is not None and v < minimum:
        errs.add(key, f"must be >= {minimum}, got {v}")
        return default
    return v


def _want_dict(errs, doc, key):
    v = doc.get(key)
    if v is None:
        return None
    if not isinstance(v, dict):
        errs.add(key, f"must be an object, got {_type_name(v)}")
        return None
    return v


# ----------------------------------------------------------------------
def _validate_config(errs, overrides: dict,
                     n_cores: int) -> Optional[SystemConfig]:
    """Build a SystemConfig from ``with_cores`` overrides, per-key checked."""
    known = {f.name for f in dataclasses.fields(SystemConfig)}
    known.discard("mesh_dim")           # derived from n_cores
    clean = {}
    for key, value in overrides.items():
        if key not in known:
            errs.add(f"config.{key}", "unknown SystemConfig field")
            continue
        clean[key] = value
    latency = clean.get("latency")
    if latency is not None:
        if not isinstance(latency, dict):
            errs.add("config.latency",
                     f"must be an object, got {_type_name(latency)}")
            clean.pop("latency")
        else:
            lat_known = {f.name for f in dataclasses.fields(LatencyModel)}
            bad = sorted(set(latency) - lat_known)
            for key in bad:
                errs.add(f"config.latency.{key}",
                         "unknown LatencyModel field")
            if bad:
                clean.pop("latency")
            else:
                clean["latency"] = LatencyModel(**latency)
    if errs.errors:
        return None
    try:
        return SystemConfig.with_cores(n_cores, **clean)
    except (ConfigError, TypeError, ValueError) as exc:
        errs.add("config", str(exc))
        return None


def _validate_plan_dict(errs, doc: dict, prefix: str):
    """A FaultPlan from its JSON form, unknown keys reported per key."""
    from ..faults.plan import FaultPlan
    known = {f.name for f in dataclasses.fields(FaultPlan)}
    bad = sorted(set(doc) - known)
    for key in bad:
        errs.add(f"{prefix}.{key}", "unknown FaultPlan field")
    if bad:
        return None
    try:
        return FaultPlan.from_dict(doc)
    except (ConfigError, TypeError) as exc:
        errs.add(prefix, str(exc))
        return None


def _validate_resilience_dict(errs, doc: dict, prefix: str):
    """A ResiliencePolicy from its JSON form, unknown keys per key."""
    from ..faults.resilience import ResiliencePolicy
    known = {f.name for f in dataclasses.fields(ResiliencePolicy)}
    bad = sorted(set(doc) - known)
    for key in bad:
        errs.add(f"{prefix}.{key}", "unknown ResiliencePolicy field")
    if bad:
        return None
    try:
        return ResiliencePolicy.from_dict(doc)
    except (ConfigError, TypeError) as exc:
        errs.add(prefix, str(exc))
        return None


# ----------------------------------------------------------------------
def validate_jobspec(doc: Any, *,
                     source: Optional[str] = None) -> JobSpec:
    """Validate one JobSpec JSON document; returns the canonical spec.

    Raises :class:`SpecValidationError` with **every** field problem
    collected, not just the first.
    """
    if not isinstance(doc, dict):
        raise SpecValidationError(
            [{"field": "", "error": f"job spec must be a JSON object, "
                                    f"got {_type_name(doc)}"}],
            source=source)
    errs = _Collector()
    for key in sorted(set(doc) - set(SPEC_KEYS)):
        errs.add(key, "unknown job-spec field")

    app = doc.get("app")
    variants = None
    module_path = None
    if not isinstance(app, str) or not app:
        errs.add("app", "required and must be a non-empty string")
    else:
        from ..apps.registry import UnknownAppError, resolve_app
        try:
            module_path, variants = resolve_app(app)
        except UnknownAppError as exc:
            errs.add("app", str(exc))

    variant = _want_str(errs, doc, "variant", "fractal")
    if (variant is not None and variants is not None
            and variant not in variants):
        errs.add("variant",
                 f"app {app!r} supports variants {list(variants)}, "
                 f"got {variant!r}")

    n_cores = _want_int(errs, doc, "n_cores", 4, minimum=1)
    check = _want_bool(errs, doc, "check", True)
    max_cycles = _want_int(errs, doc, "max_cycles", None, minimum=1,
                           optional=True)
    label = _want_str(errs, doc, "label", "") or ""
    input_kwargs = _want_dict(errs, doc, "input")
    input_key = _want_str(errs, doc, "input_key")
    build = _want_dict(errs, doc, "build") or {}

    config = None
    cfg_doc = _want_dict(errs, doc, "config")
    if cfg_doc:
        config = _validate_config(errs, cfg_doc, n_cores or 4)

    plan = policy = None
    faults_doc = _want_dict(errs, doc, "faults")
    if faults_doc is not None:
        plan = _validate_plan_dict(errs, faults_doc, "faults")
    res_doc = _want_dict(errs, doc, "resilience")
    if res_doc is not None:
        policy = _validate_resilience_dict(errs, res_doc, "resilience")

    errs.raise_if_any(what="job spec", source=source)
    return JobSpec(app=module_path or app, variant=variant,
                   n_cores=n_cores, config=config,
                   input_kwargs=dict(input_kwargs or {}),
                   input_key=input_key, check=check, max_cycles=max_cycles,
                   fault_plan=plan, resilience=policy,
                   build_options=dict(build), label=label)


def validate_fault_sections(doc: Any, *, source: Optional[str] = None
                            ) -> Tuple[Optional[object], Optional[object]]:
    """Validate a fault-plan file document; returns ``(plan, resilience)``.

    The document holds ``{"seed", "faults", "resilience"}`` (all
    optional; ``seed`` may also live inside ``faults``). Field problems
    raise :class:`SpecValidationError`; the legacy messages the fault
    tests pin ("JSON object", "unknown fault-file sections") are kept.
    """
    if not isinstance(doc, dict):
        raise ConfigError(
            f"fault file {source or '<doc>'} must hold a JSON object")
    unknown = set(doc) - set(FAULT_FILE_KEYS)
    if unknown:
        raise ConfigError(
            f"unknown fault-file sections: {sorted(unknown)}")
    errs = _Collector()
    faults = _want_dict(errs, doc, "faults") or {}
    faults = dict(faults)
    if "seed" in doc:
        seed = _want_int(errs, doc, "seed", 0)
        faults.setdefault("seed", seed)
    plan = _validate_plan_dict(errs, faults, "faults")
    policy = None
    res_doc = _want_dict(errs, doc, "resilience")
    if res_doc is not None:
        policy = _validate_resilience_dict(errs, res_doc, "resilience")
    errs.raise_if_any(what="fault plan", source=source)
    return plan, policy
