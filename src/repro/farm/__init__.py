"""repro.farm — parallel experiment execution with a result cache.

The subsystem every sweep runs through (see README "Parallel sweeps &
result cache"):

- :class:`JobSpec` / :class:`JobResult` — one simulation run as a
  canonical, content-addressed description (:func:`canonical`,
  :func:`stable_digest`) plus its outcome;
- :class:`ResultCache` — dir-per-digest store of ``RunStats`` keyed by
  job digest and a :func:`code_fingerprint` of the source tree, so
  re-running a sweep only executes jobs whose digest is missing or whose
  code is stale;
- :class:`Farm` — the ``multiprocessing`` scheduler: worker warm-up,
  bounded in-flight backpressure, watchdog timeouts and retries reusing
  the :mod:`repro.faults` backoff curve, ordered result collection (so
  tables are byte-identical to serial runs), and a live progress line;
- :func:`deterministic_shards` / :func:`select_shard` — stable,
  coordination-free partitioning of job sets across machines
  (``benchmarks/run_all.py --shard K/N`` over a shared cache dir);
- :func:`validate_jobspec` / :func:`validate_fault_sections` — turn
  JSON job and fault-plan documents into validated objects, collecting
  every field error in one pass.
"""

from .cache import CACHE_SCHEMA, ResultCache, code_fingerprint
from .farm import Farm
from .job import (JOB_SCHEMA, JobResult, JobSpec, canonical, canonical_json,
                  execute_job, stable_digest)
from .shard import (deterministic_shards, parse_shard, select_shard,
                    shard_index)
from .validate import (SpecValidationError, validate_fault_sections,
                       validate_jobspec)

__all__ = [
    "CACHE_SCHEMA",
    "Farm",
    "JOB_SCHEMA",
    "JobResult",
    "JobSpec",
    "ResultCache",
    "SpecValidationError",
    "canonical",
    "canonical_json",
    "code_fingerprint",
    "deterministic_shards",
    "execute_job",
    "parse_shard",
    "select_shard",
    "shard_index",
    "stable_digest",
    "validate_fault_sections",
    "validate_jobspec",
]
