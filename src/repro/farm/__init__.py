"""repro.farm — parallel experiment execution with a result cache.

The subsystem every sweep runs through (see README "Parallel sweeps &
result cache"). The package imports none of its modules; import each
name from the module that defines it, so a process pays only for what
it uses (one run and its digest need :mod:`repro.farm.job` alone, not
``multiprocessing`` or OpenSSL):

- :mod:`repro.farm.job` — :class:`JobSpec` / :class:`JobResult`, one
  simulation run as a canonical, content-addressed description
  (``canonical``, ``canonical_json``, ``stable_digest``, ``JOB_SCHEMA``)
  plus its outcome, and ``execute_job``, which runs one in this process;
- :mod:`repro.farm.cache` — :class:`ResultCache`, a dir-per-digest store
  of ``RunStats`` keyed by job digest and a ``code_fingerprint`` of the
  source tree (``CACHE_SCHEMA``), so re-running a sweep only executes
  jobs whose digest is missing or whose code is stale;
- :mod:`repro.farm.farm` — :class:`Farm`, the ``multiprocessing``
  scheduler: worker warm-up, bounded in-flight backpressure, watchdog
  timeouts and retries reusing the :mod:`repro.faults` backoff curve,
  ordered result collection (so tables are byte-identical to serial
  runs), and a live progress line;
- :mod:`repro.farm.shard` — ``deterministic_shards``, ``select_shard``,
  ``shard_index`` and ``parse_shard``: stable, coordination-free
  partitioning of job sets across machines (``benchmarks/run_all.py
  --shard K/N`` over a shared cache dir);
- :mod:`repro.farm.validate` — ``validate_jobspec`` /
  ``validate_fault_sections`` (raising ``SpecValidationError``) turn
  JSON job and fault-plan documents into validated objects, collecting
  every field error in one pass.
"""
