"""The Farm: a deterministic parallel scheduler for simulation jobs.

``Farm.run(specs)`` executes a list of :class:`~repro.farm.job.JobSpec`
on a ``multiprocessing`` worker pool and returns one
:class:`~repro.farm.job.JobResult` per spec **in input order**, no matter
which worker finished first — so any table rendered from the results is
byte-identical to a serial run. On top of the pool it layers:

- a :class:`~repro.farm.cache.ResultCache` pass that satisfies jobs whose
  content address already has a fresh entry without executing anything;
- worker warm-up (the heavy ``repro`` imports are paid once per worker,
  not on each worker's first job);
- bounded in-flight backpressure (at most ``jobs * BACKLOG_FACTOR``
  submitted but unfinished jobs, so huge sweeps don't pickle every input
  up front);
- per-job timeouts via the :mod:`repro.faults` graceful watchdog (the
  job returns partial stats instead of being killed) and parent-side
  retries for crashed/raising jobs using the same exponential
  :func:`repro.faults.backoff_delay` curve, read in milliseconds;
- an optional single-line live progress display and lifetime
  :meth:`Farm.summary` counters.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import List, Optional, Sequence

from ..errors import FarmError
from ..faults.resilience import ResiliencePolicy, backoff_delay
from .cache import ResultCache
from .job import JobResult, JobSpec, execute_job

#: attempts per job before its failure is reported
MAX_ATTEMPTS = 2
#: retry curve reused from repro.faults; cycles read as milliseconds here
RETRY_POLICY = ResiliencePolicy(backoff_base=200, backoff_factor=2.0,
                                backoff_cap=5_000)
#: submitted-but-unfinished jobs allowed per worker
BACKLOG_FACTOR = 4


def _warmup_worker() -> None:
    # Pay the heavy imports once per worker, not on its first job.
    import repro.bench.harness  # noqa: F401  (pulls simulator + telemetry)
    import repro.apps  # noqa: F401


class Farm:
    """Parallel executor for :class:`JobSpec` lists (see module docs).

    ``jobs <= 1`` executes inline in the parent process (identical code
    path minus the pool), which is both the determinism baseline and the
    debuggable mode; ``jobs > 1`` runs a process pool that lives for one
    ``run()`` call.
    """

    def __init__(self, jobs: int = 1, *,
                 cache: Optional[ResultCache] = None,
                 timeout_s: float = 0.0,
                 progress: bool = False,
                 crash_dump_dir: Optional[str] = None):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.timeout_s = timeout_s
        self.progress = progress
        self.crash_dump_dir = str(crash_dump_dir) if crash_dump_dir \
            else None
        # lifetime counters (across run() calls) for summary()
        self.n_jobs = 0
        self.n_done = 0
        self.n_failed = 0
        self.n_cache_hits = 0
        self.n_retries = 0
        self.n_worker_crashes = 0
        self.wall_s = 0.0
        self._progress_tty = hasattr(sys.stderr, "isatty") \
            and sys.stderr.isatty()
        #: seconds between plain-text progress lines on non-TTY stderr
        self.progress_interval_s = 5.0
        self._progress_last = 0.0

    # ------------------------------------------------------------------
    def _with_timeout(self, spec: JobSpec) -> JobSpec:
        """Attach the graceful wall-clock watchdog for ``timeout_s``.

        Must be applied *before* digests are computed: a timed job is a
        different content address than an untimed one, because the
        watchdog can change its result (partial stats). ``timeout_s <= 0``
        returns the spec unchanged.
        """
        if self.timeout_s <= 0:
            return spec
        base = spec.resilience
        if base is None:
            # watchdog only — every other resilience mechanism stays off
            # so stats match a policy-free run that doesn't hit the limit
            base = ResiliencePolicy(max_attempts=0, backoff_base=0,
                                    livelock_window=0)
        if base.max_wall_seconds and base.max_wall_seconds <= self.timeout_s:
            policy = base
        else:
            policy = dataclasses.replace(base,
                                         max_wall_seconds=self.timeout_s)
        return dataclasses.replace(spec, resilience=policy)

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[JobSpec]) -> List[JobResult]:
        """Execute every spec; results come back in input order.

        Failed jobs (retries exhausted) come back with ``error`` set; they
        never raise here so one bad job cannot sink a sweep.
        """
        t_run = time.monotonic()
        specs = [self._with_timeout(s) for s in specs]
        self.n_jobs += len(specs)
        results: List[Optional[JobResult]] = [None] * len(specs)

        pending: List[int] = []
        for i, spec in enumerate(specs):
            hit = self.cache.get(spec.digest()) if self.cache else None
            if hit is not None:
                results[i] = JobResult.for_spec(spec, stats=hit, cached=True)
                self.n_cache_hits += 1
                self.n_done += 1
            else:
                pending.append(i)

        self._progress(len(specs), running=0)
        if pending:
            if self.jobs > 1:
                self._run_pool(specs, pending, results)
            else:
                self._run_inline(specs, pending, results)
        self.wall_s += time.monotonic() - t_run
        self._progress(len(specs), running=0, final=True)
        return [r for r in results if r is not None]  # all are set

    # ------------------------------------------------------------------
    def _settle(self, specs, idx: int, attempt: int, res: JobResult,
                queue, results: List[Optional[JobResult]]) -> None:
        """Queue a failed attempt for a backed-off retry while attempts
        remain; otherwise record ``res`` as the job's final result."""
        res.attempts = attempt
        if res.error is not None and attempt < MAX_ATTEMPTS:
            self.n_retries += 1
            delay_s = backoff_delay(RETRY_POLICY, attempt) / 1000.0
            queue.append((idx, attempt + 1, time.monotonic() + delay_s))
            return
        results[idx] = res
        self.n_done += 1
        if res.error is not None:
            self.n_failed += 1
        # never cache partial (watchdog-stopped) results
        elif self.cache is not None and res.stats.completed:
            self.cache.put(specs[idx], res.stats, wall_s=res.wall_s)

    def _dump_worker_crash(self, spec, attempt: int, detail: str) -> None:
        if self.crash_dump_dir is None:
            return
        try:
            from ..faults.crashdump import write_farm_crash_bundle
            write_farm_crash_bundle(
                spec, self.crash_dump_dir, "farm_worker_crash",
                attempt=attempt, detail=detail)
        except Exception:           # diagnostics must never sink a sweep
            pass

    def _run_inline(self, specs, pending, results) -> None:
        queue = deque((idx, 1, 0.0) for idx in pending)
        while queue:
            idx, attempt, ready_at = queue.popleft()
            time.sleep(max(0.0, ready_at - time.monotonic()))
            self._settle(specs, idx, attempt, execute_job(specs[idx]),
                         queue, results)
            self._progress(len(specs), running=0)

    def _run_pool(self, specs, pending, results) -> None:
        max_inflight = self.jobs * BACKLOG_FACTOR
        queue = deque((idx, 1, 0.0) for idx in pending)
        inflight = {}
        executor = self._make_executor()
        try:
            while queue or inflight:
                now = time.monotonic()
                while queue and len(inflight) < max_inflight:
                    idx, attempt, ready_at = queue[0]
                    if ready_at > now:
                        break
                    queue.popleft()
                    fut = executor.submit(execute_job, specs[idx])
                    inflight[fut] = (idx, attempt)
                self._progress(len(specs), running=len(inflight))
                if not inflight:
                    time.sleep(min(0.05, max(0.0, queue[0][2] - now)))
                    continue
                done, _ = wait(list(inflight), timeout=0.2,
                               return_when=FIRST_COMPLETED)
                crashed = False
                for fut in done:
                    idx, attempt = inflight.pop(fut)
                    exc = fut.exception()
                    if exc is None:
                        res = fut.result()
                    else:
                        # worker died (or spec failed to pickle): the pool
                        # is broken; every in-flight job went down with it
                        crashed = True
                        self.n_worker_crashes += 1
                        self._dump_worker_crash(
                            specs[idx], attempt,
                            f"{type(exc).__name__}: {exc}")
                        res = JobResult.for_spec(
                            specs[idx], error=f"worker crash: {exc}")
                    self._settle(specs, idx, attempt, res, queue, results)
                if crashed:
                    # drain the victims — salvage any future that finished
                    # cleanly before the pool broke, retry the rest
                    for fut, (idx, attempt) in inflight.items():
                        if fut.done() and fut.exception() is None:
                            res = fut.result()
                        else:
                            res = JobResult.for_spec(
                                specs[idx], error="worker pool broke")
                        self._settle(specs, idx, attempt, res, queue,
                                     results)
                    inflight.clear()
                    executor.shutdown(wait=False, cancel_futures=True)
                    executor = self._make_executor()
                self._progress(len(specs), running=len(inflight))
        finally:
            executor.shutdown(wait=False, cancel_futures=True)

    def _make_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.jobs, initializer=_warmup_worker)

    # ------------------------------------------------------------------
    def _progress(self, total: int, *, running: int,
                  final: bool = False) -> None:
        if not self.progress:
            return
        line = (f"[farm] {self.n_done}/{total} jobs  "
                f"({self.n_cache_hits} cached, {running} running, "
                f"{self.n_failed} failed)")
        if self._progress_tty:
            # interactive: one carriage-return-updated status line
            print(f"\r{line}", end="\n" if final else "", file=sys.stderr,
                  flush=True)
            return
        # non-TTY (CI logs, redirected stderr): periodic plain lines instead
        # of carriage-return spam — at most one per progress_interval_s,
        # plus the final summary line
        now = time.monotonic()
        if not final and now - self._progress_last < self.progress_interval_s:
            return
        self._progress_last = now
        print(line, file=sys.stderr, flush=True)

    def summary(self) -> dict:
        """Lifetime totals (JSON-safe), for BENCH summaries and logs."""
        cache = self.cache.stats() if self.cache else None
        return {"workers": self.jobs, "jobs": self.n_jobs,
                "done": self.n_done, "failed": self.n_failed,
                "cache_hits": self.n_cache_hits, "retries": self.n_retries,
                "worker_crashes": self.n_worker_crashes,
                "wall_s": round(self.wall_s, 3), "cache": cache}

    def raise_on_failures(self, results: Sequence[JobResult]) -> None:
        """Raise :class:`~repro.errors.FarmError` if any result failed."""
        failures = [(r.label, r.error) for r in results
                    if r.error is not None]
        if failures:
            label, err = failures[0]
            raise FarmError(
                f"{len(failures)} of {len(results)} farm jobs failed "
                f"(first: {label}: {err})", failures=failures)
