"""The event-driven Fractal/Swarm simulator (paper Secs. 4-5).

One :class:`Simulator` models one tiled multicore (Fig. 8) executing a
Fractal program:

- cores dispatch the lowest-VT pending task from their tile's task unit and
  run it speculatively; the task body (a Python callable) executes at
  dispatch, its memory accesses flowing through :class:`repro.mem.memory.SpecMemory`
  (eager versioning + eager conflict detection) and the cache/NoC latency
  model, which determine the task's duration in cycles;
- conflicts abort the later task plus its descendants and data-dependent
  tasks (selective aborts); aborted tasks re-execute, squashed children are
  recreated by the re-execution;
- a GVT arbiter commits finished tasks behind the earliest unfinished VT
  every ``commit_interval`` cycles;
- task queues spill through coalescers/splitters when they fill;
- nesting beyond the VT bit budget triggers zooming (Sec. 4.3) and
  tiebreakers wrap around and compact (Sec. 4.4).

Fidelity note (see DESIGN.md): a task's body runs atomically at its
dispatch instant; its memory effects are visible to tasks dispatched later
in simulated time, and conflict checks happen at those later dispatch
instants. This task-granular approximation preserves conflict structure,
queue dynamics and ordering exactly, and timing to first order.
"""

from __future__ import annotations

import heapq
import time
from bisect import bisect_right
from operator import attrgetter
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Tuple, Union)

from ..arch.cache import CacheModel
from ..arch.gvt import GvtArbiter, GvtFrontier
from ..arch.noc import MeshNoC
from ..arch.scheduler import HintScheduler
from ..arch.spill import (CoalescerJob, SpillBuffer, SplitterJob,
                          select_spill_victims)
from ..arch.tile import Core, Tile
from ..config import SystemConfig
from ..errors import (DomainError, FractalError, QueueError,
                      SerializabilityViolation, SimulationError,
                      TaskExecutionError)
from ..mem.address import AddressSpace
from ..mem.conflicts import make_conflict_model
from ..mem.memory import SpecMemory
from ..telemetry import events as tev
from ..telemetry.bus import EventBus, EventRingBuffer
from ..telemetry.metrics import MetricsRegistry
from ..vt import FractalVT, Ordering, TiebreakerAllocator
from ..vt.tiebreaker import WrapAround
from .api import NeedZoomIn, NeedZoomOut, TaskAborted, TaskContext
from .domain import Domain
from .hostbase import AllocAPI
from .stats import CycleBreakdown, RunStats
from .task import TaskDesc, TaskState, tid_watermark
from .zoom import ZoomController

if TYPE_CHECKING:  # repro.faults loads only when a run uses it
    from ..faults.injector import FaultInjector
    from ..faults.plan import FaultPlan
    from ..faults.resilience import LivelockDetector, ResiliencePolicy

_FINISH = 0
_TICK = 1
_CORE_FREE = 2
_FINISH_SPECIAL = 3
_REQUEUE = 4

_order_key = attrgetter("order_key")


class _WatchdogFire(Exception):
    """Internal control flow: a resilience watchdog limit was hit.

    Raised from the tick handler to unwind the event loop without a
    per-event flag check; run() catches it and returns partial stats.
    """

    def __init__(self, kind: str, limit: float):
        super().__init__(kind)
        self.kind = kind
        self.limit = limit


class Simulator(AllocAPI):
    """A Fractal chip executing one program."""

    def __init__(self, config: Optional[SystemConfig] = None, *,
                 root_ordering: Ordering = Ordering.UNORDERED,
                 name: str = "sim", enable_audit: bool = True,
                 bus: Optional[EventBus] = None,
                 faults: Optional[Union[FaultPlan, FaultInjector]] = None,
                 resilience: Optional[ResiliencePolicy] = None,
                 crash_dump_dir: Optional[str] = None):
        self.config = config or SystemConfig.with_cores(4)
        self.name = name
        cfg = self.config

        # Fault injection & resilience (repro.faults). Both default off;
        # every hook below guards on ``is not None`` so the vanilla path
        # costs one None check per site (same discipline as telemetry),
        # and a run that uses neither never imports repro.faults.
        if faults is not None:
            from ..faults.injector import FaultInjector
            from ..faults.plan import FaultPlan
            if isinstance(faults, FaultPlan):
                faults = FaultInjector(faults)
            faults.clock = lambda: self.now
            faults.tid_base = tid_watermark()
        self._faults: Optional[FaultInjector] = faults
        self._resil: Optional[ResiliencePolicy] = resilience
        self._livelock: Optional[LivelockDetector] = None
        if resilience is not None:
            from ..faults.resilience import LivelockDetector
            self._livelock = LivelockDetector(resilience)
        self.crash_dump_dir = crash_dump_dir
        #: path of the bundle written by the last crash/watchdog, if any
        self.crash_bundle_path: Optional[str] = None
        self._crash_ring: Optional[EventRingBuffer] = None
        self._safe_mode = False
        self._throttled = False
        self._aborts_total = 0
        self._wall_start = 0.0

        # Telemetry: every run owns a metrics registry (the single source
        # of truth RunStats is rebuilt from) and an event bus. Emission
        # sites guard on ``self._ebus`` — the bus when it has subscribers,
        # else None — so a disabled run pays one None check per site (a
        # truthiness test on the bus itself would call Python-level
        # ``__bool__`` tens of thousands of times). Subscribers must
        # attach before run(); _refresh_ebus() re-checks there.
        self.metrics = MetricsRegistry()
        self.bus = bus if bus is not None else EventBus()
        self._ebus: Optional[EventBus] = None

        self.space = AddressSpace(cfg.line_bytes, cfg.n_tiles)
        self.conflicts = make_conflict_model(
            cfg.conflict_mode, bits=cfg.bloom_bits, ways=cfg.bloom_ways,
            seed=cfg.seed)
        self.conflicts._live_gauge = self.metrics.gauge(
            "live_speculative_tasks")
        self.memory = SpecMemory(self.space, self.conflicts)
        self.memory.abort_cascade = self._abort_cascade
        self.memory.clock = lambda: self.now
        if faults is not None and faults.plan.conflict_rate > 0.0:
            self.memory.fault_hook = faults.force_conflict
        self.noc = MeshNoC(cfg.mesh_dim, cfg.latency.hop_straight,
                           cfg.latency.hop_turn)
        self.cache = CacheModel(self.space, self.noc, cfg.latency,
                                seed=cfg.seed)
        self.scheduler = HintScheduler(cfg.n_tiles, cfg.use_hints,
                                       cfg.load_balance_threshold, cfg.seed)
        self.scheduler.clock = lambda: self.now
        self.arbiter = GvtArbiter(cfg.commit_interval)
        # read on every abort / enqueue
        self._abort_penalty = cfg.abort_penalty
        self._spill_threshold = cfg.spill_threshold
        core_bits = max(4, (max(cfg.n_cores - 1, 1)).bit_length())
        self.alloc = TiebreakerAllocator(cfg.tiebreaker_bits, core_bits)
        self.vt_budget = cfg.vt_bits

        tq_cap = cfg.task_queue_per_tile
        cq_cap = cfg.commit_queue_per_tile
        if faults is not None:
            # queue-squeeze site: shrunken physical capacities
            tq_cap = faults.squeeze_capacity(tq_cap)
            cq_cap = faults.squeeze_capacity(cq_cap)
        self.tiles: List[Tile] = []
        self.cores: List[Core] = []
        for t in range(cfg.n_tiles):
            tile = Tile(t, cfg.cores_per_tile, tq_cap, cq_cap)
            for _ in range(cfg.cores_per_tile):
                core = Core(len(self.cores), t)
                tile.cores.append(core)
                self.cores.append(core)
            self.tiles.append(tile)
        # the scheduler's view of the tiles, built once for every enqueue
        self._units = [t.unit for t in self.tiles]
        self._special_jobs: List[List] = [[] for _ in range(cfg.n_tiles)]
        self._coalescer_queued = [False] * cfg.n_tiles
        self._spill_buffers: List[SpillBuffer] = []

        self.root_domain = Domain(root_ordering)
        self.zoom = ZoomController(self)

        self.now = 0
        # The pending event list: each cycle's ``(kind, payload)`` events
        # in scheduling order, plus a heap of the distinct cycles, so an
        # event costs one list append and only a new cycle a heap push.
        # ``_event_seq`` counts every event ever scheduled.
        self._buckets: Dict[int, List[Tuple[int, Any]]] = {}
        self._cycles: List[int] = []
        self._event_seq = 0
        self._tick_scheduled = False
        # live tasks as an insertion-ordered dict for determinism
        self._live: Dict[TaskDesc, None] = {}
        # aborted tasks waiting out the rollback latency before re-queueing
        self._limbo: Dict[TaskDesc, None] = {}
        # incrementally-maintained GVT bound over the live set
        self._frontier = GvtFrontier()
        # finished tasks awaiting commit (FINISHED and FINISH_STALLED), as
        # an insertion-ordered dict: an abort drops one in O(1)
        self._finished: Dict[TaskDesc, None] = {}
        self._executing: Optional[TaskDesc] = None
        self._executing_ctx: Optional[TaskContext] = None
        # commits so far: the next commit's sequence number, and the count
        # that GVT ticks, the livelock detector and crash bundles report
        self._commit_seq = 0

        # Commit-order invariant: within one zoom epoch, commits must be
        # VT-monotone (the audit alone cannot see blind-write misorderings).
        self._last_commit_key: Optional[tuple] = None

        self.enable_audit = enable_audit
        self.memory.record_values = enable_audit
        self.commit_log: List[TaskDesc] = []
        self._initial_snapshot: Optional[Dict[int, Any]] = None
        if crash_dump_dir is not None:
            # last-N event ring feeding crash bundles (repro.faults.crashdump)
            self._crash_ring = EventRingBuffer()
            self.bus.subscribe(self._crash_ring)
        self._refresh_ebus()

        self.stats = RunStats(name=name, n_cores=cfg.n_cores)
        self._ran = False
        self._cascade_seq = 0

        # Cached metric handles for the hot accounting paths. Cycle
        # categories carry a per-core label; task outcomes a per-depth
        # label; enqueues a per-tile label.
        m = self.metrics
        self._m_cycles = {
            cat: [m.counter("cycles", category=cat, core=c)
                  for c in range(cfg.n_cores)]
            for cat in ("committed", "aborted", "spill", "stall")}
        self._m_enqueues = [m.counter("enqueues", tile=t)
                            for t in range(cfg.n_tiles)]
        self._m_tasks: Dict[Tuple[str, int], Any] = {}
        self._m_spilled = m.counter("tasks_spilled")
        self._m_domains = m.counter("domains_created")
        self._m_depth = m.gauge("max_depth")
        self._m_depth.set(1)
        self._m_task_len = m.histogram("committed_task_cycles")
        # resilience counters exist only when a policy is active, so
        # vanilla runs export byte-identical metrics to older versions
        if resilience is not None:
            self._m_exec_retries = m.counter("exec_fault_retries")
            self._m_backoffs = m.counter("backoff_requeues")
            self._m_safe_entries = m.counter("safe_mode_entries")
        else:
            self._m_exec_retries = None
            self._m_backoffs = None
            self._m_safe_entries = None

    def _refresh_ebus(self) -> None:
        """Sync the cached emission handle with the bus's subscriber state.

        Called at construction and again when run() starts, so subscribers
        attached between the two still see the run-time event stream
        (build-phase enqueues are only observable to subscribers attached
        before the enqueue happens).
        """
        self._ebus = self.bus if self.bus._subs else None
        self.memory.bus = self._ebus
        self.scheduler.bus = self._ebus
        self.arbiter.bus = self._ebus
        if self._faults is not None:
            self._faults.bus = self._ebus

    # ==================================================================
    # program construction
    # ==================================================================
    def enqueue_root(self, fn: Callable, *args, ts: Optional[int] = None,
                     hint: Optional[int] = None,
                     label: Optional[str] = None) -> TaskDesc:
        """Enqueue an initial task into the root domain (before run())."""
        if self._ran:
            raise SimulationError("enqueue_root after run()")
        timestamp = self.root_domain.ordering.validate_timestamp(ts)
        task = TaskDesc(fn, args, self.root_domain,
                        timestamp=timestamp if
                        self.root_domain.ordering.is_ordered else None,
                        hint=hint, label=label)
        task.vt = FractalVT.root(self.root_domain.ordering,
                                 task.timestamp or 0,
                                 self.alloc.lower_bound(0))
        self._admit(task)
        return task

    # ==================================================================
    # main loop
    # ==================================================================
    def run(self, max_cycles: Optional[int] = None) -> RunStats:
        """Execute until all tasks commit; return the run's statistics.

        ``max_cycles`` keeps its original hard-failure semantics (raise
        :class:`SimulationError` on overrun). The graceful alternative is
        :attr:`ResiliencePolicy.max_cycles` / ``max_wall_seconds``, which
        stop the run and return partial stats with ``stats.failure`` set.
        """
        if self._ran:
            raise SimulationError("a Simulator instance runs exactly once")
        self._ran = True
        self._refresh_ebus()
        self._wall_start = time.monotonic()
        if self.enable_audit:
            self._initial_snapshot = dict(self.memory._values)

            def fold_poke(addr, value, snap=self._initial_snapshot):
                # a mid-run poke initializes a fresh address (SpecDict slot
                # birth); it "always existed" for replay purposes
                snap.setdefault(addr, value)

            self.memory.on_poke = fold_poke
        buckets = self._buckets
        cycles = self._cycles
        try:
            # initial dispatch runs task bodies too — keep it inside the
            # crash-dump / watchdog envelope
            for tile in self.tiles:
                self._dispatch_tile(tile.tid)
            self._ensure_tick()
            while cycles:
                when = heapq.heappop(cycles)
                if when < self.now:
                    raise SimulationError("time went backwards")
                self.now = when
                if max_cycles is not None and when > max_cycles:
                    raise SimulationError(
                        f"exceeded max_cycles={max_cycles} with "
                        f"{len(self._live)} live tasks")
                # Events a handler schedules into this cycle land at the
                # end of this list and run in this same drain, after every
                # earlier-scheduled one: the (cycle, scheduling order)
                # order of one global heap.
                for kind, payload in buckets[when]:
                    if kind == _FINISH:
                        self._on_finish(*payload)
                    elif kind == _TICK:
                        self._tick_scheduled = False
                        self._on_tick()
                    elif kind == _CORE_FREE:
                        self._dispatch_tile(payload)
                    elif kind == _FINISH_SPECIAL:
                        self._on_finish_special(*payload)
                    elif kind == _REQUEUE:
                        self._on_requeue(payload)
                del buckets[when]
        except _WatchdogFire as fire:
            return self._watchdog_wrapup(fire)
        except FractalError as exc:
            self._dump_crash(type(exc).__name__, exc)
            raise

        if self._live:
            stuck = list(self._live)[:5]
            exc = SimulationError(
                f"simulation drained events with {len(self._live)} live "
                f"tasks, e.g. {stuck}")
            self._dump_crash("SimulationError", exc)
            raise exc
        self.memory.assert_quiescent()
        self._finalize_stats()
        return self.stats

    # ------------------------------------------------------------------
    def _schedule(self, when: int, kind: int, payload: Any) -> None:
        self._event_seq += 1
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [(kind, payload)]
            heapq.heappush(self._cycles, when)
        else:
            bucket.append((kind, payload))

    def _ensure_tick(self) -> None:
        if not self._tick_scheduled and self._live:
            self._tick_scheduled = True
            self._schedule(self.arbiter.next_tick(self.now), _TICK, None)

    def _wake_tile(self, tile_id: int) -> None:
        self._schedule(self.now, _CORE_FREE, tile_id)

    def _release_core(self, core: Core, delay: int) -> None:
        """Free ``core`` and let its tile dispatch again ``delay`` cycles
        from now (an aborted attempt's rollback delay, else 0)."""
        core.job = None
        self._schedule(self.now + delay, _CORE_FREE, core.tile_id)

    # ==================================================================
    # enqueue / admit
    # ==================================================================
    def _task_counter(self, outcome: str, depth: int):
        """Cached ``tasks{outcome=,depth=}`` counter handle."""
        key = (outcome, depth)
        ctr = self._m_tasks.get(key)
        if ctr is None:
            ctr = self._m_tasks[key] = self.metrics.counter(
                "tasks", outcome=outcome, depth=depth)
        return ctr

    def _admit(self, task: TaskDesc) -> None:
        """Place a new or re-enqueued pending task into a task unit."""
        tile_id = self.scheduler.tile_for(task.hint, self._units,
                                          hard_cap=self._resil is not None)
        self._live[task] = None
        self._frontier.add_dyn(task)
        self.tiles[tile_id].unit.enqueue(task)
        self._m_enqueues[tile_id].value += 1
        depth = task.domain.depth
        if depth > self._m_depth.value:
            self._m_depth.value = depth
        if self._ebus is not None:
            self._ebus.emit(tev.EnqueueEvent(
                self.now, task.tid, task.label, tile_id, depth,
                task.parent.tid if task.parent is not None else None))
        self._maybe_spill(tile_id)
        if self._ran:
            self._wake_tile(tile_id)

    def _requeue(self, task: TaskDesc) -> None:
        """Re-enqueue an aborted / zoom-released / restored task."""
        task.vt = task.vt.with_tiebreaker(self.alloc.lower_bound(self.now))
        tile_id = task.queue_tile if task.queue_tile >= 0 else 0
        self.tiles[tile_id].unit.enqueue(task)
        self._maybe_spill(tile_id)
        self._wake_tile(tile_id)

    def _enqueue_child(self, ctx: TaskContext, child: TaskDesc,
                       kind: str) -> None:
        """Called by TaskContext._spawn for every child enqueue."""
        vt = ctx.task.vt
        ts = child.timestamp or 0  # None in unordered domains
        lb = self.alloc.lower_bound(self.now)
        if kind == "same":
            child.vt = vt.child_same(ts, lb)
        elif kind == "sub":
            child.vt = vt.child_sub(child.domain.ordering, ts,
                                    lb).check_budget(self.vt_budget)
        else:
            child.vt = vt.child_super(ts, lb)
        self._admit(child)
        # enqueue messages to a remote tile traverse the mesh
        if child.queue_tile != ctx.tile_id:
            ctx.cycles += self.noc.latency(ctx.tile_id, child.queue_tile)

    # ==================================================================
    # dispatch & execution
    # ==================================================================
    def _dispatch_tile(self, tile_id: int) -> None:
        tile = self.tiles[tile_id]
        unit = tile.unit
        specials = self._special_jobs[tile_id]
        if not unit.pending_count and not specials and not self._safe_mode:
            return  # nothing to hand out: every free core would pick no job
        for core in tile.cores:
            if core.job is not None:
                continue
            # a body run on an earlier core may have queued a special job
            # or entered safe mode, so each core re-checks
            if not specials and not self._safe_mode and not self._throttled:
                job = unit.pop_best()
            else:
                allow_tasks = True
                if self._safe_mode:
                    allow_tasks = self._safe_slot(tile)
                elif self._throttled:
                    # throttled: at most one task in flight per tile, which
                    # shrinks the conflict window without stopping the chip
                    allow_tasks = not any(isinstance(c.job, TaskDesc)
                                          for c in tile.cores)
                job = self._pick_job(tile, allow_tasks)
            if job is None:
                continue
            if isinstance(job, TaskDesc):
                parent = job.parent
                if (parent is not None and parent.dispatch_time >= self.now
                        and parent.is_speculative):
                    # A child may not dispatch in its parent's dispatch
                    # cycle: its tiebreaker must be strictly larger than
                    # the parent's (children order after parents). Only
                    # freshly-spawned children qualify — requeued tasks
                    # whose parents ran earlier (or committed) dispatch
                    # immediately.
                    unit.enqueue(job)
                    self._schedule(self.now + 1, _CORE_FREE, tile_id)
                    continue
                self._dispatch_task(core, job)
            else:
                core.job = job
                self._schedule(self.now + job.duration, _FINISH_SPECIAL,
                               (core, job))

    def _stripped(self, key: tuple) -> tuple:
        """A pending task's VT key with its final (lower-bound) tiebreaker
        tightened to the present — the same transform the GVT uses.

        Frozen lower bounds only record *enqueue* cycles; comparing them
        between queued and spilled tasks compares bookkeeping, not
        priority (both dispatch at >= now). Only program order —
        timestamps and real ancestor tiebreakers — may drive scheduling
        preemption, else splitters chase stale bounds in circles.
        """
        return key[:-1] + (self.alloc.lower_bound(self.now),)

    def _pick_job(self, tile: Tile, allow_tasks: bool = True):
        specials = self._special_jobs[tile.tid]
        # Coalescers run ahead of everything. Splitters are deprioritized
        # behind regular tasks — but a splitter holding work in *program
        # order earlier* than everything pending must run, or the GVT
        # (and with it every commit) would wedge behind its spilled tasks.
        for i, job in enumerate(specials):
            if job.kind == "coalescer":
                return specials.pop(i)
        best_i = None
        best_key = None
        now_lb = None
        for i, job in enumerate(specials):
            if job.kind == "splitter":
                if not job.buffer.tasks:
                    return specials.pop(i)  # empty: retire it for free
                # min over *stripped* keys — frozen-key minima mix depths
                # incomparably (same pitfall as the GVT computation)
                if now_lb is None:
                    now_lb = self.alloc.lower_bound(self.now)
                key = job.buffer.min_stripped(now_lb)
                if best_key is None or key < best_key:
                    best_i, best_key = i, key
        if best_i is not None:
            if not allow_tasks:
                # cores gated off tasks may still drain spilled work
                return specials.pop(best_i)
            pending_key = tile.unit.peek_min_stripped(now_lb)
            if pending_key is None or best_key < pending_key:
                return specials.pop(best_i)
        if not allow_tasks:
            return None
        return tile.unit.pop_best()

    def _dispatch_task(self, core: Core, task: TaskDesc) -> None:
        if task.state is not TaskState.PENDING:
            raise SimulationError(f"dispatching non-pending {task}")
        try:
            tb = self.alloc.alloc(self.now, core.cid)
        except WrapAround:
            self._compact_tiebreakers()
            tb = self.alloc.alloc(self.now, core.cid)
        task.vt = task.vt.with_tiebreaker(tb)
        task.state = TaskState.RUNNING
        # The GVT frontier's run entry is pushed once the body returns: no
        # GVT query runs inside a body, and an attempt that aborts there
        # keeps its pending entry (same prefix), so it never needs one.
        task.core = core
        task.dispatch_time = self.now
        core.job = task
        task.begin_attempt()
        self.memory.attach_owner(task)
        if self._ebus is not None:
            self._ebus.emit(tev.DispatchEvent(
                self.now, task.tid, task.label, core.cid, core.tile_id,
                task.attempt))

        ctx = TaskContext(self, task, core.tile_id, core.cid)
        ctx.cycles = self.config.dequeue_cost
        self._executing, self._executing_ctx = task, ctx
        try:
            if (self._faults is not None
                    and self._faults.fail_attempt(task)):
                from ..faults.plan import InjectedFault
                raise InjectedFault("task_exception", task.tid, task.attempt)
            task.fn(ctx, *task.args)
        except TaskAborted:
            # the cascade already rolled us back and re-queued / squashed us
            self._release_core(core, self._abort_penalty)
            return
        except (NeedZoomIn, NeedZoomOut) as need:
            self._zoom_park(task, ctx, need)
            self._release_core(core, 0)
            return
        except FractalError:
            # library invariants and typed API misuse stay fatal; the
            # crash bundle's GVT must still see the attempt as running
            if task.state is TaskState.RUNNING:
                self._frontier.add_run(task)
            raise
        except Exception as exc:  # app-code / injected task failure
            self._on_task_exception(core, task, ctx, exc)
            return
        finally:
            self._executing, self._executing_ctx = None, None

        task.duration = max(1, ctx.cycles + self.config.finish_cost)
        if self._faults is not None:
            task.duration = self._faults.stretch_duration(task, task.duration)
        if task.state is TaskState.RUNNING:
            self._frontier.add_run(task)
        self._schedule(self.now + task.duration, _FINISH,
                       (core, task, task.attempt))
        self._ensure_tick()

    def _on_task_exception(self, core: Core, task: TaskDesc,
                           ctx: TaskContext, exc: Exception) -> None:
        """An attempt died on an exception (injected fault or app bug).

        With a resilience policy and retry budget left, the attempt rolls
        back exactly like a conflict abort — ``retry_after`` (set before
        the cascade) pushes the requeue out by the exponential backoff.
        Out of budget (or with no policy at all), the speculative state is
        still rolled back cleanly, then the failure surfaces as a
        :class:`TaskExecutionError` chained to the original exception.
        """
        policy = self._resil
        task.n_exec_faults += 1
        attempt = task.attempt
        if policy is not None and task.n_exec_faults < policy.max_attempts:
            from ..faults.resilience import backoff_delay
            delay = backoff_delay(policy, task.n_exec_faults)
            task.retry_after = self.now + delay
            # the cascade's requeue path emits the retry_backoff event
            self._abort_cascade([task], "task exception")
            self._m_exec_retries.inc()
            self._release_core(core, self._abort_penalty)
            return
        vt_repr = repr(task.vt)
        self._abort_cascade([task], "task exception (fatal)")
        core.job = None
        raise TaskExecutionError(
            f"task {task.label}#{task.tid} failed on attempt {attempt}: "
            f"{exc!r}", tid=task.tid, label=task.label, vt=vt_repr,
            depth=task.domain.depth, attempt=attempt) from exc

    def _safe_slot(self, tile: Tile) -> bool:
        """Safe mode: may ``tile`` dispatch a task right now?

        Serialized forward progress (Swarm-style, paper Sec. 2): at most
        one task attempt runs chip-wide, and only the tile holding the
        earliest pending task may dispatch it. Running alone, the earliest
        live attempt cannot lose a conflict to a concurrent speculation,
        so every safe-mode slot moves the commit frontier and the abort
        storm drains instead of spinning.
        """
        for c in self.cores:
            if isinstance(c.job, TaskDesc):
                return False
        best_tile = -1
        best_key: Optional[tuple] = None
        for t in self.tiles:
            key = t.unit.peek_min_key()
            if key is None:
                continue
            key = self._stripped(key)
            if best_key is None or key < best_key:
                best_key, best_tile = key, t.tid
        if best_tile < 0:
            return False
        if best_tile != tile.tid:
            self._wake_tile(best_tile)
            return False
        return True

    def _on_finish(self, core: Core, task: TaskDesc, attempt: int) -> None:
        if (task.attempt != attempt or task.state is not TaskState.RUNNING
                or core.job is not task):
            return  # stale: the attempt was aborted while "running"
        unit = self.tiles[core.tile_id].unit
        task.finish_time = self.now
        self.memory.finish(task)
        self._frontier.discard(task)  # finished work no longer bounds GVT
        if self._ebus is not None:
            self._ebus.emit(tev.FinishEvent(self.now, task.tid, core.cid,
                                          task.duration))
        self._finished[task] = None
        if unit.acquire_commit_entry():
            task.state = TaskState.FINISHED
            core.job = None
            self._dispatch_tile(core.tile_id)
        else:
            # Core stalls holding the finished task until an entry frees.
            task.state = TaskState.FINISH_STALLED
            unit.finish_stalled.append(task)
        self._ensure_tick()

    # ==================================================================
    # GVT: commits, zooming
    # ==================================================================
    def _on_tick(self) -> None:
        if not self._live:
            return
        self.arbiter.note_tick(self.now, len(self._live),
                               len(self._finished), self._commit_seq)
        if self._resil is not None:
            self._resilience_tick()
        self._frontier.trim(len(self._live))
        gvt = self._compute_gvt()
        if self._finished:
            ordered = sorted(self._finished, key=_order_key)
            # <= is safe: the GVT can only *equal* a finished task's key
            # through a pending task's lower-bound tiebreaker (real
            # tiebreakers are unique), and any future dispatch of that
            # pending task strictly exceeds the bound — so the finished
            # task still precedes every unfinished one.
            n_commit = (len(ordered) if gvt is None
                        else bisect_right(ordered, gvt, key=_order_key))
            for t in ordered[:n_commit]:
                self._commit_one(t)
            if n_commit:
                # kept in key order, so the next tick's sort is near-linear
                self._finished = dict.fromkeys(ordered[n_commit:])
            elif gvt is not None:
                # Commit queues are wedged behind an earlier unfinished
                # task: free space by aborting higher-VT finished tasks
                # (paper Sec. 4.1: "aborting higher-timestamp tasks").
                # This must happen on EVERY stalled tile — the GVT-blocking
                # pending task may be queued on a tile whose cores are all
                # stalled, and only an entry freed *there* lets it dispatch.
                # Every finished key is past the GVT here, and keys are
                # unique, so one pass in key order leaves each stalled
                # tile's latest commit-queue entry.
                stalled = {tile.tid for tile in self.tiles
                           if tile.unit.finish_stalled}
                latest = {t.core.tile_id: t for t in ordered
                          if t.state is TaskState.FINISHED
                          and t.core.tile_id in stalled}
                if latest:
                    self._abort_cascade([latest[i] for i in sorted(latest)],
                                        "commit queue pressure")
        if self.zoom.requests or self.zoom.frames:
            self.zoom.process()
        self._ensure_tick()

    def _compute_gvt(self) -> Optional[tuple]:
        """Earliest-unfinished VT bound (the GVT), from the incremental
        frontier index (see :class:`~repro.arch.gvt.GvtFrontier`)."""
        return self._frontier.min_key(self.alloc.lower_bound(self.now))

    def _note_subdomain(self, domain) -> None:
        self._m_domains.inc()

    def _commit_one(self, task: TaskDesc) -> None:
        key = task.order_key
        if self._last_commit_key is not None and key < self._last_commit_key:
            raise SimulationError(
                f"commit order violates VT order: {task} (key {key}) after "
                f"key {self._last_commit_key}")
        self._last_commit_key = key
        self.memory.commit(task)
        self._leave_commit_queue(task)
        core = task.core
        task.state = TaskState.COMMITTED
        task.commit_seq = self._commit_seq
        self._commit_seq += 1
        self._live.pop(task, None)
        depth = task.domain.depth
        self._m_cycles["committed"][core.cid].value += task.duration
        self._task_counter("committed", depth).value += 1
        self._m_task_len.observe(task.duration)
        # the attempt is final: free what only an abort could still need
        task.children = None
        if self.enable_audit:
            self.commit_log.append(task)
        if self._ebus is not None:
            self._ebus.emit(tev.CommitEvent(
                self.now, task.tid, task.label, core.cid,
                task.dispatch_time, task.duration, depth))
        if task.emits:
            # deferred app events (TaskContext.emit): published exactly
            # once, at the commit that makes the attempt's work real
            for ev in task.emits:
                ev.t = self.now
                fold = getattr(ev, "fold_metrics", None)
                if fold is not None:
                    fold(self.metrics)
                if self._ebus is not None:
                    self._ebus.emit(ev)
            task.emits = None

    def _leave_commit_queue(self, task: TaskDesc) -> None:
        """A finished task commits or aborts. A FINISHED task frees its
        commit-queue entry, and the tile's earliest stalled tasks move
        into the free space; a FINISH_STALLED task ends its stall."""
        if task.state is TaskState.FINISH_STALLED:
            self._end_stall(task)
            return
        if task.state is not TaskState.FINISHED:
            raise SimulationError(f"{task} holds no commit-queue entry")
        unit = self.tiles[task.core.tile_id].unit
        unit.release_commit_entry()
        while unit.finish_stalled and not unit.commit_queue_full():
            stalled = min(unit.finish_stalled, key=_order_key)
            self._end_stall(stalled)
            unit.acquire_commit_entry()
            stalled.state = TaskState.FINISHED
            stalled.finish_time = self.now

    def _end_stall(self, task: TaskDesc) -> None:
        """``task`` stops stalling its core: charge the stall cycles and
        free the core."""
        core = task.core
        self.tiles[core.tile_id].unit.finish_stalled.remove(task)
        self._m_cycles["stall"][core.cid].value += self.now - task.finish_time
        self._release_core(core, 0)

    # ==================================================================
    # aborts
    # ==================================================================
    def _abort_cascade(self, victims: List[TaskDesc], reason: str,
                       squash_extra: Optional[set] = None) -> None:
        """Abort ``victims`` plus their descendants and dependents.

        Direct victims re-execute; tasks whose parent is in the cascade
        (or listed in ``squash_extra``) are squashed — the re-executing
        parent will recreate them.
        """
        self._cascade_seq += 1
        cascade_id = self._cascade_seq
        if len(victims) == 1 and squash_extra is None:
            leaf = victims[0]
            if not leaf.children and not leaf.dependents:
                # the common case (a premature access): one live victim,
                # nothing to propagate to
                if leaf.is_live:
                    self._undo_one(leaf, False, reason, cascade_id, 0)
                return
        # One pass over the child/dependent adjacency. Each victim's hop
        # distance from the seed set feeds the abort-chain-depth telemetry
        # (how far one conflict propagated); with events disabled the hops
        # are simply never read, so a single traversal serves both modes.
        cascade: Dict[TaskDesc, int] = {}
        stack = [(v, 0) for v in victims]
        while stack:
            t, hop = stack.pop()
            if t in cascade or not t.is_live:
                continue
            cascade[t] = hop
            if t.children:
                stack.extend((c, hop + 1) for c in t.children)
            if t.dependents:
                stack.extend((d, hop + 1) for d in t.dependents)
        for t in sorted(cascade, key=_order_key, reverse=True):
            squash = (t.parent is not None and t.parent in cascade) or (
                squash_extra is not None and t in squash_extra)
            self._undo_one(t, squash, reason, cascade_id, cascade[t])

    def _undo_one(self, task: TaskDesc, squash: bool, reason: str,
                  cascade_id: int = -1, hop: int = 0) -> None:
        state = task.state
        if state in (TaskState.RUNNING, TaskState.FINISH_STALLED,
                     TaskState.FINISHED):
            self.memory.rollback(task)
            if task is self._executing:
                executed = self._executing_ctx.cycles
            elif state is TaskState.RUNNING:
                executed = min(self.now - task.dispatch_time, task.duration)
            else:
                executed = task.duration
            # Only a still-running victim's core pays the rollback delay;
            # finished victims roll back inside the task unit.
            if state is TaskState.RUNNING:
                executed += self._abort_penalty
            self._m_cycles["aborted"][task.core.cid].value += executed
            self._aborts_total += 1
            self._task_counter("aborted", task.domain.depth).value += 1
            if self._ebus is not None:
                self._ebus.emit(tev.AbortEvent(
                    self.now, task.tid, task.label, task.core.cid,
                    task.dispatch_time, executed, reason, False,
                    cascade_id, hop))
            if task is self._executing:
                if state is not TaskState.RUNNING:
                    raise SimulationError("executing task not RUNNING")
            elif state is TaskState.RUNNING:
                self._release_core(task.core, self._abort_penalty)
            else:
                del self._finished[task]
                self._leave_commit_queue(task)
        else:
            self._unqueue(task)

        task.aborted = True
        if squash:
            task.state = TaskState.SQUASHED
            self._frontier.discard(task)
            self._live.pop(task, None)
            self._task_counter("squashed", task.domain.depth).value += 1
            if self._ebus is not None:
                self._ebus.emit(tev.SquashEvent(self.now, task.tid, task.label,
                                              reason, cascade_id, hop))
        else:
            # Hold the task in limbo for the rollback latency so it cannot
            # re-dispatch (and re-conflict) within the same cycle.
            task.n_aborts += 1
            task.state = TaskState.PENDING
            # Limbo tasks still bound the GVT through their stripped key
            # (the final real tiebreaker of the aborted attempt is dropped;
            # the later _requeue keeps the same prefix). An attempt that
            # dies inside its own body has no run entry yet and still holds
            # its pending entry, which has that prefix already.
            if task is not self._executing:
                self._frontier.add_dyn(task)
            self._limbo[task] = None
            when = max(self.now + self._abort_penalty, task.retry_after)
            if self._resil is not None:
                # exponential backoff on every requeue; retry_after may
                # already carry a (larger) exception-retry delay
                from ..faults.resilience import backoff_delay
                when = max(when, self.now + backoff_delay(self._resil,
                                                          task.n_aborts))
                extra = when - self.now - self._abort_penalty
                if extra > 0:
                    self._m_backoffs.inc()
                    if self._ebus is not None:
                        self._ebus.emit(tev.RetryBackoffEvent(
                            self.now, task.tid, task.label, task.attempt,
                            extra, reason))
            self._schedule(when, _REQUEUE, task)

    # ==================================================================
    # zooming hooks
    # ==================================================================
    def _zoom_park(self, task: TaskDesc, ctx: TaskContext,
                   need: Union[NeedZoomIn, NeedZoomOut]) -> None:
        """Roll back the attempt and park it until the zoom completes."""
        direction = need.direction
        if task.children or task.dependents:
            self._abort_cascade(list(task.children) + list(task.dependents),
                                f"zoom-{direction} park",
                                squash_extra=set(task.children))
        self.memory.rollback(task)
        self._m_cycles["aborted"][task.core.cid].value += ctx.cycles
        if self._ebus is not None:
            self._ebus.emit(tev.AbortEvent(
                self.now, task.tid, task.label, task.core.cid,
                task.dispatch_time, ctx.cycles, f"zoom-{direction} park",
                True, -1, 0))
        task.state = TaskState.WAIT_ZOOM
        self._frontier.add_dyn(task)
        self.zoom.park(task, direction, need.needed_bits)
        self._ensure_tick()

    def _on_requeue(self, task: TaskDesc) -> None:
        if task not in self._limbo or task.state is not TaskState.PENDING:
            return  # squashed or spilled away meanwhile
        del self._limbo[task]
        self._requeue(task)

    def _zoom_release(self, task: TaskDesc) -> None:
        task.state = TaskState.PENDING
        self._requeue(task)

    def _active_live(self) -> List[TaskDesc]:
        """Live tasks excluding those parked on the zoom stack."""
        return [t for t in self._live if not t.zoom_parked]

    def _any_active_live(self) -> bool:
        """Whether :meth:`_active_live` is non-empty, without building it."""
        return any(not t.zoom_parked for t in self._live)

    def _unqueue(self, task: TaskDesc) -> None:
        """Take a non-speculative task out of the place it waits: its task
        queue, limbo (whose stale ``_REQUEUE`` event is then ignored), a
        spill buffer or zoom frame, or a zoom request. Aborts and
        zoom-ins both leave through here."""
        state = task.state
        if state is TaskState.PENDING:
            if task in self._limbo:
                del self._limbo[task]
            else:
                self.tiles[task.queue_tile].unit.remove(task)
        elif state is TaskState.SPILLED:
            task.spill_buffer.remove(task)
        elif state is TaskState.WAIT_ZOOM:
            self.zoom.drop_request(task)
        else:
            raise SimulationError(f"{task} is not waiting in a queue")

    def _rebuild_queues(self) -> None:
        """Re-key queues after a global VT rewrite (zoom / compaction);
        also resets the commit-monotonicity watermark, whose old keys are
        no longer comparable."""
        self._last_commit_key = None
        for tile in self.tiles:
            tile.unit.rebuild()
        for buf in self._spill_buffers:
            buf.reindex()
        self._frontier.rebuild(self._live)

    # ==================================================================
    # spills
    # ==================================================================
    def _maybe_spill(self, tile_id: int) -> None:
        unit = self.tiles[tile_id].unit
        if (unit.fill_fraction >= self._spill_threshold
                and not self._coalescer_queued[tile_id]):
            self._coalescer_queued[tile_id] = True
            duration = max(1, self.config.coalescer_cost_per_task
                           * self.config.spill_batch)
            self._special_jobs[tile_id].append(
                CoalescerJob(tile_id, duration))
            if self._ran:
                self._wake_tile(tile_id)
        if (self._resil is not None
                and unit.pending_count > unit.task_queue_cap):
            self._queue_overload(tile_id, unit)

    def _spill_out(self, tile_id: int, unit, victims: List[TaskDesc]) -> None:
        """Move ``victims`` from the task queue into a splitter buffer."""
        # Remove from the queue *before* building the buffer: SpillBuffer
        # indexes its tasks against queue_token, and unit.remove bumps it.
        for t in victims:
            unit.remove(t)
        buf = SpillBuffer(victims)
        self._spill_buffers.append(buf)
        self._m_spilled.value += len(victims)
        duration = max(1, self.config.splitter_cost_per_task * len(victims))
        self._special_jobs[tile_id].append(
            SplitterJob(tile_id, buf, duration))

    def _on_finish_special(self, core: Core, job) -> None:
        core.job = None
        tile_id = core.tile_id
        unit = self.tiles[tile_id].unit
        self._m_cycles["spill"][core.cid].value += job.duration
        if job.kind == "coalescer":
            self._coalescer_queued[tile_id] = False
            victims = select_spill_victims(unit.live_pending(),
                                           self.alloc.lower_bound(self.now),
                                           self.config.spill_batch)
            if victims:
                self._spill_out(tile_id, unit, victims)
            if self._ebus is not None:
                self._ebus.emit(job.finish_event(self.now, len(victims)))
        else:  # splitter
            self._spill_buffers.remove(job.buffer)
            n_restored = self._restore(job.buffer)
            if self._ebus is not None:
                self._ebus.emit(job.finish_event(self.now, n_restored))
        self._dispatch_tile(tile_id)

    def _restore(self, buf: SpillBuffer) -> int:
        """Requeue every task of a splitter's buffer or a zoom frame, in
        buffer order; returns how many."""
        tasks = buf.drain()
        for t in tasks:
            self._requeue(t)
        return len(tasks)

    # ==================================================================
    # resilience: overload ladder, livelock escalation, watchdog
    # ==================================================================
    def _queue_overload(self, tile_id: int, unit) -> None:
        """Degradation ladder for a task queue past its physical capacity.

        (1) spill harder: a synchronous emergency coalesce (no coalescer
        latency — the queue has no room to wait); (2) enter safe mode,
        which stops speculative fan-out at its source; (3) past
        ``queue_fail_factor`` x capacity, raise :class:`QueueError`.
        """
        overflow = unit.pending_count - unit.task_queue_cap
        victims = select_spill_victims(
            unit.live_pending(), self.alloc.lower_bound(self.now),
            max(self.config.spill_batch, overflow))
        if victims:
            if self._ebus is not None:
                self._ebus.emit(tev.QueuePressureEvent(
                    self.now, tile_id, unit.pending_count,
                    unit.task_queue_cap, "emergency_spill"))
            self._spill_out(tile_id, unit, victims)
            if self._ran:
                self._wake_tile(tile_id)
        if unit.pending_count <= unit.task_queue_cap:
            return
        if not self._safe_mode:
            if self._ebus is not None:
                self._ebus.emit(tev.QueuePressureEvent(
                    self.now, tile_id, unit.pending_count,
                    unit.task_queue_cap, "safe_mode"))
            self._enter_safe_mode("queue_overflow")
        if (unit.pending_count
                > unit.task_queue_cap * self._resil.queue_fail_factor):
            if self._ebus is not None:
                self._ebus.emit(tev.QueuePressureEvent(
                    self.now, tile_id, unit.pending_count,
                    unit.task_queue_cap, "fail"))
            raise QueueError(
                f"tile {tile_id} task queue at {unit.pending_count} "
                f"(> {self._resil.queue_fail_factor:g}x capacity "
                f"{unit.task_queue_cap}) despite emergency spills and "
                f"safe mode")

    def _resilience_tick(self) -> None:
        """Per-GVT-tick resilience work: watchdog limits, livelock FSM."""
        policy = self._resil
        if policy.max_cycles and self.now > policy.max_cycles:
            raise _WatchdogFire("max_cycles", policy.max_cycles)
        if (policy.max_wall_seconds
                and time.monotonic() - self._wall_start
                > policy.max_wall_seconds):
            raise _WatchdogFire("max_wall_seconds", policy.max_wall_seconds)
        det = self._livelock
        if det is None:
            return
        action = det.note_tick(self._aborts_total, self._commit_seq)
        if action is None:
            return
        if action == "safe_enter":
            self._enter_safe_mode("livelock")
            return
        if action == "safe_exit":
            self._exit_safe_mode()
            return
        if action == "throttle":
            self._throttled = True
        elif action == "release":
            self._throttled = False
            for tile in self.tiles:
                self._wake_tile(tile.tid)
        if self._ebus is not None:
            aborts, commits = det.window_totals
            self._ebus.emit(tev.LivelockThrottleEvent(
                self.now, action, det.abort_rate, aborts, commits))

    def _enter_safe_mode(self, cause: str) -> None:
        if self._safe_mode:
            return
        self._safe_mode = True
        self._throttled = False
        det = self._livelock
        if det is not None:
            det.force_safe()
            det.safe_since = self.now
        if self._m_safe_entries is not None:
            self._m_safe_entries.inc()
        if self._ebus is not None:
            rate = det.abort_rate if det is not None else 1.0
            self._ebus.emit(tev.SafeModeEnterEvent(
                self.now, rate, len(self._live), cause))

    def _exit_safe_mode(self) -> None:
        if not self._safe_mode:
            return
        self._safe_mode = False
        det = self._livelock
        if self._ebus is not None:
            commits = det.safe_commits if det is not None else 0
            since = det.safe_since if det is not None else self.now
            self._ebus.emit(tev.SafeModeExitEvent(
                self.now, commits, self.now - since))
        for tile in self.tiles:
            self._wake_tile(tile.tid)

    def _watchdog_wrapup(self, fire: _WatchdogFire) -> RunStats:
        """Graceful watchdog: report the failure instead of raising."""
        self.metrics.counter("watchdog_fires", kind=fire.kind).inc()
        if self._ebus is not None:
            self._ebus.emit(tev.WatchdogEvent(
                self.now, fire.kind, float(fire.limit), len(self._live)))
        self.stats.failure = {
            "reason": f"watchdog:{fire.kind}",
            "limit_kind": fire.kind,
            "limit": fire.limit,
            "cycle": self.now,
            "n_live": len(self._live),
            "live_sample": [
                {"tid": t.tid, "label": t.label, "state": t.state.name,
                 "vt": repr(t.vt)}
                for t in list(self._live)[:8]],
        }
        self._dump_crash("watchdog", None)
        self._finalize_stats()
        return self.stats

    def _dump_crash(self, reason: str, exc: Optional[BaseException]) -> None:
        """Write a crash bundle if a dump directory was configured.

        Dump trouble must never mask the original failure, so everything
        is swallowed (the path attribute stays None on a failed write).
        """
        if self.crash_dump_dir is None:
            return
        from ..faults.crashdump import write_crash_bundle
        try:
            self.crash_bundle_path = write_crash_bundle(
                self, self.crash_dump_dir, reason, exc)
        except Exception:
            pass

    # ==================================================================
    # tiebreaker wrap-around (paper Sec. 4.4)
    # ==================================================================
    def _compact_tiebreakers(self) -> None:
        if self._ebus is not None:
            self._ebus.emit(tev.WraparoundEvent(self.now, len(self._live)))
        for t in self._live:
            t.vt = t.vt.compacted(self.alloc)
        self.alloc.compact(self.now)
        self._rebuild_queues()
        saturated = [t for t in self._live
                     if t.is_speculative and t.vt.final_tiebreaker_saturated()]
        if saturated:
            earliest = min(t.order_key for t in self._live)
            victims = [t for t in saturated if t.order_key != earliest]
            if victims:
                self._abort_cascade(victims, "tiebreaker wraparound")

    # ==================================================================
    # wrap-up
    # ==================================================================
    def _finalize_stats(self) -> None:
        """Fold module-owned counters into the registry, then rebuild
        :class:`RunStats` from it — the registry is the only set of books."""
        m = self.metrics
        s = self.stats
        s.makespan = self.now

        m.counter("conflicts", kind="true").value = \
            self.memory.n_true_conflicts
        m.counter("conflicts", kind="false_positive").value = \
            self.conflicts.false_positives
        m.counter("zooms", direction="in").value = self.zoom.zoom_ins
        m.counter("zooms", direction="out").value = self.zoom.zoom_outs
        m.counter("gvt_ticks").value = self.arbiter.ticks
        m.counter("tiebreaker_wraparounds").value = self.alloc.wraparounds
        m.counter("mem_accesses", op="load").value = self.memory.n_loads
        m.counter("mem_accesses", op="store").value = self.memory.n_stores
        for key, value in self.cache.snapshot().items():
            m.counter("cache", event=key).value = value

        bd = s.breakdown
        bd.committed = m.total("cycles", category="committed")
        bd.aborted = m.total("cycles", category="aborted")
        bd.spill = m.total("cycles", category="spill")
        bd.stall = m.total("cycles", category="stall")
        used = bd.committed + bd.aborted + bd.spill + bd.stall
        bd.empty = max(s.n_cores * s.makespan - used, 0)
        m.counter("cycles", category="empty").value = bd.empty

        s.tasks_committed = m.total("tasks", outcome="committed")
        s.tasks_aborted = m.total("tasks", outcome="aborted")
        s.tasks_squashed = m.total("tasks", outcome="squashed")
        s.tasks_spilled = self._m_spilled.value
        s.enqueues = m.total("enqueues")
        s.domains_created = self._m_domains.value
        s.domains_flattened = m.counter("domains_flattened").value
        s.max_depth = self._m_depth.value
        s.tiebreaker_wraparounds = self.alloc.wraparounds
        s.true_conflicts = m.counter("conflicts", kind="true").value
        s.false_positive_conflicts = m.counter(
            "conflicts", kind="false_positive").value
        s.zoom_ins = m.counter("zooms", direction="in").value
        s.zoom_outs = m.counter("zooms", direction="out").value
        s.gvt_ticks = m.counter("gvt_ticks").value
        s.cache = {labels["event"]: c.value
                   for labels, c in m.counters_named("cache")}

        if self._faults is not None:
            for site, n in self._faults.injected.items():
                if n:
                    m.counter("faults_injected", site=site).value = n
            if self.memory.n_injected_conflicts:
                m.counter("conflicts", kind="injected").value = \
                    self.memory.n_injected_conflicts
            s.faults_injected = self._faults.total_injected
        if self._resil is not None:
            s.exec_fault_retries = self._m_exec_retries.value
            s.backoff_requeues = self._m_backoffs.value
            s.safe_mode_entries = self._m_safe_entries.value

    # ------------------------------------------------------------------
    def audit(self) -> None:
        """Re-check this run for serializability (raises on violation)."""
        from .audit import audit_serializability
        if not self.enable_audit:
            raise SimulationError("run was executed with enable_audit=False")
        try:
            audit_serializability(self._initial_snapshot, self.commit_log,
                                  self.memory._values,
                                  default=self.memory.default)
        except SerializabilityViolation as exc:
            self._dump_crash("SerializabilityViolation", exc)
            raise
