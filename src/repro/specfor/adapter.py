"""Run a ``speculative_for`` loop as ordered tasks *inside* a fractal
domain.

The PBBS deterministic-reservations loop (SNIPPETS.md snippet 1)
executes iterations ``0..n-1`` of a loop whose bodies may conflict, in
rounds of speculative batches. Each round:

1. **reserve** — every active iteration stakes priority claims
   (:class:`~repro.specfor.reservation.ReservationTable.write_min`) on the
   locations it needs, or declares itself done without a commit (the
   *filter* outcome);
2. **commit** — an iteration that holds every location it reserved
   performs its effects and is done; iterations that lost a reservation
   are **carried** (keep/pack) into the next round, ahead of freshly
   injected indices.

Because ``write_min`` keeps the minimum priority, the lowest-index active
iteration always wins all its locations, so (a) every round with active
work finishes at least one iteration under a well-formed step, and (b) the
final result equals running the loop *sequentially* in index order — the
deterministic-reservations guarantee the property tests pin down.

The **step protocol** (duck-typed):

- ``reserve(ctx, i) -> bool`` — stake reservations; return False to
  declare the iteration done with no commit. The return value must depend
  only on state committed by *earlier* phases, never on the reservation
  cells' mid-round contents.
- ``commit(ctx, i) -> bool`` — check holdings, apply effects; return
  False to carry the iteration into the next round.
- ``release(ctx, i)`` (optional) — called in the commit phase for
  iterations filtered this round, to drop stale reservation holds.

:class:`DomainSpecFor` hosts the round pipeline on a Fractal simulator
(or the serial reference executor): a driver task opens an ORDERED_32
subdomain and each round ``r`` occupies three timestamp slots —

- ``3r``   one *reserve* task per active iteration (write_min claims),
- ``3r+1`` one *commit* task per active iteration (check → apply, or
  ``release`` for iterations the reserve step filtered),
- ``3r+2`` the *controller*, which reads the per-iteration outcome flags,
  packs losers ahead of fresh indices, walks the livelock ladder, emits a
  :class:`~repro.telemetry.SpecForRoundEvent` (deferred to its commit via
  ``ctx.emit``), and enqueues round ``r+1``.

Timestamp order gives the phases the barrier semantics the PBBS loop gets
from its ``parallel_for``s, while *within* a phase the simulator
speculates freely — reservation conflicts abort and retry under VT order,
which is exactly the dense conflict structure this family contributes.

A :class:`SpecForPolicy` bounds livelock: consecutive zero-progress rounds
walk a ladder (full round size → halved → serialized single-iteration
rounds, mirroring the simulator's NORMAL→THROTTLED→SAFE escalation from
:mod:`repro.faults`) and ``max_tries`` zero-progress rounds raise
:class:`SpecForLivelock`. The ladder only ever fires for steps that break
the reserve/commit contract; it is a safety net, like PBBS ``maxTries``.

Round bookkeeping (batch, fresh cursor, streak, done) travels through
immutable task *arguments*, so an aborted controller re-derives identical
state on re-execution; the only mutable engine state is the per-iteration
outcome array, which lives in speculative memory and rolls back with its
writers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import AppError, ConfigError
from ..telemetry.events import SpecForRoundEvent
from ..vt import Ordering

#: livelock-ladder rungs
STAGE_FULL, STAGE_HALVED, STAGE_SERIAL = 0, 1, 2


class SpecForLivelock(AppError):
    """``max_tries`` consecutive rounds made no progress."""


@dataclass(frozen=True)
class SpecForPolicy:
    """Round-batching and livelock-ladder knobs of one engine."""

    #: round size = n // granularity + 1 (PBBS maxRoundSize)
    granularity: int = 8
    #: zero-progress rounds before the round size halves
    throttle_after: int = 4
    #: zero-progress rounds before rounds serialize to one iteration
    serialize_after: int = 8
    #: zero-progress rounds before :class:`SpecForLivelock` (PBBS maxTries)
    max_tries: int = 64

    def __post_init__(self) -> None:
        if self.granularity < 1:
            raise ConfigError("granularity must be >= 1")
        if not (1 <= self.throttle_after <= self.serialize_after
                <= self.max_tries):
            raise ConfigError(
                "ladder must be ordered: 1 <= throttle_after <= "
                "serialize_after <= max_tries")

    def max_round_size(self, n: int) -> int:
        return n // self.granularity + 1

    def stage_for(self, streak: int) -> int:
        """Ladder rung after ``streak`` consecutive zero-progress rounds."""
        if streak >= self.serialize_after:
            return STAGE_SERIAL
        if streak >= self.throttle_after:
            return STAGE_HALVED
        return STAGE_FULL

    def size_for(self, stage: int, n: int) -> int:
        base = self.max_round_size(n)
        if stage >= STAGE_SERIAL:
            return 1
        if stage == STAGE_HALVED:
            return max(base // 2, 1)
        return base


#: per-iteration outcome flags (the ``state`` array)
_FILTERED, _CONTENDING, _COMMITTED = 0, 1, 2


class DomainSpecFor:
    """One speculative-for engine instance hosted in a fractal domain:
    the only way the reproduction runs the PBBS round protocol.

    Build-time construction (allocation never happens in task bodies)::

        eng = DomainSpecFor(host, "spanning", step, n_iters, policy=...)
        eng.enqueue_driver(host)

    The step follows the module's step protocol; its
    ``reserve``/``commit``/``release`` run as separate ordered tasks, so
    everything they touch must live in speculative memory.
    """

    def __init__(self, host, name: str, step, n: int, *,
                 policy: Optional[SpecForPolicy] = None):
        self.name = name
        self.step = step
        self.n = n
        self.policy = policy or SpecForPolicy()
        # per-iteration outcome of the current round; indices are unique
        # across rounds so slots are never contended between iterations
        self.state = host.array(f"{name}.sf_state", max(n, 1))

    # ------------------------------------------------------------------
    def enqueue_driver(self, host, *, hint: Optional[int] = None) -> None:
        """Enqueue the root driver task (root domain may be unordered)."""
        host.enqueue_root(self._driver, hint=hint,
                          label=f"{self.name}.sf_driver")

    # ------------------------------------------------------------------
    # task bodies
    # ------------------------------------------------------------------
    def _driver(self, ctx):
        if self.n <= 0:
            return
        ctx.create_subdomain(Ordering.ORDERED_32)
        size = self.policy.size_for(0, self.n)
        batch = tuple(range(min(size, self.n)))
        for i in batch:
            ctx.enqueue_sub(self._reserve, i, ts=0, hint=i,
                            label=f"{self.name}.sf_reserve")
            ctx.enqueue_sub(self._commit, i, ts=1, hint=i,
                            label=f"{self.name}.sf_commit")
        ctx.enqueue_sub(self._control, 0, batch, len(batch), len(batch),
                        0, 0, (), ts=2, label=f"{self.name}.sf_control")

    def _reserve(self, ctx, i):
        self.state.set(ctx, i,
                       _CONTENDING if self.step.reserve(ctx, i)
                       else _FILTERED)

    def _commit(self, ctx, i):
        st = self.state.get(ctx, i)
        if st == _CONTENDING:
            if self.step.commit(ctx, i):
                self.state.set(ctx, i, _COMMITTED)
        else:
            release = getattr(self.step, "release", None)
            if release is not None:
                release(ctx, i)

    def _control(self, ctx, r, batch, fresh, next_fresh, streak, done,
                 deferred):
        carried = []
        committed = filtered = 0
        for i in batch:
            st = self.state.get(ctx, i)
            if st == _CONTENDING:
                carried.append(i)
            elif st == _COMMITTED:
                committed += 1
            else:
                filtered += 1
        done += len(batch) - len(carried)
        streak = 0 if len(carried) < len(batch) else streak + 1
        stage = self.policy.stage_for(streak)
        ctx.emit(SpecForRoundEvent(
            0, engine=self.name, round=r, size=len(batch), fresh=fresh,
            committed=committed, filtered=filtered, carried=len(carried),
            done=done, total=self.n, stage=stage))
        if streak >= self.policy.max_tries:
            raise SpecForLivelock(
                f"specfor engine {self.name!r} made no progress for "
                f"{streak} rounds ({done}/{self.n} done)")
        if done >= self.n:
            return
        size = self.policy.size_for(stage, self.n)
        # a shrunken rung defers excess carried iterations too, so the
        # serial rung really runs one iteration at a time; the pool keeps
        # losers-first order
        pool = list(carried) + list(deferred)
        active, ndeferred = pool[:size], tuple(pool[size:])
        take = max(0, min(size - len(active), self.n - next_fresh))
        nbatch = tuple(active) + tuple(range(next_fresh,
                                             next_fresh + take))
        base = 3 * (r + 1)
        for i in nbatch:
            ctx.enqueue(self._reserve, i, ts=base, hint=i,
                        label=f"{self.name}.sf_reserve")
            ctx.enqueue(self._commit, i, ts=base + 1, hint=i,
                        label=f"{self.name}.sf_commit")
        ctx.enqueue(self._control, r + 1, nbatch, take, next_fresh + take,
                    streak, done, ndeferred, ts=base + 2,
                    label=f"{self.name}.sf_control")
