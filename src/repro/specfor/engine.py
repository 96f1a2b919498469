"""The reservation-based ``speculative_for`` round engine (PBBS, Snippet 1).

Executes iterations ``0..n-1`` of a loop whose bodies may conflict, in
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

A :class:`SpecForPolicy` bounds livelock: consecutive zero-progress rounds
walk a ladder (full round size → halved → serialized single-iteration
rounds, mirroring the simulator's NORMAL→THROTTLED→SAFE escalation from
:mod:`repro.faults`) and ``max_tries`` zero-progress rounds raise
:class:`SpecForLivelock`. The ladder only ever fires for steps that break
the reserve/commit contract; it is a safety net, like PBBS ``maxTries``.

The **step protocol** (duck-typed):

- ``reserve(ctx, i) -> bool`` — stake reservations; return False to
  declare the iteration done with no commit. The return value must depend
  only on state committed by *earlier* phases, never on the reservation
  cells' mid-round contents.
- ``commit(ctx, i) -> bool`` — check holdings, apply effects; return
  False to carry the iteration into the next round.
- ``release(ctx, i)`` (optional) — called in the commit phase for
  iterations filtered this round, to drop stale reservation holds.

This module is the *standalone* scheduler (an eager Python loop — the
differential oracle and property-test surface). The same protocol runs as
ordered tasks inside a fractal domain via
:class:`~repro.specfor.adapter.DomainSpecFor`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..errors import AppError, ConfigError

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

    @classmethod
    def from_resilience(cls, policy, *, granularity: int = 8
                        ) -> "SpecForPolicy":
        """Derive the ladder from a :class:`repro.faults.ResiliencePolicy`.

        The same escalation philosophy, re-keyed to rounds: the abort-rate
        window that trips dispatch throttling becomes the zero-progress
        streak that halves rounds; twice the window serializes them; the
        retry budget scales the fatal ``max_tries`` bound.
        """
        window = max(policy.livelock_window, 2)
        return cls(granularity=granularity,
                   throttle_after=max(window // 2, 1),
                   serialize_after=window,
                   max_tries=max(policy.max_attempts, 1) * window)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

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


@dataclass
class RoundRecord:
    """Outcome of one round (in-memory log; the telemetry event carries
    the same counts)."""

    round: int
    batch: tuple          # active iteration indices, carried-first
    fresh: int            # newly injected this round
    committed: int
    filtered: int         # done via reserve-step filter, no commit
    carried: tuple        # losers packed into the next round
    done: int             # total iterations finished after this round
    stage: int

    @property
    def size(self) -> int:
        return len(self.batch)


@dataclass
class SpecForOutcome:
    """Result of one standalone :func:`speculative_for` run."""

    n: int
    done: int
    commits: int
    filtered: int
    reserve_failures: int  # carried iteration-rounds (lost reservations)
    rounds: List[RoundRecord] = field(default_factory=list)


def speculative_for(step, n: int, *, policy: Optional[SpecForPolicy] = None,
                    ctx=None,
                    observer: Optional[Callable[[RoundRecord], None]] = None
                    ) -> SpecForOutcome:
    """Run iterations ``0..n-1`` of ``step`` in speculative rounds.

    ``ctx`` is passed through to the step (None for pure-Python steps;
    a serial/simulator context when the step's state lives in repro.mem).
    ``observer`` sees every :class:`RoundRecord` as it completes.
    """
    pol = policy or SpecForPolicy()
    out = SpecForOutcome(n=n, done=0, commits=0, filtered=0,
                         reserve_failures=0)
    if n <= 0:
        return out
    carried: List[int] = []
    next_fresh = 0
    streak = 0
    r = 0
    while out.done < n:
        stage = pol.stage_for(streak)
        size = pol.size_for(stage, n)
        # a shrunken rung defers excess carried iterations too — the
        # serialize rung really does run one iteration at a time
        active, deferred = carried[:size], carried[size:]
        take = max(0, min(size - len(active), n - next_fresh))
        batch = tuple(active) + tuple(range(next_fresh, next_fresh + take))
        next_fresh += take
        # reserve phase: whole batch stakes claims before any commit runs
        keep = [step.reserve(ctx, i) for i in batch]
        committed = filtered = 0
        losers: List[int] = []
        release = getattr(step, "release", None)
        for k, i in enumerate(batch):
            if keep[k]:
                if step.commit(ctx, i):
                    committed += 1
                else:
                    losers.append(i)
            else:
                filtered += 1
                if release is not None:
                    release(ctx, i)
        done_delta = len(batch) - len(losers)
        out.done += done_delta
        out.commits += committed
        out.filtered += filtered
        out.reserve_failures += len(losers)
        record = RoundRecord(round=r, batch=batch, fresh=take,
                             committed=committed, filtered=filtered,
                             carried=tuple(losers) + tuple(deferred),
                             done=out.done, stage=stage)
        out.rounds.append(record)
        if observer is not None:
            observer(record)
        streak = 0 if done_delta else streak + 1
        if streak >= pol.max_tries:
            raise SpecForLivelock(
                f"speculative_for made no progress for {streak} rounds "
                f"({out.done}/{n} done; round size {len(batch)}); the "
                f"step violates the reserve/commit contract")
        carried = losers + deferred
        r += 1
    return out


def sequential_for(step, n: int, *, ctx=None) -> int:
    """The sequential reference loop; returns the number of commits.

    Runs each iteration alone, in index order: reserve always wins, so an
    iteration either commits immediately or is filtered. Under the
    deterministic-reservations guarantee this produces the same final
    state as :func:`speculative_for` over a fresh copy of the step's
    state.
    """
    commits = 0
    for i in range(n):
        if step.reserve(ctx, i):
            if not step.commit(ctx, i):
                raise SpecForLivelock(
                    f"sequential iteration {i} failed to commit while "
                    f"running alone; the step violates the contract")
            commits += 1
    return commits
