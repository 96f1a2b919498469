"""The standalone ``speculative_for`` round loop (PBBS, SNIPPETS.md
snippet 1), kept as a test oracle.

An eager host-side Python loop over the step protocol of
:mod:`repro.specfor.adapter`: each round runs every active iteration's
``reserve``, then every ``commit`` (or ``release`` for filtered ones),
carries the losers ahead of fresh indices, and walks the
:class:`~repro.specfor.SpecForPolicy` livelock ladder. Production runs
the same protocol only as ordered tasks through
:class:`~repro.specfor.DomainSpecFor`; this loop is the reference its
results are checked against, together with :func:`sequential_for`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.specfor import SpecForLivelock, SpecForPolicy


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
