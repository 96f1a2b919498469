"""Priority-reservation cells over versioned memory (PBBS ``reservation``).

A :class:`ReservationTable` is an array of priority cells living in
speculative memory (:class:`~repro.mem.data.SpecArray`). Iteration ``i``
stakes a claim on location ``loc`` with :meth:`write_min` — the cell keeps
the *minimum* priority written, so the lowest-index iteration contending
for a location always ends up holding it no matter what order the writes
land in. ``write_min`` is commutative; that order-independence is what
makes round-based execution equal the sequential loop (deterministic
reservations, see :mod:`repro.specfor.adapter`).

Protocol discipline for steps built on this table:

- **reserve phase**: only ``write_min``. A reserve step must *not* make
  its keep/filter decision from the cells' current contents (they are
  mid-round, order-dependent); filter only on state committed by earlier
  phases.
- **commit phase**: ``holds`` to check ownership, then mutate app state;
  ``reset`` cells the committer holds, or ``check_release`` stale holds
  from an iteration bowing out. Both write only cells valued ``i``, so
  concurrent same-phase committers (which hold disjoint cells) commute.
"""

from __future__ import annotations

from ..mem.data import SpecArray

#: empty-cell sentinel — larger than any real iteration priority
UNRESERVED = 1 << 62


class ReservationTable:
    """A fixed-size table of priority-writeMin reservation cells."""

    __slots__ = ("cells",)

    def __init__(self, cells: SpecArray):
        self.cells = cells

    @classmethod
    def alloc(cls, host, name: str, n: int) -> "ReservationTable":
        """Allocate ``n`` cells on ``host`` (build time only), all empty."""
        return cls(host.array(name, max(n, 1), fill=UNRESERVED))

    def __len__(self) -> int:
        return len(self.cells)

    # --- reserve phase -------------------------------------------------
    def write_min(self, ctx, loc: int, i: int) -> None:
        """Stake priority ``i`` on ``loc`` (keeps the minimum)."""
        if i < self.cells.get(ctx, loc):
            self.cells.set(ctx, loc, i)

    # --- commit phase --------------------------------------------------
    def holds(self, ctx, loc: int, i: int) -> bool:
        """True when iteration ``i`` won location ``loc`` this round."""
        return self.cells.get(ctx, loc) == i

    def reset(self, ctx, loc: int) -> None:
        """Empty ``loc`` (committer releasing a cell it holds)."""
        self.cells.set(ctx, loc, UNRESERVED)

    def check_release(self, ctx, loc: int, i: int) -> bool:
        """Empty ``loc`` only if ``i`` holds it; True when released.

        For iterations that leave the contest without committing (a
        reserve-step filter fired after earlier rounds reserved): a stale
        winning priority would block every higher-index contender forever.
        """
        if self.cells.get(ctx, loc) == i:
            self.cells.set(ctx, loc, UNRESERVED)
            return True
        return False

    # --- inspection ----------------------------------------------------
    def snapshot(self):
        """Non-speculative copy of the cell values (tests/debug)."""
        return self.cells.snapshot()
