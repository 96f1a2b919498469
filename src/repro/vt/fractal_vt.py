"""Fractal virtual times (paper Sec. 4.2, Figs. 11-12).

A fractal VT is the concatenation of one domain VT per enclosing domain,
compared lexicographically with right-zero-padding: a task's VT is a
strict prefix of every VT in the subdomain it creates, so the creator orders
immediately before its subdomain's tasks, and the whole subdomain orders
before any later task outside it. This single total order is what lets the
architecture enforce Fractal's cross-domain atomicity with plain fine-grain
(per-task) speculation.

The hardware compares a fractal VT as one bit string; here it is one flat
tuple of ints, ``(ts0, tb0, ts1, tb1, ...)``, two per level. Because every
level adds exactly two ints, Python's tuple order on the flat key is the
level-by-level order of the ``(timestamp, tiebreaker)`` pairs, and a
shorter key sorts before all of its extensions — the paper's
right-zero-padding. That holds even for zero tiebreakers (a zoom-out's
restored base, a saturated compaction), where a zero-padded comparison
of equal-length bit strings would tie. Every derivation below is one
tuple slice.
"""

from __future__ import annotations

from typing import Tuple

from ..errors import VTBudgetExceeded, VTError
from .domain_vt import DOMAIN_VT_BITS, DomainVT
from .ordering import Ordering


class FractalVT:
    """An immutable fractal VT: the flat sort ``key``, the ``orderings``
    of its levels (outermost first) and the hardware ``bits`` it takes."""

    __slots__ = ("key", "orderings", "bits")

    def __init__(self, key: Tuple[int, ...], orderings: Tuple[Ordering, ...],
                 bits: int):
        if not orderings:
            raise VTError("a fractal VT needs at least one domain VT")
        self.key = key
        self.orderings = orderings
        self.bits = bits

    @classmethod
    def root(cls, ordering: Ordering, timestamp: int,
             tiebreaker: int) -> "FractalVT":
        """The one-level VT of a root-domain task."""
        return cls((timestamp, tiebreaker), (ordering,),
                   DOMAIN_VT_BITS[ordering])

    # --- ordering -------------------------------------------------------
    def __lt__(self, other: "FractalVT") -> bool:
        return self.key < other.key

    def __eq__(self, other) -> bool:
        return isinstance(other, FractalVT) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    # --- structure -------------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of enclosing domains (1 = root-domain task)."""
        return len(self.orderings)

    @property
    def base(self) -> DomainVT:
        """The outermost (base) level, without its tiebreaker."""
        return DomainVT(self.orderings[0], self.key[0])

    @property
    def base_key(self) -> Tuple[int, int]:
        """The base level's key ints: the VT of the base-domain task this
        task descends from (or is), and a prefix of this key."""
        return self.key[:2]

    def check_budget(self, budget_bits: int) -> "FractalVT":
        """Return self, or raise :class:`VTBudgetExceeded` when over budget."""
        if self.bits > budget_bits:
            raise VTBudgetExceeded(
                f"fractal VT needs {self.bits} bits > budget {budget_bits}; "
                f"zooming required")
        return self

    # --- derivation (enqueue rules, paper Sec. 4.2) -----------------------
    def child_same(self, timestamp: int, tiebreaker: int) -> "FractalVT":
        """VT for a child enqueued to the caller's own domain: keep
        everything above the final level, replace the final one."""
        return FractalVT(self.key[:-2] + (timestamp, tiebreaker),
                         self.orderings, self.bits)

    def child_sub(self, ordering: Ordering, timestamp: int,
                  tiebreaker: int) -> "FractalVT":
        """VT for a child enqueued to the caller's subdomain: the caller's
        full fractal VT with the child's level appended."""
        return FractalVT(self.key + (timestamp, tiebreaker),
                         self.orderings + (ordering,),
                         self.bits + DOMAIN_VT_BITS[ordering])

    def child_super(self, timestamp: int, tiebreaker: int) -> "FractalVT":
        """VT for a child enqueued to the caller's superdomain: drop the
        caller's final two levels, append the child's (whose ordering is
        the superdomain's, already the second-to-last level's)."""
        orderings = self.orderings
        if len(orderings) < 2:
            raise VTError("root-domain tasks have no superdomain")
        return FractalVT(self.key[:-4] + (timestamp, tiebreaker),
                         orderings[:-1],
                         self.bits - DOMAIN_VT_BITS[orderings[-1]])

    def with_tiebreaker(self, tiebreaker: int) -> "FractalVT":
        """This VT with the final tiebreaker replaced: the real one at
        dispatch, or a fresh lower bound when the task is requeued."""
        return FractalVT(self.key[:-1] + (tiebreaker,), self.orderings,
                         self.bits)

    # --- zooming (paper Sec. 4.3) ----------------------------------------
    def drop_base(self) -> "FractalVT":
        """Zoom-in shift: remove the (common) base level."""
        orderings = self.orderings
        return FractalVT(self.key[2:], orderings[1:],
                         self.bits - DOMAIN_VT_BITS[orderings[0]])

    def with_base(self, base: DomainVT) -> "FractalVT":
        """Zoom-out shift: prepend a restored base level with a zero
        tiebreaker."""
        return FractalVT((base.timestamp, 0) + self.key,
                         (base.ordering,) + self.orderings,
                         self.bits + base.bits)

    # --- tiebreaker compaction (paper Sec. 4.4) ----------------------------
    def compacted(self, allocator) -> "FractalVT":
        """This VT after one tiebreaker compaction walk (paper Sec. 4.4)."""
        compact = allocator.compacted
        key = tuple(compact(x) if i & 1 else x
                    for i, x in enumerate(self.key))
        return FractalVT(key, self.orderings, self.bits)

    def final_tiebreaker_saturated(self) -> bool:
        """True when compaction zeroed our own tiebreaker (abort condition)."""
        return self.key[-1] == 0

    def __repr__(self) -> str:
        key = self.key
        return " | ".join(
            f"{key[2 * i]},{key[2 * i + 1]}" if o.is_ordered
            else str(key[2 * i + 1])
            for i, o in enumerate(self.orderings))
