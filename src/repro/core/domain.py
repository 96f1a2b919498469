"""Fractal domains (paper Sec. 3).

A :class:`Domain` is a scope for tasks with common ordering semantics.
The *root domain* is created with the program; every other domain is
created by exactly one task (its *creator*) via ``create_subdomain``, and
— together with that creator — appears to execute as one atomic unit.

Domain objects are bookkeeping only: the ordering guarantees are enforced
entirely by fractal-VT construction. A task attempt that aborts discards
the subdomain it created (the re-execution creates a fresh one), which is
why domains hang off task *attempts* rather than tasks.
"""

from __future__ import annotations

from typing import Optional

from ..errors import DomainError
from ..vt import Ordering


class Domain:
    """One node of the domain tree."""

    __slots__ = ("ordering", "creator", "parent", "depth")

    def __init__(self, ordering: Ordering, creator=None,
                 parent: Optional["Domain"] = None):
        self.ordering = ordering
        self.creator = creator          # TaskDesc or None for the root
        self.parent = parent            # Domain or None for the root
        #: VT depth of tasks living in this domain (root = 1)
        self.depth = 1 if parent is None else parent.depth + 1

    @property
    def is_root(self) -> bool:
        """True for the program's root domain."""
        return self.parent is None

    def require_super(self) -> "Domain":
        """The superdomain; raises :class:`DomainError` at the root."""
        if self.parent is None:
            raise DomainError("the root domain has no superdomain")
        return self.parent

    def validate_child_timestamp(self, parent_ts: Optional[int],
                                 child_ts: Optional[int]) -> int:
        """Check a same-domain enqueue's timestamp (child ts >= parent ts)."""
        ts = self.ordering.validate_timestamp(child_ts)
        if (self.ordering.is_ordered and parent_ts is not None
                and ts < parent_ts):
            raise DomainError(
                f"child timestamp {ts} precedes parent timestamp "
                f"{parent_ts} in the same domain")
        return ts

    def __repr__(self) -> str:
        who = "root" if self.is_root else f"sub-of:{self.creator}"
        return f"Domain({self.ordering.value}, depth={self.depth}, {who})"
