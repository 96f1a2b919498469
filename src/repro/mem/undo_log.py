"""Per-task eager undo logs (paper Sec. 4.1: LogTM-SE-style versioning).

Each speculative task owns an :class:`UndoLog` recording, for every word it
wrote, the value the word held *before the task's first write to it*.
Rolling a task back restores those values in reverse write order. Because
the simulator aborts cascades latest-first and write chains are kept in
virtual-time order, a task is always the most recent writer of its logged
words at the moment it rolls back.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Tuple


class UndoLog:
    """Insertion-ordered map of word address → pre-image value."""

    __slots__ = ("_entries",)

    def __init__(self):
        self._entries: Dict[int, Any] = {}

    def record(self, addr: int, prev_value: Any) -> None:
        """Log the pre-image for ``addr`` if this is the owner's first write."""
        if addr not in self._entries:
            self._entries[addr] = prev_value

    def __contains__(self, addr: int) -> bool:
        return addr in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def reversed_entries(self) -> Iterator[Tuple[int, Any]]:
        """(addr, pre-image) pairs, most recent first — rollback order."""
        return reversed(self._entries.items())

    def clear(self) -> None:
        """Drop all entries (commit path)."""
        self._entries.clear()
