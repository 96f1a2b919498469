"""Flat word-addressed address space with named regions and cache lines.

Applications allocate named :class:`Region`\\ s from an :class:`AddressSpace`.
Each address identifies one machine word (8 bytes); conflict detection and
the cache model operate on 64-byte *lines* (8 words), so unrelated fields
that share a line can conflict — real false sharing, as in the paper's
hardware. Regions may be allocated line-aligned to avoid it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..errors import MemoryError_

WORD_BYTES = 8


@dataclass(frozen=True)
class Region:
    """A contiguous, named allocation of ``size`` words starting at ``base``."""

    name: str
    base: int
    size: int

    def addr(self, offset: int) -> int:
        """Absolute address of word ``offset`` (bounds-checked)."""
        if not (0 <= offset < self.size):
            raise MemoryError_(
                f"offset {offset} out of bounds for region {self.name!r} "
                f"(size {self.size})")
        return self.base + offset

    def __contains__(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.size


class AddressSpace:
    """Bump allocator for regions plus address→line / line→tile mapping."""

    def __init__(self, line_bytes: int = 64, n_tiles: int = 1):
        if line_bytes % WORD_BYTES:
            raise MemoryError_("line_bytes must be a multiple of the word size")
        self.line_words = line_bytes // WORD_BYTES
        self.n_tiles = n_tiles
        self._next = self.line_words  # keep address 0 unused
        self._regions: Dict[str, Region] = {}

    def alloc(self, name: str, size: int, *, line_aligned: bool = True) -> Region:
        """Allocate ``size`` words under ``name``. Names must be unique.

        ``line_aligned`` regions start on a line boundary and are padded to
        a whole number of lines, preventing false sharing with neighbours.
        """
        if size <= 0:
            raise MemoryError_(f"region size must be positive, got {size}")
        if name in self._regions:
            raise MemoryError_(f"region {name!r} already allocated")
        base = self._next
        if line_aligned:
            base = -(-base // self.line_words) * self.line_words
            padded = -(-size // self.line_words) * self.line_words
        else:
            padded = size
        region = Region(name, base, size)
        self._regions[name] = region
        self._next = base + padded
        return region

    def region(self, name: str) -> Region:
        """Look up a region by name."""
        try:
            return self._regions[name]
        except KeyError:
            raise MemoryError_(f"unknown region {name!r}") from None

    # --- mappings used by conflict detection and the cache model --------
    def line_of(self, addr: int) -> int:
        """Cache-line id of a word address."""
        return addr // self.line_words

    def home_tile(self, addr: int) -> int:
        """Static-NUCA home tile of an address's line (line interleaving)."""
        return self.line_of(addr) % self.n_tiles
