"""Speculative memory: versioned data, undo logs, and conflict detection.

This package implements the data-dependence speculation substrate of the
Swarm/Fractal architecture (paper Sec. 4.1):

- eager (undo-log-based) version management,
- eager conflict detection with an earlier-VT-wins policy,
- speculative data forwarding with dependence tracking, so that an abort
  selectively kills only descendants and data-dependent tasks,
- Bloom-filter signatures (2 Kbit, 8-way, H3 hashing) with modeled false
  positives, plus an idealized precise mode (paper Sec. 6.1).

Applications never touch this package directly; they use the typed wrappers
in :mod:`repro.mem.data` (arrays, cells, dicts, queues) through a task
context.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".address": ("AddressSpace", "Region"),
    ".bloom": ("BloomSignature", "H3HashFamily", "SignatureBank"),
    ".undo_log": ("UndoLog",),
    ".memory": ("SpecMemory",),
    ".conflicts": ("ConflictPolicy", "BloomConflictModel",
                   "PreciseConflictModel"),
    ".data": ("SpecArray", "SpecCell", "SpecDict", "SpecQueue"),
})

__all__ = [
    "AddressSpace",
    "Region",
    "BloomSignature",
    "H3HashFamily",
    "SignatureBank",
    "UndoLog",
    "SpecMemory",
    "ConflictPolicy",
    "BloomConflictModel",
    "PreciseConflictModel",
    "SpecArray",
    "SpecCell",
    "SpecDict",
    "SpecQueue",
]
