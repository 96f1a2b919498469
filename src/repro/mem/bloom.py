"""H3 Bloom-filter signatures (paper Table 2: 2 Kbit, 8-way, H3 hashing).

Swarm/Fractal track each task's read and write sets in per-task Bloom
signatures. Membership tests can return false positives, which cause
spurious aborts — the dominant cost for coarse-grain ("flat") tasks whose
sets overflow the filters (paper Sec. 6.1, Fig. 14).

:class:`H3HashFamily` implements the classic H3 universal hash family of
Carter & Wegman: each hash function is a matrix of random words; the hash
of a key is the XOR of the rows selected by the key's set bits. The
family tabulates all ``k`` functions at once: each of its six 256-entry
tables (one per byte of a 48-bit key) holds, per byte value, every
function's partial XOR packed side by side in one int, ``log2(m/k)`` bits
per function. A key's hash is six lookups and five XORs; ``k`` shift/mask
steps then split it into one bit index per bank.

:class:`BloomSignature` is a real bit-accurate signature (one int of
``m`` bits), the occupancy source for the simulator's sampled
false-positive model (see :mod:`repro.mem.conflicts`). Inserts go
through per-key *masks* (one int with all k bits set), so an insert is
two int ops and a popcount delta instead of k per-bit updates. The
conflict model reads the running ``_popcount`` and looks its
false-positive rate up in the family's popcount → rate table; it never
probes a signature key by key.

:class:`SignatureBank` holds many signatures as rows, one int each,
indexed by a row id that callers acquire and release; ``probe_rows``
answers "which of these rows hit this key?" for a list of rows. The
simulator does not use it. Everything here is plain Python ints.
"""

from __future__ import annotations

import random
from typing import List

from ..errors import MemoryError_

_KEY_BITS = 48  # supported key width (word addresses comfortably fit)
_KEY_BYTES = _KEY_BITS // 8

#: distinct keys memoized per family before the memo resets. Workloads
#: probe the same cache lines millions of times, so the memo is the fast
#: path; the bound keeps a long-lived family (shared across runs) from
#: growing without limit. 4096 keys hold every working set the benchmark
#: apps probe (labyrinth's ~1,300 lines is the largest) while capping the
#: memo near 1.5 MB at 2048-bit masks.
_MAX_CACHED_KEYS = 1 << 12


class H3HashFamily:
    """A family of ``k`` H3 hash functions onto ``[0, m)`` (m a power of 2).

    In a banked (w-way) Bloom filter each function indexes its own bank of
    ``m / k`` bits; :meth:`mask` sets one bit per bank, matching that
    layout.
    """

    def __init__(self, k: int, m_bits: int, seed: int = 0):
        if m_bits & (m_bits - 1) or m_bits <= 0:
            raise MemoryError_("Bloom size must be a power of two")
        if m_bits % k:
            raise MemoryError_("Bloom size must divide evenly into banks")
        self.k = k
        self.m_bits = m_bits
        self.bank_bits = m_bits // k
        if self.bank_bits & (self.bank_bits - 1):
            raise MemoryError_("bank size must be a power of two")
        self._bank_mask = self.bank_bits - 1
        self._width = self.bank_bits.bit_length() - 1  # log2(m / k)
        rng = random.Random(seed ^ 0x5DEECE66D)
        # One matrix per function: _KEY_BITS random words of bank-index width.
        self._matrices: List[List[int]] = [
            [rng.getrandbits(32) & self._bank_mask for _ in range(_KEY_BITS)]
            for _ in range(k)
        ]
        # Row i of every function, packed: function fn's word sits at bits
        # [fn * width, (fn + 1) * width).
        packed_rows = [0] * _KEY_BITS
        for fn, matrix in enumerate(self._matrices):
            for i, word in enumerate(matrix):
                packed_rows[i] |= word << (fn * self._width)
        # _packed[b][v] is the XOR of packed rows 8b..8b+7 selected by the
        # bits of byte value v. H3 is XOR-linear, so the table doubles row
        # by row: entries with bit j set are those without it XOR row j.
        self._packed: List[List[int]] = []
        for b in range(_KEY_BYTES):
            table = [0]
            for row in packed_rows[8 * b: 8 * b + 8]:
                table += [t ^ row for t in table]
            self._packed.append(table)
        #: false-positive rate of a signature with ``pc`` set bits, by ``pc``:
        #: the chance a never-inserted key hits all ``k`` banks, taking the
        #: mean fill ``pc / m`` for every bank (exact in expectation, and
        #: accurate for H3's near-uniform spreading)
        self.rates: List[float] = [(pc / m_bits) ** k
                                   for pc in range(m_bits + 1)]
        # key → mask; bounded (see _MAX_CACHED_KEYS)
        self._key_cache: dict = {}

    # ------------------------------------------------------------------
    def mask(self, key: int) -> int:
        """All ``k`` of the key's bits as one ``m_bits``-wide int mask:
        one bit per bank, at that bank's hash of the key."""
        mask = self._key_cache.get(key)
        if mask is not None:
            return mask
        if len(self._key_cache) >= _MAX_CACHED_KEYS:
            self._key_cache.clear()
        t0, t1, t2, t3, t4, t5 = self._packed
        h = (t0[key & 0xFF] ^ t1[(key >> 8) & 0xFF]
             ^ t2[(key >> 16) & 0xFF] ^ t3[(key >> 24) & 0xFF]
             ^ t4[(key >> 32) & 0xFF] ^ t5[(key >> 40) & 0xFF])
        width, bank_mask, bank_bits = (self._width, self._bank_mask,
                                       self.bank_bits)
        mask = 0
        for base in range(0, self.m_bits, bank_bits):
            mask |= 1 << (base + (h & bank_mask))
            h >>= width
        self._key_cache[key] = mask
        return mask


class BloomSignature:
    """A bit-accurate, banked Bloom signature over cache-line addresses."""

    __slots__ = ("family", "_bits", "_popcount")

    def __init__(self, family: H3HashFamily):
        self.family = family
        self._bits = 0
        self._popcount = 0

    def insert(self, key: int) -> bool:
        """Set this key's bit in every bank; True when any bit was new."""
        bits = self._bits
        new = bits | self.family.mask(key)
        if new == bits:
            return False
        self._popcount += (new ^ bits).bit_count()
        self._bits = new
        return True


class SignatureBank:
    """Many Bloom signatures as rows, one ``m_bits``-wide int per row.

    Rows are acquired/released as tasks register/unregister; the payoff is
    :meth:`probe_rows`, which answers "which of these rows contain this
    key?" for the whole live set with one mask lookup — the operation
    exact conflict detection performs on every access.
    """

    def __init__(self, family: H3HashFamily, capacity: int = 64):
        if capacity <= 0:
            raise MemoryError_("bank capacity must be positive")
        self.family = family
        self._rows: List[int] = [0] * capacity
        self._free: List[int] = list(range(capacity - 1, -1, -1))
        #: bitmap-level update/probe operations (profiling)
        self.bitmap_ops = 0

    def acquire(self) -> int:
        """Claim an empty row (growing the bank geometrically when full)."""
        if not self._free:
            old = len(self._rows)
            self._rows.extend([0] * old)
            self._free = list(range(2 * old - 1, old - 1, -1))
        return self._free.pop()

    def release(self, row: int) -> None:
        """Return a row to the pool, cleared."""
        self._rows[row] = 0
        self._free.append(row)

    def insert(self, row: int, key: int) -> bool:
        """Set the key's bits in ``row``; True when any bit was new."""
        self.bitmap_ops += 1
        bits = self._rows[row]
        new = bits | self.family.mask(key)
        if new == bits:
            return False
        self._rows[row] = new
        return True

    def probe_rows(self, key: int, rows) -> List[bool]:
        """Probe many rows → one bool per row (aligned to ``rows``)."""
        mask = self.family.mask(key)
        self.bitmap_ops += 1
        bank = self._rows
        return [bank[r] & mask == mask for r in rows]
