"""Reference Bloom probes: the exact, key-by-key signature checks (test
oracle).

``BloomConflictModel`` samples false positives from signature occupancy.
This is the check hardware performs (paper Table 2 / Sec. 4.1) that the
sample stands in for: an access probes every other live task's
signatures bit by bit — a load probes their write signature, a store
their read and write signatures (the RW/WW conflict matrix). The free
functions below are the per-family and per-signature probes that check
needs; production code never calls them.
"""


def indices(family, key):
    """Global bit indices (one per bank) for ``key``: the set bits of its
    mask, in bank order. An immutable tuple."""
    mask = family.mask(key)
    return tuple(i for i in range(family.m_bits) if mask >> i & 1)


def maybe_contains(sig, key):
    """True when all banks hit. Never a false negative."""
    mask = sig.family.mask(key)
    return sig._bits & mask == mask


def popcount(sig):
    """Number of set bits across all banks (the running count)."""
    return sig._popcount


def false_positive_rate(sig):
    """Probability a random never-inserted key hits all ``k`` banks, with
    the mean bank fill standing in for each bank's fill."""
    return sig.family.rates[sig._popcount]


def exact_false_conflict(model, owner, line, is_write):
    """First live task (registration order) whose signature falsely hits.

    Only lines the other task did not truly touch can be *false* hits:
    true conflicts are found by the memory's exact indices, so a
    signature hit on a truly-touched line is not reported here.
    """
    for other in model._live:
        if other is owner:
            continue
        hit = maybe_contains(other.sig_write, line) or (
            is_write and maybe_contains(other.sig_read, line))
        truly = line in other.write_lines or (
            is_write and line in other.read_lines)
        if hit and not truly:
            return other
    return None
