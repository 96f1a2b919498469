"""Reference Bloom conflict check: the pairwise signature probe (test oracle).

``BloomConflictModel`` samples false positives from signature occupancy.
This is the check hardware performs (paper Table 2 / Sec. 4.1) that the
sample stands in for: an access probes every other live task's
signatures bit by bit — a load probes their write signature, a store
their read and write signatures (the RW/WW conflict matrix).
"""


def exact_false_conflict(model, owner, line, is_write):
    """First live task (registration order) whose signature falsely hits.

    Only lines the other task did not truly touch can be *false* hits:
    true conflicts are found by the memory's exact indices, so a
    signature hit on a truly-touched line is not reported here.
    """
    for other in model._live:
        if other is owner:
            continue
        hit = other.sig_write.maybe_contains(line) or (
            is_write and other.sig_read.maybe_contains(line))
        truly = line in other.write_lines or (
            is_write and line in other.read_lines)
        if hit and not truly:
            return other
    return None
