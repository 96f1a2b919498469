"""The nested fractal-VT key, kept as a test oracle.

Before the flat key, a fractal VT's sort key was a tuple of per-level
``(timestamp, tiebreaker)`` pairs, and every derivation rebuilt it level
by level. These functions reproduce that representation and its
transforms exactly, so property tests can check that the flat
``(ts0, tb0, ts1, tb1, ...)`` key orders every VT the same way.
"""


def root(timestamp, tiebreaker):
    return ((timestamp, tiebreaker),)


def child_same(key, timestamp, tiebreaker):
    return key[:-1] + ((timestamp, tiebreaker),)


def child_sub(key, timestamp, tiebreaker):
    return key + ((timestamp, tiebreaker),)


def child_super(key, timestamp, tiebreaker):
    return key[:-2] + ((timestamp, tiebreaker),)


def with_tiebreaker(key, tiebreaker):
    """Dispatch finalization and the requeue lower bound alike."""
    return key[:-1] + ((key[-1][0], tiebreaker),)


def drop_base(key):
    return key[1:]


def with_base(key, timestamp):
    """Zoom-out: the restored base level carries a zero tiebreaker."""
    return ((timestamp, 0),) + key


def compacted(key, allocator):
    return tuple((ts, allocator.compacted(tb)) for ts, tb in key)


def stripped(key, now_lb):
    """The pending-task transform: final tiebreaker replaced by now_lb."""
    return key[:-1] + ((key[-1][0], now_lb),)


def stripped_prefix(key):
    """The time-invariant part the per-depth stripped heaps sorted by."""
    return key[:-1] + ((key[-1][0],),)


def flatten(key):
    return tuple(x for level in key for x in level)
