"""Property tests: compacting the GVT frontier drops dead entries and
changes no answer.

Keys mix nesting depths (one to three levels), so entries spread over
several of the :class:`~repro.arch.frontier.StrippedIndex` per-depth
heaps and a query compares candidates across depths.
"""

from hypothesis import given, settings, strategies as st

from repro.arch.gvt import GvtFrontier

_vt_keys = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7)),
    min_size=1, max_size=3).map(lambda levels: sum(levels, ()))

#: (operation, task index, key the task takes first); a "compact" step
#: compacts the second frontier only
_ops = st.lists(
    st.tuples(st.sampled_from(["run", "dyn", "discard", "compact"]),
              st.integers(0, 7), _vt_keys),
    max_size=60)

_NOW_LBS = range(10)


class _Task:
    def __init__(self):
        self.order_key = (0, 0)
        self._gvt_token = 0


def _replay(ops, compact):
    """Apply ``ops`` to a fresh frontier over fresh tasks."""
    frontier = GvtFrontier()
    tasks = [_Task() for _ in range(8)]
    for op, i, key in ops:
        task = tasks[i]
        if op == "run":
            task.order_key = key
            frontier.add_run(task)
        elif op == "dyn":
            task.order_key = key
            frontier.add_dyn(task)
        elif op == "discard":
            frontier.discard(task)
        elif compact:
            frontier.compact()
    return frontier, tasks


def _valid(frontier):
    run = [e for e in frontier._run if e[2] == e[3]._gvt_token]
    dyn = [e for heap in frontier._dyn._heaps.values() for e in heap
           if e[2] == e[3]._gvt_token]
    return run, dyn


class TestCompaction:
    @given(ops=_ops)
    @settings(max_examples=200, deadline=None)
    def test_min_key_unchanged_by_compaction(self, ops):
        plain, _ = _replay(ops, compact=False)
        compacted, tasks = _replay(ops, compact=True)
        compacted.compact()
        assert ([compacted.min_key(lb) for lb in _NOW_LBS]
                == [plain.min_key(lb) for lb in _NOW_LBS])
        # only valid entries survive: at most one per task
        run, dyn = _valid(compacted)
        assert len(compacted) == len(run) + len(dyn) <= len(tasks)

    @given(ops=_ops)
    @settings(max_examples=100, deadline=None)
    def test_compaction_keeps_every_valid_entry(self, ops):
        frontier, _ = _replay(ops, compact=False)
        before = _valid(frontier)
        frontier.compact()
        after = _valid(frontier)
        assert sorted(map(id, before[0])) == sorted(map(id, after[0]))
        assert sorted(map(id, before[1])) == sorted(map(id, after[1]))


class TestTrim:
    def _churned(self, n_pushes):
        frontier = GvtFrontier()
        task = _Task()
        for _ in range(n_pushes):
            frontier.add_dyn(task)  # each push kills the previous entry
        return frontier

    def test_trim_compacts_above_the_bound(self):
        frontier = self._churned(100)
        frontier.trim(n_live=1)  # 100 > 2 * 1 + 64
        assert len(frontier) == 1
        assert frontier.peak_entries == 100

    def test_trim_leaves_heaps_within_the_bound(self):
        frontier = self._churned(66)
        frontier.trim(n_live=1)  # 66 == 2 * 1 + 64
        assert len(frontier) == 66
        assert frontier.peak_entries == 66

    def test_peak_entries_is_a_high_water_mark(self):
        frontier = self._churned(100)
        frontier.trim(n_live=1)
        frontier.trim(n_live=1)
        assert frontier.peak_entries == 100
