"""Property tests: SpillBuffer and spill-victim selection invariants.

Generated VT keys deliberately mix nesting depths — a shallow task's
one-level key against a deep task's three-level key is exactly the shape
that broke naive stripped-key comparisons (see arch/frontier.py).
"""

from hypothesis import given, settings, strategies as st

from repro.arch.spill import SpillBuffer, select_spill_victims
from repro.core.task import TaskState

_vt_keys = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7)),
    min_size=1, max_size=3).map(lambda levels: sum(levels, ()))


class _Task:
    def __init__(self, key, committed_parent=True):
        self.order_key = key
        self.queue_token = 0
        self.parent = None if committed_parent else _Parent()

    def __repr__(self):
        return f"_Task{self.order_key}"


class _Parent:
    state = TaskState.RUNNING  # i.e. not committed: child is unspillable


def _stripped(key, now_lb=1000):
    """The simulator's stripped-key transform with a frozen lower bound."""
    return key[:-1] + (now_lb,)


class TestSpillBufferProperties:
    def test_empty_buffer_min_key_is_none(self):
        buf = SpillBuffer([])
        assert buf.min_stripped(0) is None

    @given(keys=st.lists(_vt_keys, max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_remove_absent_returns_false(self, keys):
        buf = SpillBuffer([_Task(k) for k in keys])
        outsider = _Task((99, 99))
        assert buf.remove(outsider) is False
        assert len(buf) == len(keys)

    @given(keys=st.lists(_vt_keys, min_size=1, max_size=12),
           drop=st.data())
    @settings(max_examples=80, deadline=None)
    def test_min_keys_track_contents_across_removals(self, keys, drop):
        tasks = [_Task(k) for k in keys]
        buf = SpillBuffer(tasks)
        while tasks:
            assert buf.min_stripped(1000) == min(
                _stripped(t.order_key) for t in tasks)
            victim = drop.draw(st.sampled_from(tasks))
            assert buf.remove(victim) is True
            assert buf.remove(victim) is False  # second removal: gone
            tasks.remove(victim)
        assert buf.min_stripped(1000) is None


class TestVictimSelectionProperties:
    @given(keys=st.lists(_vt_keys, min_size=1, max_size=12, unique=True),
           batch=st.integers(0, 12))
    @settings(max_examples=120, deadline=None)
    def test_victims_never_earlier_than_retained_minimum(self, keys, batch):
        pending = [_Task(k) for k in keys]
        victims = select_spill_victims(pending, 1000, batch)
        assert len(victims) <= batch
        retained = [t for t in pending if t not in victims]
        # the earliest spillable task must stay resident (it may hold the
        # GVT), so every victim sorts at or after the retained minimum
        assert retained
        floor = min(_stripped(t.order_key) for t in retained)
        for v in victims:
            assert _stripped(v.order_key) >= floor

    @given(keys=st.lists(_vt_keys, min_size=1, max_size=12, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_uncommitted_parents_are_never_spilled(self, keys):
        pending = [_Task(k, committed_parent=(i % 2 == 0))
                   for i, k in enumerate(keys)]
        victims = select_spill_victims(pending, 1000, len(keys))
        assert all(v.parent is None for v in victims)
