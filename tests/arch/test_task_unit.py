"""Tests for task units (task queue + commit queue) and the scheduler."""

import pytest

from repro.arch.scheduler import HintScheduler
from repro.arch.task_unit import TaskUnit


class _Task:
    def __init__(self, ts, tb=0):
        # keys are flat VT keys — (ts0, tb0, ...) — as the queue's
        # stripped-key query requires
        self.order_key = (ts, tb)
        self.queue_tile = -1
        self.queue_token = 0


class TestTaskQueue:
    def test_pop_lowest_key(self):
        unit = TaskUnit(0, 16, 4)
        tasks = [_Task(k) for k in (5, 1, 3)]
        for t in tasks:
            unit.enqueue(t)
        assert unit.pop_best() is tasks[1]
        assert unit.pop_best() is tasks[2]
        assert unit.pop_best() is tasks[0]
        assert unit.pop_best() is None

    def test_fifo_among_equal_keys(self):
        unit = TaskUnit(0, 16, 4)
        a, b = _Task(1), _Task(1)
        unit.enqueue(a)
        unit.enqueue(b)
        assert unit.pop_best() is a

    def test_lazy_remove(self):
        unit = TaskUnit(0, 16, 4)
        a, b = _Task(1), _Task(2)
        unit.enqueue(a)
        unit.enqueue(b)
        unit.remove(a)
        assert unit.pending_count == 1
        assert unit.pop_best() is b

    def test_peek_min_skips_stale(self):
        unit = TaskUnit(0, 16, 4)
        a, b = _Task(1), _Task(2)
        unit.enqueue(a)
        unit.enqueue(b)
        unit.remove(a)
        assert unit.peek_min_key() == (2, 0)

    def test_rebuild_rekeys(self):
        unit = TaskUnit(0, 16, 4)
        a, b = _Task(1), _Task(2)
        unit.enqueue(a)
        unit.enqueue(b)
        a.order_key, b.order_key = (9, 0), (0, 0)
        unit.rebuild()
        assert unit.pop_best() is b

    def test_live_pending_excludes_removed(self):
        unit = TaskUnit(0, 16, 4)
        tasks = [_Task(k) for k in range(4)]
        for t in tasks:
            unit.enqueue(t)
        unit.remove(tasks[2])
        assert set(unit.live_pending()) == {tasks[0], tasks[1], tasks[3]}

    def test_fill_fraction(self):
        unit = TaskUnit(0, 10, 4)
        for k in range(5):
            unit.enqueue(_Task(k))
        assert unit.fill_fraction == 0.5


class TestCommitQueue:
    def test_capacity(self):
        unit = TaskUnit(0, 16, 2)
        assert unit.acquire_commit_entry()
        assert unit.acquire_commit_entry()
        assert not unit.acquire_commit_entry()
        unit.release_commit_entry()
        assert unit.acquire_commit_entry()

    def test_peak_tracking(self):
        unit = TaskUnit(0, 16, 4)
        unit.acquire_commit_entry()
        unit.acquire_commit_entry()
        unit.release_commit_entry()
        assert unit.peak_commit == 2


class TestHintScheduler:
    def test_same_hint_same_tile(self):
        units = [TaskUnit(t, 64, 16) for t in range(8)]
        sched = HintScheduler(8, use_hints=True)
        a = sched.tile_for(42, units)
        b = sched.tile_for(42, units)
        assert a == b

    def test_no_hints_round_robin(self):
        units = [TaskUnit(t, 64, 16) for t in range(4)]
        sched = HintScheduler(4, use_hints=True)
        tiles = [sched.tile_for(None, units) for _ in range(8)]
        assert tiles == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_hints_disabled_round_robin(self):
        units = [TaskUnit(t, 64, 16) for t in range(4)]
        sched = HintScheduler(4, use_hints=False)
        tiles = [sched.tile_for(7, units) for _ in range(4)]
        assert tiles == [0, 1, 2, 3]

    def test_load_balancing_diverts_overload(self):
        units = [TaskUnit(t, 64, 16) for t in range(4)]
        sched = HintScheduler(4, use_hints=True, load_balance_threshold=4)
        home = sched.hint_home(99)
        for k in range(20):
            units[home].enqueue(_Task(k))
        assert sched.tile_for(99, units) != home

    def test_hints_spread_over_tiles(self):
        units = [TaskUnit(t, 64, 16) for t in range(8)]
        sched = HintScheduler(8, use_hints=True)
        homes = {sched.hint_home(h) for h in range(64)}
        assert len(homes) >= 6

    def test_single_tile(self):
        units = [TaskUnit(0, 64, 16)]
        sched = HintScheduler(1, use_hints=True)
        assert sched.tile_for(5, units) == 0
        assert sched.tile_for(None, units) == 0
