"""Property test: the task queue against the heap-plus-mirror oracle.

Random enqueue / remove / pop_best / rebuild sequences run through
production :class:`~repro.arch.task_unit.TaskUnit` and the earlier queue
that kept a per-depth stripped mirror beside its heap
(``queue_oracle.py``), each on its own copy of every task. Keys mix
nesting depths and draw their final tiebreakers from a tiny range, so
equal keys are common and FIFO ``seq`` order decides many pops.

The two must agree on every ``pop_best``, ``peek_min_key`` and
``peek_min_stripped(now_lb)``, and list the live pending tasks in the
same order: spill victim selection and rebuilds consume that order, so
it is part of what a run produces.
"""

from hypothesis import given, settings, strategies as st

from repro.arch.task_unit import TaskUnit

from .queue_oracle import HeapQueueOracle

N_TASKS = 10

_keys = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)),
                 min_size=1, max_size=3).map(lambda levels: sum(levels, ()))

_ops = st.lists(st.one_of(
    st.tuples(st.just("enqueue"), st.integers(0, N_TASKS - 1), _keys),
    st.tuples(st.just("remove"), st.integers(0, N_TASKS - 1)),
    st.tuples(st.just("pop")),
    st.tuples(st.just("rebuild"), st.booleans()),
), max_size=80)


class _Task:
    __slots__ = ("slot", "order_key", "queue_tile", "queue_token")

    def __init__(self, slot):
        self.slot = slot
        self.order_key = None
        self.queue_tile = -1
        self.queue_token = 0

    def __repr__(self):
        return f"_Task{self.slot}{self.order_key}"


def _rewrite(key, zoom):
    """A global VT rewrite: shift every level, or drop the outermost
    level of keys deep enough to have one to spare (a zoom-in)."""
    if zoom and len(key) > 2:
        return key[2:]
    return tuple(x + 1 for x in key)


def _slots(tasks):
    return [t.slot for t in tasks]


class _Lockstep:
    def __init__(self):
        self.oracle = HeapQueueOracle()
        self.unit = TaskUnit(0, 64, 16)
        self.theirs = [_Task(i) for i in range(N_TASKS)]
        self.ours = [_Task(i) for i in range(N_TASKS)]
        self.pending = set()

    def enqueue(self, slot, key):
        if slot in self.pending:
            return
        self.theirs[slot].order_key = self.ours[slot].order_key = key
        self.oracle.enqueue(self.theirs[slot])
        self.unit.enqueue(self.ours[slot])
        self.pending.add(slot)

    def remove(self, slot):
        if slot not in self.pending:
            return
        self.oracle.remove(self.theirs[slot])
        self.unit.remove(self.ours[slot])
        self.pending.discard(slot)

    def pop(self):
        theirs, ours = self.oracle.pop_best(), self.unit.pop_best()
        if theirs is None:
            assert ours is None and not self.pending
            return
        assert ours.slot == theirs.slot
        self.pending.discard(ours.slot)

    def rebuild(self, zoom):
        for slot in self.pending:
            key = _rewrite(self.ours[slot].order_key, zoom)
            self.theirs[slot].order_key = self.ours[slot].order_key = key
        self.oracle.rebuild()
        self.unit.rebuild()

    def check_live(self):
        live = _slots(self.unit.live_pending())
        assert len(set(live)) == len(live)  # one live entry per task
        assert set(live) == self.pending
        assert live == _slots(self.oracle.live_pending())

    def check(self, now_lb):
        oracle, unit = self.oracle, self.unit
        assert unit.pending_count == oracle.pending_count == len(self.pending)
        # the stripped query must leave storage order alone (the oracle
        # asks its mirror); peek_min_key drops stale tops in both
        assert unit.peek_min_stripped(now_lb) == \
            oracle.peek_min_stripped(now_lb)
        self.check_live()
        assert unit.peek_min_key() == oracle.peek_min_key()
        self.check_live()


@given(ops=_ops, now_lb=st.integers(0, 4))
@settings(max_examples=300, deadline=None)
def test_queue_matches_heap_oracle(ops, now_lb):
    run = _Lockstep()
    for op in ops:
        if op[0] == "enqueue":
            run.enqueue(op[1], op[2])
        elif op[0] == "remove":
            run.remove(op[1])
        elif op[0] == "pop":
            run.pop()
        else:
            run.rebuild(op[1])
        run.check(now_lb)
    while run.pending:
        run.pop()
        run.check(now_lb)
    run.pop()


def test_stripped_min_reorders_across_depths():
    """A shallow key beats a deep one under its frozen bound but loses
    once ``now_lb`` passes the deep key's ancestor tiebreaker: the case
    that keeps the stripped query per key length."""
    run = _Lockstep()
    run.enqueue(0, (1, 5))          # stripped: (1, now_lb)
    run.enqueue(1, (1, 7, 0, 2))    # stripped: (1, 7, 0, now_lb)
    assert run.unit.peek_min_key() == (1, 5)
    assert run.unit.peek_min_stripped(6) == (1, 6)
    assert run.unit.peek_min_stripped(8) == (1, 7, 0, 8)
    run.check(8)
