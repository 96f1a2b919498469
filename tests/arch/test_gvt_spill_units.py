"""Unit tests for the GVT arbiter and spill data structures."""

from repro.arch.gvt import GvtArbiter, GvtFrontier
from repro.arch.spill import CoalescerJob, SpillBuffer, SplitterJob


class _Task:
    """Minimal SpillBuffer / frontier occupant: a flat VT key + tokens."""

    def __init__(self, ts, tb=0):
        self.order_key = (ts, tb)
        self.queue_token = 0
        self._gvt_token = 0


class TestGvtArbiter:
    def test_next_tick_period(self):
        arb = GvtArbiter(commit_interval=200)
        assert arb.next_tick(1000) == 1200

    def test_min_unfinished(self):
        """The GVT is the least key over running tasks (full key) and
        pending ones (final tiebreaker tightened to the present)."""
        frontier = GvtFrontier()
        running, pending = _Task(3, 5), _Task(1, 0)
        frontier.add_run(running)
        frontier.add_dyn(pending)
        assert frontier.min_key(7) == (1, 7)
        frontier.discard(pending)
        assert frontier.min_key(7) == (3, 5)

    def test_min_of_nothing_is_none(self):
        assert GvtFrontier().min_key(0) is None


class TestSpillBuffer:
    def test_min_key(self):
        buf = SpillBuffer([_Task(5), _Task(2), _Task(9)])
        assert buf.min_stripped(4) == (2, 4)

    def test_empty_min_is_none(self):
        assert SpillBuffer([]).min_stripped(0) is None

    def test_remove(self):
        a, b = _Task(1), _Task(2)
        buf = SpillBuffer([a, b])
        assert buf.remove(a)
        assert not buf.remove(a)
        assert len(buf) == 1

    def test_is_zoom_flag_defaults_false(self):
        assert not SpillBuffer([]).is_zoom


class TestJobs:
    def test_kinds(self):
        assert CoalescerJob(0, 10).kind == "coalescer"
        assert SplitterJob(0, SpillBuffer([]), 10).kind == "splitter"

    def test_repr_mentions_contents(self):
        buf = SpillBuffer([_Task(1)])
        assert "1 tasks" in repr(SplitterJob(2, buf, 10))
