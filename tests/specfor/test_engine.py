"""Unit tests for the standalone speculative_for oracle and the policy."""

import pytest

from repro.errors import ConfigError
from repro.specfor import UNRESERVED, SpecForLivelock, SpecForPolicy
from repro.specfor.adapter import STAGE_FULL, STAGE_HALVED, STAGE_SERIAL

from .engine_oracle import sequential_for, speculative_for


class PureTable:
    """Plain-Python reservation cells (no ctx, no spec memory)."""

    def __init__(self, n):
        self.cells = [UNRESERVED] * n

    def write_min(self, loc, i):
        self.cells[loc] = min(self.cells[loc], i)

    def holds(self, loc, i):
        return self.cells[loc] == i

    def check_release(self, loc, i):
        if self.cells[loc] == i:
            self.cells[loc] = UNRESERVED


class CavityStep:
    """Refine-style step: iteration i claims all its cells or none."""

    def __init__(self, cavities, n_cells):
        self.cavities = cavities
        self.resv = PureTable(n_cells)
        self.owner = [-1] * n_cells
        self.success = [0] * len(cavities)
        self.release_calls = []

    def reserve(self, ctx, i):
        if any(self.owner[c] >= 0 for c in self.cavities[i]):
            return False
        for c in self.cavities[i]:
            self.resv.write_min(c, i)
        return True

    def commit(self, ctx, i):
        if not all(self.resv.holds(c, i) for c in self.cavities[i]):
            return False
        for c in self.cavities[i]:
            self.owner[c] = i
        self.success[i] = 1
        return True

    def release(self, ctx, i):
        self.release_calls.append(i)
        for c in self.cavities[i]:
            self.resv.check_release(c, i)


def greedy_reference(cavities, n_cells):
    owner = [-1] * n_cells
    success = [0] * len(cavities)
    for i, cav in enumerate(cavities):
        if all(owner[c] < 0 for c in cav):
            for c in cav:
                owner[c] = i
            success[i] = 1
    return success, owner


class TestPolicy:
    def test_max_round_size_is_pbbs_formula(self):
        pol = SpecForPolicy(granularity=8)
        assert pol.max_round_size(80) == 11
        assert pol.max_round_size(7) == 1  # never zero

    def test_stage_ladder_boundaries(self):
        pol = SpecForPolicy(throttle_after=4, serialize_after=8,
                            max_tries=64)
        assert pol.stage_for(0) == STAGE_FULL
        assert pol.stage_for(3) == STAGE_FULL
        assert pol.stage_for(4) == STAGE_HALVED
        assert pol.stage_for(7) == STAGE_HALVED
        assert pol.stage_for(8) == STAGE_SERIAL

    def test_size_shrinks_down_the_ladder(self):
        pol = SpecForPolicy(granularity=8)
        n = 160
        assert pol.size_for(STAGE_FULL, n) == 21
        assert pol.size_for(STAGE_HALVED, n) == 10
        assert pol.size_for(STAGE_SERIAL, n) == 1

    def test_ladder_order_is_validated(self):
        with pytest.raises(ConfigError):
            SpecForPolicy(throttle_after=9, serialize_after=8)
        with pytest.raises(ConfigError):
            SpecForPolicy(serialize_after=100, max_tries=10)
        with pytest.raises(ConfigError):
            SpecForPolicy(granularity=0)


class TestSpeculativeFor:
    def test_empty_loop(self):
        out = speculative_for(CavityStep([], 1), 0)
        assert out.done == 0 and out.rounds == []

    def test_matches_sequential_reference(self):
        cavities = [(0, 1), (1, 2), (3,), (2, 3), (0, 4), (4, 5)]
        step = CavityStep(cavities, 6)
        out = speculative_for(step, len(cavities),
                              policy=SpecForPolicy(granularity=1))
        want_success, want_owner = greedy_reference(cavities, 6)
        assert step.success == want_success
        assert step.owner == want_owner
        assert out.done == len(cavities)
        assert out.commits == sum(want_success)
        assert out.commits + out.filtered == len(cavities)

    def test_contended_loser_is_carried_then_filtered(self):
        # both iterations want cell 0: i=0 wins round 0, i=1 is carried,
        # then filtered in round 1 (owner already set) with release called
        step = CavityStep([(0,), (0,)], 1)
        out = speculative_for(step, 2, policy=SpecForPolicy(granularity=1))
        assert step.success == [1, 0]
        assert out.reserve_failures == 1
        assert out.rounds[0].carried == (1,)
        assert out.rounds[1].batch == (1,)
        assert step.release_calls == [1]

    def test_round_batches_respect_granularity(self):
        cavities = [(i,) for i in range(20)]  # no conflicts
        step = CavityStep(cavities, 20)
        records = []
        out = speculative_for(step, 20,
                              policy=SpecForPolicy(granularity=8),
                              observer=records.append)
        assert records == out.rounds
        assert [r.size for r in out.rounds] == [3, 3, 3, 3, 3, 3, 2]
        assert all(r.stage == STAGE_FULL for r in out.rounds)

    def test_done_is_monotone_and_complete(self):
        cavities = [(i % 4, (i + 1) % 4) for i in range(12)]
        step = CavityStep(cavities, 4)
        out = speculative_for(step, 12,
                              policy=SpecForPolicy(granularity=2))
        dones = [r.done for r in out.rounds]
        assert dones == sorted(dones)
        assert dones[-1] == 12

    def test_livelock_raises_after_max_tries(self):
        class Stuck:
            def reserve(self, ctx, i):
                return True

            def commit(self, ctx, i):
                return False

        pol = SpecForPolicy(granularity=1, throttle_after=1,
                            serialize_after=2, max_tries=5)
        records = []
        with pytest.raises(SpecForLivelock):
            speculative_for(Stuck(), 3, policy=pol,
                            observer=records.append)
        assert len(records) == 5
        # the ladder was walked on the way down
        assert records[0].stage == STAGE_FULL
        assert records[1].stage == STAGE_HALVED
        assert records[-1].stage == STAGE_SERIAL
        assert records[-1].size == 1


class TestSequentialFor:
    def test_counts_commits_and_filters(self):
        cavities = [(0,), (0,), (1,)]
        step = CavityStep(cavities, 2)
        assert sequential_for(step, 3) == 2
        assert step.success == [1, 0, 1]

    def test_commit_failure_alone_is_a_contract_violation(self):
        class Broken:
            def reserve(self, ctx, i):
                return True

            def commit(self, ctx, i):
                return False

        with pytest.raises(SpecForLivelock):
            sequential_for(Broken(), 1)
