"""Deterministic sharding tests (repro.farm.shard)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.farm.job import stable_digest
from repro.farm.shard import (deterministic_shards, parse_shard,
                              select_shard, shard_index)


class TestShardIndex:
    def test_stable(self):
        assert shard_index("abc", 4) == shard_index("abc", 4)

    def test_in_range(self):
        for key in ("a", "b", "c", "x" * 100):
            for n in (1, 2, 3, 7):
                assert 0 <= shard_index(key, n) < n

    def test_spread(self):
        # 64 keys over 4 shards: every shard gets something
        keys = [f"key-{i}" for i in range(64)]
        hit = {shard_index(k, 4) for k in keys}
        assert hit == {0, 1, 2, 3}


class TestShards:
    def test_partition(self):
        items = [f"job-{i}" for i in range(20)]
        shards = deterministic_shards(items, 3)
        assert len(shards) == 3
        flat = [x for shard in shards for x in shard]
        assert sorted(flat) == sorted(items)
        # each shard preserves input order
        for shard in shards:
            assert shard == [x for x in items if x in shard]

    def test_stable_under_subsetting(self):
        # an item's shard does not depend on what else is in the list
        items = [f"job-{i}" for i in range(20)]
        full = deterministic_shards(items, 4)
        subset = deterministic_shards(items[5:], 4)
        for k in range(4):
            assert [x for x in full[k] if x in items[5:]] == subset[k]

    @settings(max_examples=30, deadline=None)
    @given(keys=st.lists(st.text(min_size=1, max_size=20), min_size=1,
                         max_size=30, unique=True),
           n_shards=st.integers(min_value=1, max_value=16),
           subset_mask=st.lists(st.booleans(), min_size=30, max_size=30))
    def test_shard_index_is_subset_stable(self, keys, n_shards, subset_mask):
        # a digest's shard is a pure function of the digest itself
        digests = [stable_digest(k) for k in keys]
        full = {d: shard_index(d, n_shards) for d in digests}
        subset = [d for d, keep in zip(digests, subset_mask) if keep]
        for d in subset:
            assert shard_index(d, n_shards) == full[d]
            assert 0 <= full[d] < n_shards

    def test_select_matches_partition(self):
        items = [f"job-{i}" for i in range(20)]
        shards = deterministic_shards(items, 4)
        for k in range(4):
            assert select_shard(items, k + 1, 4) == shards[k]


class TestParseShard:
    def test_ok(self):
        assert parse_shard("1/3") == (1, 3)
        assert parse_shard("3/3") == (3, 3)

    @pytest.mark.parametrize("bad", ["0/3", "4/3", "1", "a/b", "1/0", ""])
    def test_rejects(self, bad):
        with pytest.raises(Exception):
            parse_shard(bad)
