"""ResultCache tests: round trips, fingerprints, invalidation."""

import json

from repro.core.stats import CycleBreakdown, RunStats
from repro.farm.cache import CACHE_SCHEMA, ResultCache, code_fingerprint
from repro.farm.job import JobSpec


def make_spec(n_cores=4):
    return JobSpec(app="repro.apps.zoomtree", variant="fractal",
                   n_cores=n_cores,
                   input_kwargs={"fanout": 2, "depth": 3})


def make_stats(makespan=1234):
    return RunStats(name="t", n_cores=4, makespan=makespan,
                    breakdown=CycleBreakdown(committed=1000, empty=200),
                    tasks_committed=7, cache={"hits": 3, "misses": 1})


class TestResultCache:
    def test_put_get_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec, stats = make_spec(), make_stats()
        assert cache.get(spec.digest()) is None
        cache.put(spec, stats, wall_s=0.5)
        got = cache.get(spec.digest())
        assert got == stats
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1
        assert cache.stats()["puts"] == 1

    def test_entry_document(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="deadbeef")
        spec = make_spec()
        cache.put(spec, make_stats())
        entry = cache.get_entry(spec.digest())
        assert entry["schema"] == CACHE_SCHEMA
        assert entry["digest"] == spec.digest()
        assert entry["fingerprint"] == "deadbeef"
        assert entry["spec"]["app"] == "repro.apps.zoomtree"
        # on-disk layout: two-char fan-out dirs, valid JSON
        path = next(tmp_path.glob("*/*.json"))
        assert path.parent.name == spec.digest()[:2]
        json.loads(path.read_text())

    def test_fingerprint_staleness(self, tmp_path):
        old = ResultCache(tmp_path, fingerprint="v1")
        spec = make_spec()
        old.put(spec, make_stats())
        new = ResultCache(tmp_path, fingerprint="v2")
        assert new.get(spec.digest()) is None
        assert new.stats()["stale"] == 1
        # same fingerprint still hits
        same = ResultCache(tmp_path, fingerprint="v1")
        assert same.get(spec.digest()) == make_stats()

    def test_contains_entries_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = [make_spec(n) for n in (1, 2, 4)]
        for s in specs:
            cache.put(s, make_stats())
        assert all(cache.contains(s.digest()) for s in specs)
        assert cache.entries() == 3
        assert cache.clear() == 3
        assert cache.entries() == 0
        assert not cache.contains(specs[0].digest())

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = make_spec()
        cache.put(spec, make_stats())
        path = next(tmp_path.glob("*/*.json"))
        path.write_text("{not json")
        fresh = ResultCache(tmp_path)
        assert fresh.get(spec.digest()) is None

    def test_put_is_atomic_no_temp_left(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(make_spec(), make_stats())
        leftovers = [p for p in tmp_path.rglob("*") if p.is_file()
                     and not p.name.endswith(".json")]
        assert leftovers == []


class TestCacheAccounting:
    """Regression tests: stale entries are misses; volatile fields never
    reach digests or comparisons; concurrent stale rewrites stay sane."""

    def test_stale_is_also_a_miss(self, tmp_path):
        # hits + misses must equal lookups even across code drift —
        # pre-fix, a stale lookup bumped only `stale` and a CI hit-rate
        # assertion over hits/(hits+misses) silently ignored it.
        old = ResultCache(tmp_path, fingerprint="v1")
        spec = make_spec()
        old.put(spec, make_stats())
        new = ResultCache(tmp_path, fingerprint="v2")
        assert new.get(spec.digest()) is None
        s = new.stats()
        assert s["stale"] == 1
        assert s["misses"] == 1
        assert s["hits"] == 0

    def test_volatile_fields_not_in_digest_or_stats(self, tmp_path):
        # The content digest comes from the spec alone; `created` and
        # `wall_s` are bookkeeping on the entry document and must never
        # leak into the digest or the cached RunStats payload that
        # cold/warm comparisons diff.
        spec = make_spec()
        assert spec.digest() == make_spec().digest()
        cache = ResultCache(tmp_path, fingerprint="v1")
        p1 = cache.put(spec, make_stats(), wall_s=0.25)
        doc1 = json.loads(p1.read_text())
        p2 = cache.put(spec, make_stats(), wall_s=99.0)
        doc2 = json.loads(p2.read_text())
        assert p1 == p2  # same digest -> same path, regardless of timing
        assert "created" not in doc1["stats"]
        assert "wall_s" not in doc1["stats"]
        assert doc1["stats"] == doc2["stats"]
        assert cache.get(spec.digest()) == make_stats()

    def test_concurrent_stale_rewrite_same_digest(self, tmp_path):
        # Two jobs race to refresh the same stale digest (atomic-write
        # race): both count it stale+miss once, both puts land on the
        # same path (last writer wins whole-file), and a later lookup
        # hits exactly once with a fully-formed document.
        spec = make_spec()
        ResultCache(tmp_path, fingerprint="v1").put(spec, make_stats())
        a = ResultCache(tmp_path, fingerprint="v2")
        b = ResultCache(tmp_path, fingerprint="v2")
        assert a.get(spec.digest()) is None
        assert b.get(spec.digest()) is None  # raced before a's rewrite
        a.put(spec, make_stats(makespan=111))
        b.put(spec, make_stats(makespan=222))
        for c in (a, b):
            s = c.stats()
            assert s["stale"] == 1 and s["misses"] == 1 and s["puts"] == 1
            assert s["entries"] == 1  # one file, no tmp leftovers
        got = a.get(spec.digest())
        assert got == make_stats(makespan=222)
        assert a.stats()["hits"] == 1


class TestCodeFingerprint:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_FARM_FINGERPRINT", "pinned")
        assert code_fingerprint() == "pinned"

    def test_stable_within_process(self, monkeypatch):
        monkeypatch.delenv("REPRO_FARM_FINGERPRINT", raising=False)
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64
