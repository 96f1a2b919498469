"""ResultCache under concurrent access.

- racing writers: many threads racing get/put on the same content
  address — exactly one logical compute, counters reconcile with
  lookups, and the stored entry is intact (atomic write-then-rename);
- warm readers: once an entry is stored, independent caches on the same
  directory (one per thread or process) read back exactly what was
  stored, and their hit/miss counters reconcile with their own lookups.
"""

import json
import threading

from repro.farm.cache import ResultCache
from repro.farm.farm import Farm
from repro.farm.job import JobSpec

FAKEAPP = "tests.farm._fakeapp"


def fake_spec(n_tasks=4):
    return JobSpec(app=FAKEAPP, variant="fractal", n_cores=2,
                   input_kwargs={"n_tasks": n_tasks})


def run_stats(spec):
    return Farm(jobs=1).run([spec])[0].stats


class TestRawCacheRaces:
    def test_racing_get_put_one_compute_counters_reconcile(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="t1")
        spec = fake_spec()
        stats = run_stats(spec)
        digest = spec.digest()
        n_threads = 8
        lookups = []
        lock = threading.Lock()
        barrier = threading.Barrier(n_threads)

        def worker():
            barrier.wait()
            hit = cache.get(digest)
            with lock:
                lookups.append(hit)
            if hit is None:
                # miss -> "compute" (already done above) and publish
                cache.put(spec, stats, wall_s=0.1)

        threads = [threading.Thread(target=worker)
                   for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        s = cache.stats()
        assert s["hits"] + s["misses"] == len(lookups) == n_threads
        assert s["misses"] >= 1                # at least the first racer
        assert s["stale"] == 0
        assert s["entries"] == 1               # one digest, one entry
        # the winning writer left an intact, readable entry
        assert cache.get(digest).to_dict() == stats.to_dict()

    def test_concurrent_distinct_digests_all_stored(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="t1")
        specs = [fake_spec(n) for n in (4, 5, 6, 7)]
        stats = {s.digest(): run_stats(s) for s in specs}

        def worker(spec):
            if cache.get(spec.digest()) is None:
                cache.put(spec, stats[spec.digest()], wall_s=0.1)

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in specs for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cache.entries() == len(specs)
        s = cache.stats()
        assert s["hits"] + s["misses"] == len(threads)
        for spec in specs:
            assert (cache.get(spec.digest()).to_dict()
                    == stats[spec.digest()].to_dict())


class TestWarmCacheReaders:
    def warm_cache(self, tmp_path):
        """A cache directory holding one stored entry, plus its stats."""
        spec = fake_spec()
        stats = run_stats(spec)
        writer = ResultCache(tmp_path, fingerprint="t1")
        assert writer.get(spec.digest()) is None
        writer.put(spec, stats, wall_s=0.1)
        return spec, stats, writer

    def test_counters_reconcile_across_miss_put_hit(self, tmp_path):
        spec, stats, cache = self.warm_cache(tmp_path)
        assert cache.get(spec.digest()).to_dict() == stats.to_dict()
        assert cache.stats() == {"hits": 1, "misses": 1, "stale": 0,
                                 "puts": 1, "entries": 1}

    def test_fresh_cache_counts_one_hit_for_one_lookup(self, tmp_path):
        spec, stats, _ = self.warm_cache(tmp_path)
        fresh = ResultCache(tmp_path, fingerprint="t1")
        assert fresh.get(spec.digest()).to_dict() == stats.to_dict()
        s = fresh.stats()
        assert s["hits"] + s["misses"] == 1
        assert s["hits"] == 1
        assert s["misses"] == 0 and s["stale"] == 0 and s["puts"] == 0

    def test_warm_entry_served_intact_under_parallel_readers(self, tmp_path):
        spec, stats, _ = self.warm_cache(tmp_path)
        want = json.dumps(stats.to_dict(), sort_keys=True)
        n_threads = 8
        readers = [ResultCache(tmp_path, fingerprint="t1")
                   for _ in range(n_threads)]
        got = []
        lock = threading.Lock()
        barrier = threading.Barrier(n_threads)

        def reader(cache):
            barrier.wait()
            hit = cache.get(spec.digest())
            with lock:
                got.append(json.dumps(hit.to_dict(), sort_keys=True))

        threads = [threading.Thread(target=reader, args=(r,))
                   for r in readers]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert got == [want] * n_threads
        assert all(r.stats()["hits"] == 1 for r in readers)
