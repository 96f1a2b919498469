"""Stress bench for the versioned-memory / Bloom layer, driven directly.

Hammers :class:`repro.mem.memory.SpecMemory` and the conflict models with
synthetic owner waves — no simulator, no apps — so wall time measures
exactly the memory layer that ISSUE 10 vectorizes. This is the
"memory-bound benchmark subset" whose before/after numbers are pinned in
``BENCH_summary.json``.

Three sweeps:

- ``churn``  — each owner re-accesses a small private working set many
  times (re-access dominated: the epoch-memoized fast path should turn
  almost every access into a dict hit; precise conflict model).
- ``shared`` — owner waves load a hot shared region plus a private slice
  (probe/victim-scan dominated; precise model; no aborts so both engines
  do identical work).
- ``bloom``  — the churn mix through ``BloomConflictModel`` sampled mode
  (signature insert + false-positive bookkeeping dominated).

Every op sequence is seeded and fixed, so the two engines do identical
logical work and per-config RunStats-grade counters must match exactly.

Usage::

    PYTHONPATH=src python benchmarks/bench_mem_stress.py \
        [--engine fast|scalar] [--json OUT] [--repeat N]

``--engine`` is forwarded to ``SpecMemory`` when the installed version
supports it (post-vectorization); on older trees it falls back to the
only engine there is, which makes this file runnable at the pre-change
commit to record honest "before" numbers.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.mem.address import AddressSpace  # noqa: E402
from repro.mem.conflicts import (BloomConflictModel,  # noqa: E402
                                 PreciseConflictModel)
from repro.mem.memory import SpecMemory  # noqa: E402


class Owner:
    """Minimal OwnerProtocol stand-in with a fixed VT key."""

    __slots__ = ("order_key", "aborted", "undo", "reads", "writes",
                 "read_lines", "write_lines", "deps", "dependents", "sig_read",
                 "sig_write", "_fp_cached", "_line_memo", "_sig_row")

    def __init__(self, key):
        self.order_key = key
        self.aborted = False

    def still_executing(self):  # the owner protocol before SpecMemory.finish
        return False

    def __repr__(self):
        return f"Owner{self.order_key}"


def _cascade(mem):
    """Abort hook: roll back victims latest-first (plus data dependents)."""

    def hook(victims, reason):
        cascade, stack, seen = [], list(victims), set()
        while stack:
            v = stack.pop()
            if id(v) in seen:
                continue
            seen.add(id(v))
            cascade.append(v)
            stack.extend(v.dependents)
        for v in sorted(cascade, key=lambda o: o.order_key, reverse=True):
            v.aborted = True
            mem.rollback(v)

    return hook


def _attach(mem, key):
    """A fresh owner that has already finished (its stores have landed)."""
    o = Owner(key)
    mem.attach_owner(o)
    if hasattr(mem, "finish"):
        mem.finish(o)
    return o


def _make_memory(model, engine):
    space = AddressSpace(line_bytes=64, n_tiles=4)
    params = inspect.signature(SpecMemory.__init__).parameters
    if "engine" in params:
        mem = SpecMemory(space, model, engine=engine)
    else:  # pre-vectorization tree: single scalar engine
        mem = SpecMemory(space, model)
    mem.abort_cascade = _cascade(mem)
    return space, mem


def run_churn(engine, waves=120, owners_per_wave=8, lines_each=4, rounds=12):
    """Private working sets, heavy re-access."""
    model = PreciseConflictModel()
    space, mem = _make_memory(model, engine)
    lw = space.line_words
    region = space.alloc("churn", owners_per_wave * lines_each * lw)
    accesses = 0
    t0 = time.perf_counter()
    for wave in range(waves):
        batch = []
        for i in range(owners_per_wave):
            o = _attach(mem, (wave, i))
            batch.append(o)
        for i, o in enumerate(batch):
            base = i * lines_each * lw
            for _ in range(rounds):
                for w in range(lines_each * lw):
                    mem.load(o, region.addr(base + w))
                for ln in range(lines_each):
                    mem.store(o, region.addr(base + ln * lw), wave)
                accesses += lines_each * (lw + 1)
        for o in batch:
            mem.commit(o)
    wall = time.perf_counter() - t0
    mem.assert_quiescent()
    return wall, accesses, _counters(mem, model)


def run_shared(engine, waves=120, readers_per_wave=8, hot_lines=4, rounds=6):
    """Forwarding from hot lines with deep finished-writer chains.

    Per wave, one earlier-VT writer per word of each hot line stores its
    word (so every hot line carries a chain of ``line_words`` finished
    speculative writers), then later-VT readers repeatedly load the whole
    region — the forwarded-reduction pattern. Every load's victim scan
    walks the full chain and finds nothing, so both engines do identical
    logical work with zero aborts; the fast engine memoizes the clean
    probe after the first touch."""
    model = PreciseConflictModel()
    space, mem = _make_memory(model, engine)
    lw = space.line_words
    hot = space.alloc("hot", hot_lines * lw)
    accesses = 0
    t0 = time.perf_counter()
    for wave in range(waves):
        writers = []
        for j in range(lw):
            o = _attach(mem, (wave, j))
            writers.append(o)
        readers = []
        for i in range(readers_per_wave):
            o = _attach(mem, (wave, lw + i))
            readers.append(o)
        for j, o in enumerate(writers):
            for ln in range(hot_lines):
                mem.store(o, hot.addr(ln * lw + j), wave)
            accesses += hot_lines
        for _ in range(rounds):
            for o in readers:
                for w in range(hot_lines * lw):
                    mem.load(o, hot.addr(w))
                accesses += hot_lines * lw
        for o in writers:
            mem.commit(o)
        for o in readers:
            mem.commit(o)
    wall = time.perf_counter() - t0
    mem.assert_quiescent()
    return wall, accesses, _counters(mem, model)


def run_bloom(engine, waves=80, owners_per_wave=8, lines_each=4, rounds=10):
    """The churn mix through Bloom signatures (sampled false positives)."""
    model = BloomConflictModel(bits=2048, ways=8, seed=7)
    space, mem = _make_memory(model, engine)
    lw = space.line_words
    region = space.alloc("bloomset", owners_per_wave * lines_each * lw)
    accesses = 0
    t0 = time.perf_counter()
    for wave in range(waves):
        batch = []
        for i in range(owners_per_wave):
            o = _attach(mem, (wave, i))
            batch.append(o)
        for i, o in enumerate(batch):
            base = i * lines_each * lw
            for _ in range(rounds):
                for w in range(lines_each * lw):
                    if o.aborted:
                        break
                    mem.load(o, region.addr(base + w))
                    accesses += 1
                for ln in range(lines_each):
                    if o.aborted:
                        break
                    mem.store(o, region.addr(base + ln * lw), wave)
                    accesses += 1
                if o.aborted:
                    break
        for o in batch:
            if not o.aborted:
                mem.commit(o)
    wall = time.perf_counter() - t0
    mem.assert_quiescent()
    c = _counters(mem, model)
    c["false_positives"] = model.false_positives
    return wall, accesses, c


def _counters(mem, model):
    return {
        "n_loads": mem.n_loads,
        "n_stores": mem.n_stores,
        "n_true_conflicts": mem.n_true_conflicts,
        "mem_probe_steps": mem.probe_steps,
        "fast_hits": getattr(mem, "fast_hits", 0),
        "slow_probes": getattr(mem, "slow_probes", 0),
        "conflict_probe_steps": getattr(model, "probe_steps", 0),
    }


CONFIGS = {
    "churn": run_churn,
    "shared": run_shared,
    "bloom": run_bloom,
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--engine", default="fast", choices=["fast", "scalar"],
                    help="SpecMemory engine (ignored on pre-engine trees)")
    ap.add_argument("--only", default=None,
                    help="comma-separated subset of configs")
    ap.add_argument("--repeat", type=int, default=3,
                    help="timed repetitions; best wall is reported")
    ap.add_argument("--json", default=None, help="write results to this file")
    args = ap.parse_args(argv)

    names = list(CONFIGS) if not args.only else args.only.split(",")
    results = {}
    for name in names:
        fn = CONFIGS[name]
        best, accesses, counters = None, 0, {}
        for _ in range(args.repeat):
            wall, accesses, counters = fn(args.engine)
            best = wall if best is None else min(best, wall)
        rate = accesses / best if best else 0.0
        results[name] = {
            "wall_s": round(best, 4),
            "accesses": accesses,
            "accesses_per_s": round(rate),
            "counters": counters,
        }
        print(f"{name:8s} engine={args.engine:7s} {best:7.3f}s  "
              f"{accesses:9d} accesses  {rate / 1e3:8.1f} k/s")

    doc = {
        "schema": "repro.mem-stress/1",
        "engine": args.engine,
        "configs": results,
    }
    if args.json:
        Path(args.json).write_text(json.dumps(doc, indent=2, sort_keys=True))
        print(f"wrote {args.json}")
    return doc


if __name__ == "__main__":
    main()
