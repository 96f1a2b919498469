"""Stress bench for the versioned-memory / Bloom layer, driven directly.

Hammers :class:`repro.mem.memory.SpecMemory` and the conflict models with
synthetic owner waves — no simulator, no apps — so wall time measures
exactly the memory layer.

Three sweeps:

- ``churn``  — each owner re-accesses a small private working set many
  times (re-access dominated; precise conflict model).
- ``shared`` — owner waves load a hot shared region plus a private slice
  (probe/victim-scan dominated; precise model; no aborts).
- ``bloom``  — the churn mix through ``BloomConflictModel`` sampled mode
  (signature insert + false-positive bookkeeping dominated).

Every op sequence is seeded and fixed, so per-config RunStats-grade
counters are the same on every run.

Usage::

    PYTHONPATH=src python benchmarks/bench_mem_stress.py \
        [--only churn,shared,bloom] [--json OUT] [--repeat N]
"""

from __future__ import annotations

import argparse
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
                 "sig_write", "_fp_cached", "_sig_row")

    def __init__(self, key):
        self.order_key = key
        self.aborted = False

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
    mem.finish(o)
    return o


def _make_memory(model):
    space = AddressSpace(line_bytes=64, n_tiles=4)
    mem = SpecMemory(space, model)
    mem.abort_cascade = _cascade(mem)
    return space, mem


def run_churn(waves=120, owners_per_wave=8, lines_each=4, rounds=12):
    """Private working sets, heavy re-access."""
    model = PreciseConflictModel()
    space, mem = _make_memory(model)
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


def run_shared(waves=120, readers_per_wave=8, hot_lines=4, rounds=6):
    """Forwarding from hot lines with deep finished-writer chains.

    Per wave, one earlier-VT writer per word of each hot line stores its
    word (so every hot line carries a chain of ``line_words`` finished
    speculative writers), then later-VT readers repeatedly load the whole
    region — the forwarded-reduction pattern. Every load's victim scan
    walks the full chain and finds nothing, with zero aborts."""
    model = PreciseConflictModel()
    space, mem = _make_memory(model)
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


def run_bloom(waves=80, owners_per_wave=8, lines_each=4, rounds=10):
    """The churn mix through Bloom signatures (sampled false positives)."""
    model = BloomConflictModel(bits=2048, ways=8, seed=7)
    space, mem = _make_memory(model)
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
        "conflict_probe_steps": model.probe_steps,
    }


CONFIGS = {
    "churn": run_churn,
    "shared": run_shared,
    "bloom": run_bloom,
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
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
            wall, accesses, counters = fn()
            best = wall if best is None else min(best, wall)
        rate = accesses / best if best else 0.0
        results[name] = {
            "wall_s": round(best, 4),
            "accesses": accesses,
            "accesses_per_s": round(rate),
            "counters": counters,
        }
        print(f"{name:8s} {best:7.3f}s  "
              f"{accesses:9d} accesses  {rate / 1e3:8.1f} k/s")

    doc = {
        "schema": "repro.mem-stress/2",
        "configs": results,
    }
    if args.json:
        Path(args.json).write_text(json.dumps(doc, indent=2, sort_keys=True))
        print(f"wrote {args.json}")
    return doc


if __name__ == "__main__":
    main()
