"""Conflict-detection models: Bloom signatures vs. idealized precise.

The simulator detects *true* conflicts exactly (via the reader/writer
indices in :class:`repro.mem.memory.SpecMemory`); the conflict model adds
the behaviour that distinguishes real hardware:

- :class:`PreciseConflictModel` — the paper's idealized scheme with no
  false positives (dashed lines in Fig. 14a).
- :class:`BloomConflictModel` — 2 Kbit 8-way H3 signatures per task. Each
  task maintains bit-accurate read/write signatures; on hardware every
  access then probes the signatures of all other live speculative tasks.
  Probing every pair bit-by-bit is exact but quadratic, so the model
  *samples* false positives from per-signature false-positive rates
  derived from actual signature occupancy: the pairwise probe's spurious
  hit rate per access is bounded above (not preserved; loads sample the
  same rate as stores), and a sampled hit aborts exactly what hardware
  would abort — the later of {accessor, falsely-matching task}. The
  pairwise probe lives on as the test oracle in
  ``tests/mem/bloom_oracle.py``.

Both models also answer "who must die" for true conflicts identically, via
the earlier-VT-wins policy (paper Sec. 4.1: on a conflict, abort only
descendants and data-dependent tasks — the cascade itself is computed by
the simulator).
"""

from __future__ import annotations

import random
from typing import Dict

from .bloom import BloomSignature, H3HashFamily


class ConflictPolicy:
    """Base conflict model: tracks live speculative tasks.

    Owners (task attempts) must expose ``order_key`` plus ``sig_read`` /
    ``sig_write`` attributes, which this model installs at registration.
    """

    name = "abstract"

    #: peak-live-tasks gauge (installed by the simulator; None = off).
    #: register() implementations bump it inline to keep the hot path flat.
    _live_gauge = None

    #: whether false_conflict() may return non-None / consume RNG.
    #: SpecMemory elides the per-access sampler call when False.
    samples_false_positives = True

    #: profiling counters (see :mod:`repro.telemetry.profiling`); models
    #: that sample signatures bump their own instance copies
    probe_steps = 0
    false_positives = 0

    def register(self, owner) -> None:
        """Called when ``owner`` starts running speculatively."""
        raise NotImplementedError

    def unregister(self, owner) -> None:
        """Called at commit or abort."""
        raise NotImplementedError

    def note_access(self, owner, line: int, is_write: bool) -> None:
        """Record that ``owner`` touched ``line``."""
        raise NotImplementedError

    def false_conflict(self, owner, line: int, is_write: bool):
        """Return a falsely-conflicting live task (or None).

        A non-None result means a signature somewhere aliased this access;
        the simulator aborts the later of (owner, result).
        """
        raise NotImplementedError


class PreciseConflictModel(ConflictPolicy):
    """Idealized precise conflict detection — never a false positive."""

    name = "precise"
    samples_false_positives = False

    def __init__(self):
        # insertion-ordered on purpose (like the simulator's _live): any
        # iteration over live tasks must not depend on object addresses
        self._live: Dict = {}

    def register(self, owner) -> None:
        self._live[owner] = None
        g = self._live_gauge
        if g is not None and len(self._live) > g.value:
            g.value = len(self._live)
        owner.sig_read = None
        owner.sig_write = None

    def unregister(self, owner) -> None:
        self._live.pop(owner, None)

    def note_access(self, owner, line: int, is_write: bool) -> None:
        pass

    def false_conflict(self, owner, line: int, is_write: bool):
        return None

    @property
    def live_count(self) -> int:
        return len(self._live)


class BloomConflictModel(ConflictPolicy):
    """Per-task H3 Bloom signatures with sampled false positives."""

    name = "bloom"

    def __init__(self, bits: int = 2048, ways: int = 8, seed: int = 0):
        self.family = H3HashFamily(k=ways, m_bits=bits, seed=seed)
        self._rng = random.Random(seed ^ 0xB100F)
        self._rand = self._rng.random  # bound once: called on every access
        self._rates = self.family.rates
        # registration-ordered: the sampled victim walk iterates this —
        # set iteration would make the chosen victim depend on object
        # addresses and differ run to run
        self._live: Dict = {}
        #: running sum of per-live-task false-positive rates (read+write sigs)
        self._fp_sum = 0.0
        #: spurious conflicts generated, for stats
        self.false_positives = 0
        #: live tasks examined by victim sampling
        #: (profiling; folded into metrics only under `repro profile`)
        self.probe_steps = 0

    # ------------------------------------------------------------------
    def register(self, owner) -> None:
        self._live[owner] = None
        g = self._live_gauge
        if g is not None and len(self._live) > g.value:
            g.value = len(self._live)
        owner.sig_read = BloomSignature(self.family)
        owner.sig_write = BloomSignature(self.family)
        owner._fp_cached = 0.0

    def unregister(self, owner) -> None:
        if owner in self._live:
            del self._live[owner]
            self._fp_sum -= owner._fp_cached
            if self._fp_sum < 0:
                self._fp_sum = 0.0

    def note_access(self, owner, line: int, is_write: bool) -> None:
        sig = owner.sig_write if is_write else owner.sig_read
        if not sig.insert(line):
            # no new bits set: both fills — and therefore the pair rate —
            # are exactly what the last access computed, so the running
            # sum is already correct (the delta would be a literal +0.0)
            return
        # probability an unrelated access false-hits either signature
        rates = self._rates
        fr = rates[owner.sig_read._popcount]
        fw = rates[owner.sig_write._popcount]
        new_fp = fr + fw - fr * fw
        self._fp_sum += new_fp - owner._fp_cached
        owner._fp_cached = new_fp

    # ------------------------------------------------------------------
    def false_conflict(self, owner, line: int, is_write: bool):
        if len(self._live) <= 1:
            return None
        # Expected spurious hits for this access is the sum of the other
        # live tasks' false-positive rates; sample one Bernoulli draw with
        # that mean (clamped), then pick the victim weighted by rate.
        p = self._fp_sum - owner._fp_cached
        if p <= 0.0:
            return None
        if self._rand() >= (p if p < 1.0 else 1.0):
            return None
        pick = self._rand() * p
        acc = 0.0
        chosen = None
        for other in self._live:
            self.probe_steps += 1
            # A task with an empty (zero-rate) signature cannot falsely
            # match anything; skipping it keeps float drift in the running
            # sums (and a pick of exactly 0.0) from electing an impossible
            # victim at the boundaries of the weighted walk.
            if other is owner or other._fp_cached <= 0.0:
                continue
            acc += other._fp_cached
            chosen = other
            if acc >= pick:
                break
        if chosen is not None:
            self.false_positives += 1
        return chosen

    @property
    def live_count(self) -> int:
        return len(self._live)


def make_conflict_model(mode: str, *, bits: int = 2048, ways: int = 8,
                        seed: int = 0) -> ConflictPolicy:
    """Factory used by the simulator (``config.conflict_mode``)."""
    if mode == "precise":
        return PreciseConflictModel()
    if mode == "bloom":
        return BloomConflictModel(bits=bits, ways=ways, seed=seed)
    raise ValueError(f"unknown conflict mode {mode!r}")
