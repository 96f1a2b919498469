"""Tests for the conflict-detection models (Bloom vs precise)."""

import pytest

from repro.mem.conflicts import (
    BloomConflictModel,
    PreciseConflictModel,
    make_conflict_model,
)

from .conftest import FakeOwner


def attach(model, key):
    o = FakeOwner((key,))
    o.read_lines = set()
    o.write_lines = set()
    model.register(o)
    return o


class TestPrecise:
    def test_never_false_conflicts(self):
        model = PreciseConflictModel()
        a, b = attach(model, 1), attach(model, 2)
        for line in range(1000):
            model.note_access(a, line, is_write=True)
            assert model.false_conflict(b, line + 5000, is_write=True) is None

    def test_live_tracking(self):
        model = PreciseConflictModel()
        a = attach(model, 1)
        assert model.live_count == 1
        model.unregister(a)
        assert model.live_count == 0


class TestBloomSampled:
    def test_no_false_conflicts_with_tiny_footprints(self):
        model = BloomConflictModel(bits=2048, ways=8, seed=1)
        a, b = attach(model, 1), attach(model, 2)
        for line in range(4):
            model.note_access(a, line, is_write=True)
        hits = sum(model.false_conflict(b, 10_000 + i, True) is not None
                   for i in range(2000))
        assert hits == 0

    def test_saturated_signature_conflicts_constantly(self):
        model = BloomConflictModel(bits=256, ways=4, seed=1)
        a, b = attach(model, 1), attach(model, 2)
        for line in range(3000):
            model.note_access(a, line, is_write=True)
        hits = sum(model.false_conflict(b, 10**6 + i, True) is not None
                   for i in range(200))
        assert hits > 150
        assert model.false_positives == hits

    def test_alone_never_conflicts(self):
        model = BloomConflictModel(seed=1)
        a = attach(model, 1)
        for line in range(5000):
            model.note_access(a, line, is_write=True)
        assert model.false_conflict(a, 42, True) is None

    def test_unregister_removes_fp_mass(self):
        model = BloomConflictModel(bits=256, ways=4, seed=1)
        a, b = attach(model, 1), attach(model, 2)
        for line in range(3000):
            model.note_access(a, line, is_write=True)
        model.unregister(a)
        hits = sum(model.false_conflict(b, 10**6 + i, True) is not None
                   for i in range(500))
        assert hits == 0


class TestBloomExact:
    def test_exact_probe_finds_aliases(self):
        model = BloomConflictModel(bits=64, ways=2, seed=1, exact=True)
        a, b = attach(model, 1), attach(model, 2)
        for line in range(500):
            model.note_access(a, line, is_write=True)
            a.write_lines.add(line)
        # some unseen line must alias in a 64-bit filter with 500 lines
        hits = sum(model.false_conflict(b, 10**6 + i, True) is not None
                   for i in range(50))
        assert hits > 0

    def test_exact_probe_excludes_true_hits(self):
        model = BloomConflictModel(bits=2048, ways=8, seed=1, exact=True)
        a, b = attach(model, 1), attach(model, 2)
        model.note_access(a, 7, is_write=True)
        a.write_lines.add(7)
        # touching the truly-written line is a true conflict, not false
        assert model.false_conflict(b, 7, True) is None


class ForcedRandom:
    """Deterministic rng stub: returns queued draws, then raises."""

    def __init__(self, draws):
        self._draws = list(draws)

    def random(self):
        return self._draws.pop(0)


class TestGaugeParity:
    def test_register_unregister_parity(self):
        # Both models must drive the peak-live gauge identically for the
        # same register/unregister sequence (including double-unregister,
        # which must not underflow the peak).
        traces = []
        for model in (PreciseConflictModel(), BloomConflictModel(seed=1)):
            gauge = type("G", (), {"value": 0})()
            model._live_gauge = gauge
            trace = []
            a, b, c = (attach(model, k) for k in (1, 2, 3))
            trace.append(gauge.value)
            model.unregister(b)
            model.unregister(b)  # idempotent
            trace.append((gauge.value, model.live_count))
            d = attach(model, 4)
            trace.append((gauge.value, model.live_count))
            for o in (a, c, d):
                model.unregister(o)
            trace.append((gauge.value, model.live_count))
            traces.append(trace)
        assert traces[0] == traces[1]
        assert traces[0][-1] == (3, 0)  # peak sticks, live drains


class TestBloomVictimSelection:
    def test_zero_rate_task_never_elected_victim(self):
        # Regression: the weighted victim walk used to assign `chosen`
        # before checking the candidate's rate, so float drift in the
        # running fp sum (or a pick of exactly 0.0) could elect a task
        # with *empty* signatures — one that cannot alias anything.
        model = BloomConflictModel(bits=2048, ways=8, seed=1)
        owner = attach(model, 1)
        attach(model, 2)  # never accesses anything: zero-rate signatures
        model.note_access(owner, 5, is_write=True)
        # Simulate running-sum drift: _fp_sum a hair above owner's own
        # cached rate even though every other live task is empty.
        model._fp_sum = owner._fp_cached + 1e-9
        model._rng = ForcedRandom([0.0, 0.0])  # pass Bernoulli; pick = 0.0
        model._rand = model._rng.random  # hot paths bind .random once
        assert model.false_conflict(owner, 999, True) is None
        assert model.false_positives == 0

    def test_victim_walk_follows_registration_order(self):
        # Regression: _live used to be a set, so the weighted walk (and
        # the exact probe) iterated live tasks in object-address order —
        # the elected victim differed from run to run of the same seed
        # (the 256b column of bench_ablation_conflict was observably
        # nondeterministic). With registration-ordered iteration and a
        # pick of 0.0, the victim must be the first-registered candidate.
        model = BloomConflictModel(bits=2048, ways=8, seed=1)
        owner = attach(model, 0)
        others = [attach(model, k) for k in range(1, 41)]
        for i, o in enumerate(others):
            model.note_access(o, 1000 + i, is_write=True)
        model._rng = ForcedRandom([0.0, 0.0])  # pass Bernoulli; pick = 0.0
        model._rand = model._rng.random  # hot paths bind .random once
        assert model.false_conflict(owner, 999, True) is others[0]

    def test_exact_and_sampled_agree_on_who_must_die(self):
        # With one saturated task and one empty task live, both probing
        # modes must only ever elect the saturated one: an empty signature
        # cannot falsely match, so "who must die" never names it.
        for exact in (False, True):
            model = BloomConflictModel(bits=128, ways=2, seed=3, exact=exact)
            sat, empty, prober = (attach(model, k) for k in (1, 2, 3))
            for line in range(2000):
                model.note_access(sat, line, is_write=True)
            victims = {model.false_conflict(prober, 10**6 + i, True)
                       for i in range(300)}
            victims.discard(None)
            assert victims == {sat}, f"exact={exact}"


class TestFactory:
    def test_factory_modes(self):
        assert isinstance(make_conflict_model("precise"), PreciseConflictModel)
        assert isinstance(make_conflict_model("bloom"), BloomConflictModel)
        with pytest.raises(ValueError):
            make_conflict_model("magic")


def pinned_accesses(n):
    """(owner index, line, is_write): fresh lines, repeats, keys > 2**48."""
    for i in range(n):
        line = (i * 0x9E3779B1) % 5003
        if i % 7 == 0:
            line += (i + 1) << 49
        yield i % 3, line, i % 4 == 0


def victim_string(model, owners, n, stride):
    """Ask for a false conflict n times; one char per call ('.' = none)."""
    out = []
    for i in range(n):
        v = model.false_conflict(owners[i % 3], 10**7 + i * stride,
                                 i % 2 == 0)
        out.append("." if v is None else str(owners.index(v)))
    return "".join(out)


class TestPinnedFloats:
    """Running rates and victims are bit-pinned: ``_fp_sum`` feeds seeded
    RNG draws, so any change to how a rate is computed (or in which order
    its floats combine) shows up here before it shifts a RunStats digest."""

    SAMPLED_VICTIMS = (
        ".0.22..0...1......2.....1.....1.1..02.0.2.1......................."
        "1.1..11.020..0..00.21..0....2...1.0.20......1.......0..........221"
        "20.....2.2...0...0.2..0.2.0.0.1.......0..1...2..1.1...........020."
        ".0...0...10...1.21...1.....2.1....0..0..2.1...2..20.....0..120...."
        "...1...2.1..2..20.22..211...0......1....0........0.2..2202.0....0."
        ".20..0....21..1.2......11.....2...211..........0.....11.12..20..0."
        "..0.")
    EXACT_VICTIMS = (
        "......1...2...0.......2.........0.2...1...12............0........."
        "..........0.......................0.22..........1...............2."
        "......2...2.......................21............2.0.......2.1...2."
        "............2.1.........1...............0.....2.2.0.............2."
        "..0.............0.......2...2...0...")

    def test_sampled_rates_and_victims(self):
        model = BloomConflictModel(bits=2048, ways=8, seed=1)
        owners = [attach(model, k) for k in range(3)]
        for j, line, w in pinned_accesses(1500):
            model.note_access(owners[j], line, w)
        assert model._fp_sum.hex() == "0x1.d33f7d05f62f5p-2"
        assert [o._fp_cached.hex() for o in owners] == [
            "0x1.515c6bc91b27dp-3", "0x1.3adf72e1bcd37p-3",
            "0x1.1a431b611462ep-3"]
        assert victim_string(model, owners, 400, 1) == self.SAMPLED_VICTIMS

    def test_exact_victims(self):
        model = BloomConflictModel(bits=256, ways=4, seed=1, exact=True)
        owners = [attach(model, k) for k in range(3)]
        for j, line, w in pinned_accesses(240):
            model.note_access(owners[j], line, w)
            (owners[j].write_lines if w else owners[j].read_lines).add(line)
        assert victim_string(model, owners, 300, 3) == self.EXACT_VICTIMS
        assert model.false_positives == 38
        assert model._fp_sum.hex() == "0x1.cdcb8a7985c6cp-2"
