"""The sampled false-positive model against the pairwise probe oracle.

``BloomConflictModel`` does not probe signatures: it draws one Bernoulli
sample per access from the sum of the other live tasks' occupancy rates
``(popcount / m) ** k``. These tests check that sample against what the
paper's hardware does (``bloom_oracle.exact_false_conflict``) on 8 live
tasks of 300 lines each, at the paper's 2048-bit 8-way size, and assert
the properties the model actually has: it bounds the exact hit rate from
above, and it does not tell loads from stores.
"""

import random

import pytest

from repro.mem.conflicts import BloomConflictModel

from .bloom_oracle import exact_false_conflict
from .conftest import FakeOwner

N_TASKS = 8
LINES_PER_TASK = 300
N_PROBES = 4000
SEED = 3


def footprints(kind, rng):
    """Per-task line sets: random 40-bit lines, or one contiguous block
    per task (H3 is linear, so a block's hashes fill banks unevenly)."""
    if kind == "random":
        return [[rng.getrandbits(40) for _ in range(LINES_PER_TASK)]
                for _ in range(N_TASKS)]
    return [range(t * LINES_PER_TASK, (t + 1) * LINES_PER_TASK)
            for t in range(N_TASKS)]


def live_tasks(is_write, kind="random"):
    """A model with one prober plus N_TASKS tasks that only store (or only
    load) their footprint; returns ``(model, prober)``."""
    model = BloomConflictModel(bits=2048, ways=8, seed=SEED)
    rng = random.Random(SEED)
    owners = [FakeOwner((k,)) for k in range(N_TASKS + 1)]
    for o in owners:
        o.read_lines, o.write_lines = set(), set()
        model.register(o)
    for o, lines in zip(owners[1:], footprints(kind, rng)):
        for line in lines:
            model.note_access(o, line, is_write)
            (o.write_lines if is_write else o.read_lines).add(line)
    return model, owners[0]


def hit_frequency(probe, tasks_store, access_is_write):
    """Fraction of N_PROBES fresh lines on which ``probe`` names a victim."""
    model, prober = live_tasks(tasks_store)
    rng = random.Random(SEED + 1)
    hits = sum(probe(model, prober, (1 << 41) | rng.getrandbits(40),
                     access_is_write) is not None
               for _ in range(N_PROBES))
    return hits / N_PROBES


def bank_product(sig):
    """The exact hit probability of a uniformly hashed key: the product
    of each bank's own fill."""
    fam = sig.family
    bank = (1 << fam.bank_bits) - 1
    product = 1.0
    for i in range(fam.k):
        fill = ((sig._bits >> (i * fam.bank_bits)) & bank).bit_count()
        product *= fill / fam.bank_bits
    return product


@pytest.mark.parametrize("kind", ["random", "contiguous"])
def test_rate_bounds_per_bank_product(kind):
    # (pc/m)**k is the mean bank fill to the k-th; by AM-GM it is at
    # least the product of the actual bank fills
    model, prober = live_tasks(True, kind)
    for task in model._live:
        if task is prober:
            continue
        sig = task.sig_write
        assert sig.false_positive_rate() >= bank_product(sig) * (1 - 1e-12)


@pytest.mark.parametrize("tasks_store,access_is_write", [
    (True, True), (False, True), (True, False)],
    ids=["store-vs-writers", "store-vs-readers", "load-vs-writers"])
def test_sampled_hits_bound_exact(tasks_store, access_is_write):
    # a store probes both signatures, so writers and readers alias alike;
    # a load probes write signatures only
    exact = hit_frequency(exact_false_conflict, tasks_store, access_is_write)
    sampled = hit_frequency(BloomConflictModel.false_conflict, tasks_store,
                            access_is_write)
    assert exact > 0.0
    assert sampled >= exact


@pytest.mark.xfail(strict=True, reason=(
    "false_conflict samples from each task's combined read+write rate "
    "even for a load, but a load only probes write signatures: loads "
    "against read-only tasks draw spurious aborts the pairwise probe "
    "never produces"))
def test_load_against_readers_matches_exact():
    exact = hit_frequency(exact_false_conflict, False, False)
    sampled = hit_frequency(BloomConflictModel.false_conflict, False, False)
    assert exact == 0.0
    assert sampled == exact
