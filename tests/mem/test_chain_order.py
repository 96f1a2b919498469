"""The writer-chain order that SpecMemory's tail-first conflict check
relies on.

``SpecMemory.load`` and ``store`` walk a line's writer chain for later-VT
victims only when the chain's tail is a later writer: a tail that is the
accessor, or precedes it, means no writer in the chain is later. That is
sound only while every chain lists its writers in VT order, so that its
tail holds the latest key. These tests check the order after every store
of randomized runs: random nested programs, mis on random graphs and
hardware seeds, a zoomtree whose nodes also count into shared lines, with
zoom-ins (which rewrite every live VT), and a ``tiebreaker_bits=14`` mis
run whose tiebreakers wrap around and compact.

Keys in a chain are strictly increasing, except after a compaction: it
zeroes saturated final tiebreakers, and saturated finished tasks that tie
with the earliest live key are not aborted, so two of them can share key
``(0,)``. The tail still holds the latest key, which is all the check
needs, so the compaction run asserts non-decreasing order.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Ordering, Simulator, SystemConfig
from repro.apps import mis

from ..core.test_properties import _build, _program


def watch_chains(sim, strict=True):
    """Check every line's writer chain after each store ``sim`` makes:
    keys strictly increasing, or non-decreasing when not ``strict``.
    Returns a one-item list counting the stores checked."""
    mem = sim.memory
    store = mem.store
    n_stores = [0]

    def checked_store(owner, addr, value):
        store(owner, addr, value)
        n_stores[0] += 1
        for line, chain in mem._line_writers.items():
            keys = [w.order_key for w in chain]
            assert all(a < b if strict else a <= b
                       for a, b in zip(keys, keys[1:])), (
                f"store #{n_stores[0]} left line {line}'s writer chain out "
                f"of VT order: {chain}")

    mem.store = checked_store
    return n_stores


def run_app(app, inp, cores, strict=True, **config):
    sim = Simulator(SystemConfig.with_cores(cores, **config),
                    root_ordering=app.root_ordering("fractal"))
    handles = app.build(sim, inp, variant="fractal")
    n_stores = watch_chains(sim, strict)
    stats = sim.run(max_cycles=10_000_000)
    app.check(handles, inp)
    assert n_stores[0] > 0
    return stats


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=_program, n_cores=st.sampled_from([4, 16]),
       seed=st.integers(min_value=0, max_value=3))
def test_random_programs_keep_chains_in_vt_order(program, n_cores, seed):
    sim = Simulator(SystemConfig.with_cores(n_cores, seed=seed))
    arr = sim.array("arr", 12 * 8)
    _build(sim, program, arr)
    watch_chains(sim)
    sim.run(max_cycles=30_000_000)
    sim.audit()


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph_seed=st.integers(min_value=1, max_value=10_000),
       seed=st.integers(min_value=0, max_value=3))
def test_mis_keeps_chains_in_vt_order(graph_seed, seed):
    stats = run_app(mis, mis.make_input(scale=6, edge_factor=5,
                                        seed=graph_seed), 16, seed=seed)
    assert stats.tasks_aborted > 0


@pytest.mark.parametrize("seed", [0, 1])
def test_zoomtree_zoom_ins_keep_chains_in_vt_order(seed):
    """zoomtree's tree (one unordered subdomain per node, six levels in a
    two-level VT budget), with every node also counting into one of 16
    words on two shared lines: the zoomtree app gives each node a line of
    its own, so its chains never hold two writers."""
    fanout, depth = 3, 6
    sim = Simulator(SystemConfig.with_cores(8, vt_bits=64, seed=seed))
    counts = sim.array("counts", 16)

    def node(ctx, idx, level):
        ctx.compute(200)
        counts.add(ctx, idx % 16, 1)
        if level + 1 < depth:
            ctx.create_subdomain(Ordering.UNORDERED)
            for k in range(fanout):
                ctx.enqueue_sub(node, idx * fanout + k + 1, level + 1)

    sim.enqueue_root(node, 0, 0)
    n_stores = watch_chains(sim)
    stats = sim.run(max_cycles=10_000_000)
    sim.audit()
    assert sum(counts.peek(i) for i in range(16)) == sum(
        fanout ** level for level in range(depth))
    assert stats.zoom_ins > 0 and stats.tasks_aborted > 0
    assert n_stores[0] > 0


def test_tiebreaker_compaction_keeps_chains_in_vt_order():
    stats = run_app(mis, mis.make_input(scale=7, edge_factor=5), 16,
                    strict=False, tiebreaker_bits=14)
    assert stats.tiebreaker_wraparounds > 0
