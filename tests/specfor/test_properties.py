"""Property tests: deterministic reservations equal the sequential loop.

Hypothesis generates random conflict graphs (each iteration claims a
random cavity of cells) and random round policies; the round-based
oracle loop must always produce the same final state as running the loop
sequentially in index order, finish every iteration exactly once, and
never drop or duplicate an index across keep/pack carry-overs. The
production :class:`~repro.specfor.DomainSpecFor` must reach that same
final state on the simulator.
"""

from hypothesis import given, settings, strategies as st

from repro import Simulator, SystemConfig
from repro.specfor import DomainSpecFor, SpecForPolicy

from .engine_oracle import sequential_for, speculative_for
from .test_adapter import ClaimStep
from .test_engine import CavityStep, greedy_reference

_N_CELLS = 8

_cavity = st.lists(st.integers(min_value=0, max_value=_N_CELLS - 1),
                   min_size=1, max_size=4, unique=True).map(tuple)

_cavities = st.lists(_cavity, min_size=0, max_size=24)

_policy = st.builds(
    SpecForPolicy,
    granularity=st.integers(min_value=1, max_value=10),
    throttle_after=st.just(2),
    serialize_after=st.just(4),
    max_tries=st.just(64),
)


@settings(max_examples=120, deadline=None)
@given(cavities=_cavities, policy=_policy)
def test_rounds_equal_sequential_loop(cavities, policy):
    n = len(cavities)
    spec = CavityStep(cavities, _N_CELLS)
    out = speculative_for(spec, n, policy=policy)

    seq = CavityStep(cavities, _N_CELLS)
    seq_commits = sequential_for(seq, n)

    assert spec.success == seq.success
    assert spec.owner == seq.owner
    assert out.done == n
    assert out.commits == seq_commits
    # oracle of the oracle: the plain greedy loop agrees too
    assert (spec.success, spec.owner) == greedy_reference(cavities, _N_CELLS)


@settings(max_examples=120, deadline=None)
@given(cavities=_cavities, policy=_policy)
def test_done_is_monotone_and_exact(cavities, policy):
    n = len(cavities)
    records = []
    out = speculative_for(CavityStep(cavities, _N_CELLS), n,
                          policy=policy, observer=records.append)
    dones = [r.done for r in records]
    assert dones == sorted(dones)
    if n:
        assert dones[-1] == n
    # every round's done increment equals what the round finished
    prev = 0
    for r in records:
        assert r.done - prev == r.committed + r.filtered
        assert r.done > prev  # well-formed steps always progress
        prev = r.done
    assert out.commits + out.filtered == n


@settings(max_examples=120, deadline=None)
@given(cavities=_cavities, policy=_policy)
def test_keep_pack_never_drops_or_duplicates(cavities, policy):
    n = len(cavities)
    records = []
    speculative_for(CavityStep(cavities, _N_CELLS), n,
                    policy=policy, observer=records.append)
    finished = []
    carried_prev = ()
    fresh_cursor = 0
    for r in records:
        # the batch is exactly: last round's carry-pool prefix (a
        # shrunken ladder rung may defer the rest), then fresh indices
        j = len(r.batch) - r.fresh
        fresh = tuple(range(fresh_cursor, fresh_cursor + r.fresh))
        assert r.batch == carried_prev[:j] + fresh
        assert len(set(r.batch)) == len(r.batch)
        fresh_cursor += r.fresh
        # next pool = this batch's losers, then the deferred tail
        in_next = set(r.carried)
        losers = tuple(i for i in r.batch if i in in_next)
        assert r.carried == losers + carried_prev[j:]
        finished.extend(i for i in r.batch if i not in in_next)
        carried_prev = r.carried
    assert sorted(finished) == list(range(n))
    assert carried_prev == ()


@settings(max_examples=60, deadline=None)
@given(cavities=_cavities, granularity=st.integers(min_value=1, max_value=10),
       cores=st.sampled_from([1, 4, 8]))
def test_domain_specfor_equals_sequential_loop(cavities, granularity, cores):
    """The production engine, on the simulator, over random conflict
    graphs: the same final state as the sequential oracle and greedy."""
    n = len(cavities)
    sim = Simulator(SystemConfig.with_cores(cores))
    step = ClaimStep(sim, cavities, _N_CELLS)
    DomainSpecFor(sim, "t", step, n,
                  policy=SpecForPolicy(granularity=granularity)
                  ).enqueue_driver(sim)
    sim.run()
    sim.audit()

    seq = CavityStep(cavities, _N_CELLS)
    sequential_for(seq, n)
    got = (step.success.snapshot()[:n], step.owner.snapshot())
    assert got == (seq.success, seq.owner)
    assert got == greedy_reference(cavities, _N_CELLS)
