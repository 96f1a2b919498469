"""RunStats serialization must be lossless and picklable.

The repro.farm cache and worker pool both depend on it: cached results
are rebuilt with ``from_dict(to_dict(s))`` and pool results cross a
process boundary via pickle. Any field that doesn't round trip would
silently desynchronize parallel sweeps from serial ones.
"""

import json
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stats import CycleBreakdown, RunStats

counts = st.integers(min_value=0, max_value=2**40)

breakdowns = st.builds(CycleBreakdown, committed=counts, aborted=counts,
                       spill=counts, stall=counts, empty=counts)

failures = st.one_of(
    st.none(),
    st.fixed_dictionaries({"limit": st.sampled_from(
        ["max_cycles", "wall_clock", "livelock"]),
        "cycle": counts,
        "tasks_left": counts}))

stats_objects = st.builds(
    RunStats,
    name=st.text(min_size=1, max_size=20),
    n_cores=st.integers(min_value=1, max_value=1024),
    makespan=counts,
    breakdown=breakdowns,
    tasks_committed=counts, tasks_aborted=counts, tasks_squashed=counts,
    tasks_spilled=counts, enqueues=counts,
    domains_created=counts, domains_flattened=counts,
    max_depth=st.integers(min_value=1, max_value=64),
    true_conflicts=counts, false_positive_conflicts=counts,
    faults_injected=counts, exec_fault_retries=counts,
    backoff_requeues=counts, safe_mode_entries=counts,
    zoom_ins=counts, zoom_outs=counts,
    tiebreaker_wraparounds=counts, gvt_ticks=counts,
    cache=st.dictionaries(st.sampled_from(
        ["hits", "misses", "evictions", "spills"]), counts, max_size=4),
    failure=failures)


@settings(max_examples=200, deadline=None)
@given(stats_objects)
def test_dict_roundtrip_is_lossless(stats):
    assert RunStats.from_dict(stats.to_dict()) == stats


@settings(max_examples=100, deadline=None)
@given(stats_objects)
def test_json_roundtrip_is_lossless(stats):
    wire = json.dumps(stats.to_dict(), sort_keys=True)
    assert RunStats.from_dict(json.loads(wire)) == stats


@settings(max_examples=100, deadline=None)
@given(stats_objects)
def test_pickle_roundtrip_is_lossless(stats):
    assert pickle.loads(pickle.dumps(stats)) == stats


@settings(max_examples=100, deadline=None)
@given(stats_objects)
def test_digest_stable_across_roundtrip(stats):
    from repro.farm.job import stable_digest
    rebuilt = RunStats.from_dict(json.loads(json.dumps(stats.to_dict())))
    assert stable_digest(rebuilt.to_dict()) == stable_digest(stats.to_dict())


def test_completed_tracks_failure_field():
    assert RunStats().completed
    partial = RunStats(failure={"limit": "wall_clock", "cycle": 10})
    assert not partial.completed
    assert not RunStats.from_dict(partial.to_dict()).completed
