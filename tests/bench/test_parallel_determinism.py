"""Parallel sweeps must be indistinguishable from serial ones.

Same seed, same specs: ``sweep_cores(..., farm=Farm(jobs=4))`` has to
produce the same RunStats digests *and* the same rendered table text as
the default inline farm,
for more than one application — the determinism contract behind every
farm-produced figure.
"""

import pytest

from repro.apps import mis, msf
from repro.apps.pbbs import spanning
from repro.bench.harness import sweep_cores
from repro.bench.report import speedup_table
from repro.farm.farm import Farm
from repro.farm.job import stable_digest

CORES = (1, 4)


def digests(runs):
    return [stable_digest(r.stats.to_dict()) for r in runs]


@pytest.mark.parametrize("app,variants,input_kwargs", [
    (mis, ("flat", "fractal"), dict(scale=5, seed=1)),
    (msf, ("fractal",), dict(scale=5, seed=3)),
    (spanning, ("specfor",), dict(scale=5, edge_factor=3, seed=5)),
], ids=["mis", "msf", "spanning"])
def test_parallel_sweep_matches_serial(app, variants, input_kwargs):
    inp = app.make_input(**input_kwargs)
    serial = sweep_cores(app, inp, variants, CORES)
    parallel = sweep_cores(app, app.make_input(**input_kwargs),
                           variants, CORES, farm=Farm(jobs=4))
    assert digests(serial) == digests(parallel)
    # the rendered artifact must be byte-identical, not just "equal stats"
    table_s = speedup_table(serial, baseline_variant=variants[0])
    table_p = speedup_table(parallel, baseline_variant=variants[0])
    assert table_s == table_p
    assert (len(serial) == len(parallel)
            == len(variants) * len(CORES))
