"""The incremental GVT frontier equals the linear-scan oracle on every tick."""

import pytest

from repro.apps import mis, zoomtree
from repro.config import SystemConfig
from repro.core.simulator import Simulator

from .gvt_oracle import CheckedSimulator


def _run(sim_cls, app, inp, cores, **config):
    sim = sim_cls(SystemConfig.with_cores(cores, **config),
                  root_ordering=app.root_ordering("fractal"))
    handles = app.build(sim, inp, variant="fractal")
    stats = sim.run()
    app.check(handles, inp)
    return sim, stats


@pytest.mark.parametrize("app, inp, cores, config", [
    (zoomtree, dict(fanout=3, depth=6), 8, dict(vt_bits=64)),
    (mis, dict(scale=8, edge_factor=5), 64, {}),
], ids=["zoomtree-64bit", "mis-64c"])
def test_frontier_matches_linear_scan_every_tick(app, inp, cores, config):
    inp = app.make_input(**inp)
    sim, stats = _run(CheckedSimulator, app, inp, cores, **config)
    assert sim.gvt_checks == stats.gvt_ticks > 10
    if app is zoomtree:
        assert stats.zoom_ins > 0
    # the check observes without perturbing the run
    _, plain = _run(Simulator, app, inp, cores, **config)
    assert plain.to_dict() == stats.to_dict()
