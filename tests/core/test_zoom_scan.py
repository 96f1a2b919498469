"""Zoom requests share one live-set scan per GVT tick."""

from repro.apps import zoomtree
from repro.config import SystemConfig
from repro.core import zoom as zoom_mod
from repro.core.simulator import Simulator
from repro.core.task import TaskState
from repro.core.zoom import ZoomController
from repro.vt import FractalVT, Ordering

U = Ordering.UNORDERED


class _Task:
    def __init__(self, vt, state=TaskState.WAIT_ZOOM):
        self.vt = vt
        self.order_key = vt.key
        self.state = state


class _CountingSim:
    """The slice of the simulator a ZoomController reads, counting scans."""

    vt_budget = 64

    def __init__(self, live):
        self.live = live
        self.scans = 0

    def _active_live(self):
        self.scans += 1
        return list(self.live)


def test_parked_requests_share_one_scan():
    # a live base-domain task at or before the requesters' base level
    # keeps every zoom-in waiting
    blocker = _Task(FractalVT.root(U, 0, 5), TaskState.RUNNING)
    base = FractalVT.root(U, 0, 10)
    parked = [_Task(base.child_sub(U, 0, 20 + i)) for i in range(25)]
    sim = _CountingSim([blocker] + parked)
    ctl = ZoomController(sim)
    for t in parked:
        ctl.park(t, "in", 32)
    ctl.process()
    assert sim.scans == 1
    assert len(ctl.requests) == len(parked)  # none could proceed
    ctl.process()
    assert sim.scans == 2  # one per tick, not one per request


def test_drain_check_reuses_the_scanned_minimum():
    """With a frame open, each tick ends by asking whether any task is
    still active: the scan a request already made answers it, and with no
    request it stops at the first active task instead of listing them."""
    blocker = _Task(FractalVT.root(U, 0, 5), TaskState.RUNNING)
    requester = _Task(FractalVT.root(U, 0, 10).child_sub(U, 0, 20))
    sim = _CountingSim([blocker, requester])
    sim._any_active_live = lambda: True
    ctl = ZoomController(sim)
    ctl.frames.append(zoom_mod.ZoomFrame([], FractalVT.root(U, 0, 1).base,
                                         None))
    ctl.park(requester, "in", 32)
    ctl.process()
    assert sim.scans == 1 and ctl.frames   # one scan, no zoom-out
    ctl.drop_request(requester)
    ctl.process()
    assert sim.scans == 1 and ctl.frames   # no request: no full scan


class _RescanPerRequest(ZoomController):
    """The old behaviour: a fresh live-set scan for every check."""

    def _min_active_key(self):
        self._min_key = zoom_mod._UNSCANNED
        return super()._min_active_key()


def _zoomtree_stats(controller_cls):
    inp = zoomtree.make_input(fanout=3, depth=6)
    sim = Simulator(SystemConfig.with_cores(8, vt_bits=64),
                    root_ordering=zoomtree.root_ordering("fractal"))
    sim.zoom = controller_cls(sim)
    handles = zoomtree.build(sim, inp, variant="fractal")
    stats = sim.run()
    zoomtree.check(handles, inp)
    return stats


def test_shared_scan_leaves_runstats_unchanged():
    stats = _zoomtree_stats(ZoomController)
    assert stats.zoom_ins > 0
    assert stats.to_dict() == _zoomtree_stats(_RescanPerRequest).to_dict()
