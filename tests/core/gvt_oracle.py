"""Reference GVT: a linear scan over the live set (test oracle).

The simulator answers GVT queries from the incremental
:class:`~repro.arch.gvt.GvtFrontier`; this scan is the definition it must
match on every tick.
"""

from repro.core.simulator import Simulator
from repro.core.task import TaskState


def gvt_linear(sim, now_lb):
    """Minimum GVT bound over ``sim``'s live tasks, or None.

    Running tasks bound the GVT by their full key; pending, zoom-waiting
    and (non-zoom) spilled tasks by their stripped key, the final
    tiebreaker tightened to ``now_lb``. The bound must be applied per
    task: tasks at different depths splice the fresh tiebreaker at
    different key positions, so min(stripped) is not stripped(min) — a
    pending subdomain task whose ancestor prefix is old can be earlier
    than every shallow one. Finished tasks and zoom-parked outer domains
    do not bound the GVT.
    """
    best = None
    for task in sim._live:
        state = task.state
        if state is TaskState.RUNNING:
            key = task.order_key
        elif (state is TaskState.PENDING or state is TaskState.WAIT_ZOOM
              or (state is TaskState.SPILLED
                  and not task.spill_buffer.is_zoom)):
            key = task.order_key[:-1] + (now_lb,)
        else:
            continue
        if best is None or key < best:
            best = key
    return best


class CheckedSimulator(Simulator):
    """A simulator that checks every GVT query against :func:`gvt_linear`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gvt_checks = 0

    def _compute_gvt(self):
        best = super()._compute_gvt()
        ref = gvt_linear(self, self.alloc.lower_bound(self.now))
        assert best == ref, (
            f"GVT frontier diverged at cycle {self.now}: "
            f"indexed={best!r} linear={ref!r}")
        self.gvt_checks += 1
        return best
