"""Zooming: unbounded nesting over a bounded VT budget (paper Sec. 4.3).

When a task wants to create a subdomain but its fractal VT has no bits
left, the system *zooms in*: it waits until the base-domain task sharing
the requester's base domain VT commits, aborts and spills every remaining
base-domain task to an in-memory stack (recursively squashing their
subdomains, Fig. 13b), and then shifts the common base domain VT out of
every live fractal VT, freeing bits (Fig. 13d). *Zooming out* reverses the
process when a base-domain task enqueues to its (parked) superdomain, or
when the zoomed-in region drains.

All of this reuses the ordinary spill machinery; speculative state is never
spilled — speculative base tasks are aborted first, exactly as the paper
prescribes.

The paper places zoom arbitration and the small stack of saved
base-domain timestamps in the GVT arbiter; here both live in
:class:`ZoomController`, whose :class:`ZoomFrame` stack is that base
stack (:mod:`repro.arch.gvt` only paces the GVT ticks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..errors import SimulationError
from ..telemetry.events import ZoomEvent
from ..vt import DomainVT
from .task import WAIT_ZOOM
from ..arch.spill import SpillBuffer


@dataclass
class ZoomRequest:
    direction: str          # "in" | "out"
    task: object            # the parked (WAIT_ZOOM) requester
    needed_bits: int = 0    # for zoom-in: bits the new subdomain VT needs


#: sentinel: the active live set has not been scanned in this pass
_UNSCANNED = object()


class ZoomFrame:
    """One zoomed-out base domain: its spilled tasks, saved base level,
    and the task whose zoom-in pushed it."""

    __slots__ = ("buffer", "base", "requester")

    def __init__(self, tasks: List, base: DomainVT, requester):
        self.buffer = SpillBuffer(tasks, is_zoom=True)
        self.base = base
        self.requester = requester

    def __repr__(self) -> str:
        return (f"ZoomFrame({self.base.ordering.value}, "
                f"ts={self.base.timestamp}, {len(self.buffer)} spilled)")


class ZoomController:
    """Serializes zoom-in/zoom-out operations for one simulator and keeps
    its stack of zoomed-out base domains."""

    def __init__(self, sim):
        self.sim = sim
        self.frames: List[ZoomFrame] = []
        self.requests: List[ZoomRequest] = []
        self.zoom_ins = 0
        self.zoom_outs = 0
        # min order key over the active live set for the current
        # process() pass; _UNSCANNED until needed, reset by every release
        # or zoom (the only steps inside a pass that move a live key)
        self._min_key = _UNSCANNED

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of zoom frames currently on the stack."""
        return len(self.frames)

    def park(self, task, direction: str, needed_bits: int = 0) -> None:
        """Register a request for an already-parked (WAIT_ZOOM) task."""
        self.requests.append(ZoomRequest(direction, task, needed_bits))

    def drop_request(self, task) -> None:
        """Remove a parked task's outstanding zoom request."""
        self.requests = [r for r in self.requests if r.task is not task]

    # ------------------------------------------------------------------
    def process(self) -> None:
        """Attempt every outstanding request (called from the GVT tick)."""
        self._min_key = _UNSCANNED
        for req in list(self.requests):
            task = req.task
            if task.state is not WAIT_ZOOM:
                self.drop_request(task)  # squashed meanwhile
                continue
            if req.direction == "in":
                self._try_zoom_in(req)
            else:
                self._try_zoom_out(req)
        # Auto zoom-out: the zoomed-in region drained with outer work
        # parked (possibly several empty frames if spilled tasks were
        # squashed meanwhile).
        while self.frames and not self._any_active():
            self.zoom_out()

    def _any_active(self) -> bool:
        """Whether any live task is active (not zoom-parked): the pass's
        minimum when it is already scanned, else a scan that stops at the
        first active task."""
        if self._min_key is _UNSCANNED:
            return self.sim._any_active_live()
        return self._min_key is not None

    def _min_active_key(self) -> Optional[tuple]:
        """Lowest order key over the active (not zoom-parked) live tasks,
        None when there are none; scanned at most once between changes.

        Requesters are active themselves, which is harmless: a zoom-in
        requester's key strictly exceeds its base prefix, and a zoom-out
        requester's key is not below itself, so "some *other* task is at
        or before X" equals "the minimum is at or before X" for both
        checks below.
        """
        if self._min_key is _UNSCANNED:
            self._min_key = min((t.order_key for t in self.sim._active_live()),
                                default=None)
        return self._min_key

    # ------------------------------------------------------------------
    def _try_zoom_in(self, req: ZoomRequest) -> None:
        sim = self.sim
        task = req.task
        vt = task.vt
        if vt.bits + req.needed_bits <= sim.vt_budget:
            # An earlier zoom already freed enough bits.
            self._release(req)
            return
        if vt.depth == 1:
            raise SimulationError(
                f"zoom-in requested by base-domain task {task}: vt_bits="
                f"{sim.vt_budget} cannot hold two nesting levels of this "
                f"shape; increase vt_bits")
        # Wait until the base-domain task that shares our base domain VT
        # commits: then nothing at or before that VT is still live.
        if self._min_active_key() <= vt.base_key:
            return
        self.zoom_in(task)
        self._release(req)

    def _try_zoom_out(self, req: ZoomRequest) -> None:
        task = req.task
        if task.vt.depth > 1:
            # A zoom-out already happened; the superdomain is reachable.
            self._release(req)
            return
        if not self.frames:
            raise SimulationError(
                f"zoom-out requested by {task} with an empty zoom stack")
        if self.frames[-1].requester is task:
            # It zoomed in for a deeper level and now needs the shallower
            # one too: three levels at once, which would zoom in and out
            # forever.
            raise SimulationError(
                f"zoom-out requested by {task}, whose own zoom-in pushed the "
                f"top zoom frame: vt_bits={self.sim.vt_budget} cannot hold "
                f"its subdomain and its superdomain at once; increase "
                f"vt_bits")
        if self._min_active_key() < task.order_key:
            return
        self.zoom_out()
        self._release(req)

    def _release(self, req: ZoomRequest) -> None:
        self.drop_request(req.task)
        self.sim._zoom_release(req.task)  # requeue: a fresh lower bound
        self._min_key = _UNSCANNED

    # ------------------------------------------------------------------
    def zoom_in(self, requester) -> None:
        """Spill the base domain and shift it out of every live VT."""
        sim = self.sim
        base = requester.vt.base
        base_key = requester.vt.base_key

        # 1. Abort speculative base-domain tasks (recursively eliminating
        #    their descendants, Fig. 13b). Requester is depth >= 2 and not
        #    a descendant of any live base task, so it survives.
        spec_base = [t for t in sim._active_live()
                     if t.vt.depth == 1 and t.is_speculative]
        if spec_base:
            sim._abort_cascade(spec_base, "zoom-in spill")

        # 2. Spill every (now non-speculative) base-domain task (Fig. 13c).
        victims = [t for t in sim._active_live() if t.vt.depth == 1]
        for t in victims:
            sim._unqueue(t)
        self.frames.append(ZoomFrame(victims, base, requester))
        self.zoom_ins += 1

        # 3. The outermost subdomain becomes the base (Fig. 13d): every
        #    remaining task shares the requester's base domain VT; shift
        #    it out.
        for t in sim._active_live():
            if t.vt.base_key != base_key:
                raise SimulationError(
                    f"zoom-in: live task {t} does not share base VT "
                    f"{base_key!r}")
            t.vt = t.vt.drop_base()
        sim._rebuild_queues()
        self._min_key = _UNSCANNED
        if sim._ebus is not None:
            sim._ebus.emit(ZoomEvent(sim.now, "in", len(self.frames),
                                     len(victims)))

    def zoom_out(self) -> None:
        """Restore the most recently spilled base domain."""
        sim = self.sim
        frame = self.frames.pop()
        self.zoom_outs += 1
        # Right-shift every live VT, prepending the restored base domain VT
        # with a zero tiebreaker: the zoomed region holds all the earliest
        # active tasks, so this changes no order relations.
        for t in sim._active_live():
            t.vt = t.vt.with_base(frame.base)
        n_restored = sim._restore(frame.buffer)
        sim._rebuild_queues()
        self._min_key = _UNSCANNED
        if sim._ebus is not None:
            sim._ebus.emit(ZoomEvent(sim.now, "out", len(self.frames),
                                     n_restored))
