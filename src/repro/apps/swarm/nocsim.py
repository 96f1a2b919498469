"""Swarm nocsim: cycle-by-cycle mesh network-on-chip simulation.

Packets traverse a K x K mesh with X-Y dimension-ordered routing, one hop
per simulated NoC cycle, arbitrating for *links*: each directed link
carries at most one packet per cycle (a per-(link, cycle) claim word), and
a packet that loses arbitration retries next cycle. Link-level arbitration
is deadlock-free — a link is a per-cycle resource, never held across
cycles — while still serializing packets through congested columns.

Timestamp = (cycle, packet id): packets arbitrate round-robin by id within
a cycle, making the simulation deterministic and exactly checkable against
a plain-Python replay.

This is a simulator *running inside* the architecture simulator — the
paper's nocsim benchmark is exactly such a self-hosted workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ...errors import AppError
from ...vt import Ordering
from ..common import require_variant


@dataclass
class NocInput:
    mesh: int
    packets: List[Tuple[int, int, int]]   # (inject cycle, src, dst)


def make_input(mesh: int = 4, n_packets: int = 24, seed: int = 25) -> NocInput:
    rng = random.Random(seed)
    n = mesh * mesh
    packets = []
    for _ in range(n_packets):
        src = rng.randrange(n)
        dst = rng.randrange(n)
        while dst == src:
            dst = rng.randrange(n)
        packets.append((rng.randrange(0, 8), src, dst))
    return NocInput(mesh, packets)


def _next_hop(mesh: int, cur: int, dst: int) -> int:
    """X-Y dimension-ordered routing."""
    cy, cx = divmod(cur, mesh)
    dy, dx = divmod(dst, mesh)
    if cx != dx:
        return cy * mesh + (cx + (1 if dx > cx else -1))
    return (cy + (1 if dy > cy else -1)) * mesh + cx


def _ts(cycle: int, packet: int, n_packets: int) -> int:
    return cycle * (n_packets + 1) + packet + 1


def reference(inp: NocInput) -> List[int]:
    """Plain replay with identical priorities; returns delivery cycles."""
    import heapq

    n_pkts = len(inp.packets)
    claimed = set()                      # (link-from, link-to, cycle)
    at = [None] * n_pkts
    delivered = [-1] * n_pkts
    events = [(_ts(c, p, n_pkts), p)
              for p, (c, _s, _d) in enumerate(inp.packets)]
    heapq.heapify(events)
    while events:
        ts, p = heapq.heappop(events)
        cycle = ts // (n_pkts + 1)
        _inject, src, dst = inp.packets[p]
        cur = src if at[p] is None else at[p]
        target = _next_hop(inp.mesh, cur, dst)
        if (cur, target, cycle) not in claimed:
            claimed.add((cur, target, cycle))
            at[p] = target
            if target == dst:
                delivered[p] = cycle
                continue
        heapq.heappush(events, (_ts(cycle + 1, p, n_pkts), p))
    return delivered


def build(host, inp: NocInput, variant: str = "swarm") -> Dict:
    require_variant(variant, ("swarm",))
    n_pkts = len(inp.packets)
    # generous capacity: every packet may claim one link per cycle over
    # its whole (contention-stretched) lifetime
    capacity = n_pkts * (4 * inp.mesh + n_pkts + 8)
    links = host.dict("noc.links", capacity=capacity)
    at = host.array("noc.at", n_pkts * 8, fill=-1)
    delivered = host.array("noc.delivered", n_pkts * 8, fill=-1)
    hops = host.array("noc.hops", n_pkts * 8)

    def step(ctx, p, cycle):
        _inject, src, dst = inp.packets[p]
        cur = at.get(ctx, p * 8)
        if cur == -1:
            cur = src
        target = _next_hop(inp.mesh, cur, dst)
        ctx.compute(6)
        if links.put_if_absent(ctx, (cur, target, cycle), p):
            at.set(ctx, p * 8, target)
            hops.add(ctx, p * 8, 1)
            if target == dst:
                delivered.set(ctx, p * 8, cycle)
                return
        ctx.enqueue(step, p, cycle + 1, ts=_ts(cycle + 1, p, n_pkts),
                    hint=target, label="hop")

    for p, (cycle, src, _dst) in enumerate(inp.packets):
        host.enqueue_root(step, p, cycle, ts=_ts(cycle, p, n_pkts),
                          hint=src, label="hop")
    return {"delivered": delivered, "at": at, "hops": hops, "input": inp}


def root_ordering(variant: str) -> Ordering:
    return Ordering.ORDERED_32


def check(handles: Dict, inp: NocInput) -> int:
    """Delivery cycles must match the reference replay exactly; hop counts
    must equal each packet's Manhattan distance. Returns the last delivery
    cycle."""
    want = reference(inp)
    last = 0
    for p, (inject, src, dst) in enumerate(inp.packets):
        got = handles["delivered"].peek(p * 8)
        if got != want[p]:
            raise AppError(f"packet {p}: delivered {got}, expected {want[p]}")
        if got < 0:
            raise AppError(f"packet {p} never delivered")
        sy, sx = divmod(src, inp.mesh)
        dy, dx = divmod(dst, inp.mesh)
        manhattan = abs(sy - dy) + abs(sx - dx)
        if handles["hops"].peek(p * 8) != manhattan:
            raise AppError(
                f"packet {p} took {handles['hops'].peek(p * 8)} hops, "
                f"expected {manhattan}")
        if got < inject + manhattan - 1:
            raise AppError(f"packet {p} arrived impossibly early")
        last = max(last, got)
    return last
