"""Swarm astar: A* grid pathfinding with timestamp = f = g + h.

Tasks visit (cell, g) candidates in f-order (Manhattan-distance heuristic,
admissible and consistent on a 4-connected grid with unit step costs, so
the first settlement of each cell is optimal and the first settlement of
the goal yields the shortest path). Every settled cell records its g; the
checker compares the goal's g, and the g of every settled cell, against
plain BFS distances over the grid.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ...errors import AppError
from ...vt import Ordering
from ..common import require_variant

UNSETTLED = -1


@dataclass
class AstarInput:
    width: int
    height: int
    walls: frozenset
    start: Tuple[int, int]
    goal: Tuple[int, int]

    def node(self, x: int, y: int) -> int:
        return y * self.width + x

    @property
    def n(self) -> int:
        return self.width * self.height


def make_input(width: int = 24, height: int = 24, wall_fraction: float = 0.2,
               seed: int = 23) -> AstarInput:
    rng = random.Random(seed)
    walls = set()
    for x in range(width):
        for y in range(height):
            if rng.random() < wall_fraction:
                walls.add((x, y))
    start, goal = (0, 0), (width - 1, height - 1)
    walls.discard(start)
    walls.discard(goal)
    return AstarInput(width, height, frozenset(walls), start, goal)


def _neighbors(inp: AstarInput, x: int, y: int):
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        nx_, ny = x + dx, y + dy
        if (0 <= nx_ < inp.width and 0 <= ny < inp.height
                and (nx_, ny) not in inp.walls):
            yield nx_, ny


def _h(inp: AstarInput, x: int, y: int) -> int:
    return abs(inp.goal[0] - x) + abs(inp.goal[1] - y)


def build(host, inp: AstarInput, variant: str = "swarm") -> Dict:
    require_variant(variant, ("swarm",))
    gscore = host.array("astar.g", inp.n * 8, fill=UNSETTLED)
    adj = {(x, y): tuple(_neighbors(inp, x, y))
           for x in range(inp.width) for y in range(inp.height)
           if (x, y) not in inp.walls}

    goal_idx = inp.node(*inp.goal)

    def visit(ctx, x, y, g):
        idx = inp.node(x, y)
        if gscore.get(ctx, idx * 8) != UNSETTLED:
            return
        # prune: once the goal settles, later-f candidates are useless
        if idx != goal_idx and gscore.get(ctx, goal_idx * 8) != UNSETTLED:
            return
        gscore.set(ctx, idx * 8, g)
        ctx.compute(5)
        if (x, y) == inp.goal:
            return
        for (nx_, ny) in adj[(x, y)]:
            f = g + 1 + _h(inp, nx_, ny)
            ctx.enqueue(visit, nx_, ny, g + 1, ts=f, hint=inp.node(nx_, ny),
                        label="visit")

    sx, sy = inp.start
    host.enqueue_root(visit, sx, sy, 0, ts=_h(inp, sx, sy),
                      hint=inp.node(sx, sy), label="visit")
    return {"g": gscore, "input": inp}


def root_ordering(variant: str) -> Ordering:
    return Ordering.ORDERED_32


def reference(inp: AstarInput) -> Dict[Tuple[int, int], int]:
    """Plain BFS distances (unit costs) from the start."""
    from collections import deque

    dist = {inp.start: 0}
    q = deque([inp.start])
    while q:
        cell = q.popleft()
        for ngh in _neighbors(inp, *cell):
            if ngh not in dist:
                dist[ngh] = dist[cell] + 1
                q.append(ngh)
    return dist


def check(handles: Dict, inp: AstarInput) -> int:
    """The goal's g must be optimal, and every settled cell's g must equal
    its true distance (consistent heuristic -> f-ordered settlement ->
    per-cell optimality). Returns the goal distance."""
    want = reference(inp)
    if inp.goal not in want:
        raise AppError("fixture must have a reachable goal")
    best = want[inp.goal]
    goal_g = handles["g"].peek(inp.node(*inp.goal) * 8)
    if goal_g != best:
        raise AppError(f"goal distance {goal_g}, expected {best}")
    for (x, y), d in want.items():
        got = handles["g"].peek(inp.node(x, y) * 8)
        if got != UNSETTLED and got != d:
            raise AppError(f"g[{x},{y}] = {got}, true distance {d}")
    return best
