"""A non-speculative serial reference executor.

Runs the *same* Fractal program (same task functions, same typed data
structures) without speculation: one task at a time, always the lowest
pending task in a serial order that satisfies every Fractal constraint
(domain atomicity trivially holds; ordered domains run in timestamp order;
parents run before children).

Uses:

- **Differential oracle** — for programs whose results are order-
  deterministic, a Simulator run must produce identical final memory.
- **Serial baseline** — its cycle count stands in for the paper's "tuned
  serial versions" (Table 4): per-access latencies from a single-core
  cache model, no task-management overheads.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..config import LatencyModel
from ..errors import DomainError, SimulationError
from ..mem.address import AddressSpace
from ..vt import Ordering
from .domain import Domain
from .hostbase import AllocAPI
from .task import TaskDesc


class _SerialMemory:
    """Flat, non-speculative memory with the SpecMemory peek/poke surface."""

    def __init__(self, default: Any = 0):
        self._values: Dict[int, Any] = {}
        self.default = default

    def peek(self, addr: int) -> Any:
        """Read a word (non-speculative semantics)."""
        return self._values.get(addr, self.default)

    def poke(self, addr: int, value: Any) -> None:
        """Write a word (non-speculative semantics)."""
        self._values[addr] = value

    def poke_fresh(self, addr: int, value: Any) -> None:
        """Initialize a fresh word (no speculation to guard serially)."""
        self._values[addr] = value


class SerialContext:
    """The ctx object passed to task functions under serial execution."""

    __slots__ = ("host", "task", "cycles")

    def __init__(self, host: "SerialExecutor", task: TaskDesc):
        self.host = host
        self.task = task
        self.cycles = 0

    # --- program-visible state ----------------------------------------
    @property
    def timestamp(self) -> Optional[int]:
        return self.task.timestamp

    @property
    def hint(self) -> Optional[int]:
        return self.task.hint

    # --- memory ----------------------------------------------------------
    def load(self, addr: int) -> Any:
        self.cycles += self.host._access_cost(addr)
        return self.host.memory._values.get(addr, self.host.memory.default)

    def store(self, addr: int, value: Any) -> None:
        self.cycles += self.host._access_cost(addr)
        self.host.memory._values[addr] = value

    def compute(self, cycles: int) -> None:
        self.cycles += cycles

    def emit(self, event) -> None:
        """Deferred-event surface parity with TaskContext: serial tasks
        commit as they run, so the event is recorded immediately (on
        ``host.emitted``; there is no bus or metrics registry here)."""
        self.host.emitted.append(event)

    # --- enqueues -------------------------------------------------------
    def enqueue(self, fn: Callable, *args, ts: Optional[int] = None,
                hint: Optional[int] = None,
                label: Optional[str] = None) -> TaskDesc:
        domain = self.task.domain
        timestamp = domain.validate_child_timestamp(self.task.timestamp, ts)
        return self.host._spawn(self.task, fn, args, domain, timestamp,
                                hint, label, kind="same")

    def create_subdomain(self, ordering: Ordering = Ordering.UNORDERED,
                         flattenable: bool = False) -> Domain:
        # ``flattenable`` is a performance hint; serially it changes nothing
        if self.task.subdomain is not None:
            raise DomainError(
                f"{self.task} already created a subdomain; a task may call "
                f"create_subdomain exactly once")
        sub = Domain(ordering, creator=self.task, parent=self.task.domain)
        self.task.subdomain = sub
        return sub

    def enqueue_sub(self, fn: Callable, *args, ts: Optional[int] = None,
                    hint: Optional[int] = None,
                    label: Optional[str] = None) -> TaskDesc:
        sub = self.task.subdomain
        if sub is None:
            raise DomainError("enqueue_sub before create_subdomain")
        timestamp = sub.ordering.validate_timestamp(ts)
        return self.host._spawn(self.task, fn, args, sub, timestamp,
                                hint, label, kind="sub")

    def enqueue_super(self, fn: Callable, *args, ts: Optional[int] = None,
                      hint: Optional[int] = None,
                      label: Optional[str] = None) -> TaskDesc:
        sup = self.task.domain.require_super()
        creator = self.task.domain.creator
        timestamp = sup.validate_child_timestamp(
            creator.timestamp if creator is not None else None, ts)
        return self.host._spawn(self.task, fn, args, sup, timestamp,
                                hint, label, kind="super")


#: per-access latencies of the serial baseline: the Table 2 defaults
_LATENCY = LatencyModel()


class SerialExecutor(AllocAPI):
    """Serial host with the same allocation/enqueue surface as Simulator."""

    def __init__(self, *, root_ordering: Ordering = Ordering.UNORDERED,
                 name: str = "serial"):
        self.name = name
        self.space = AddressSpace(64, 1)  # 64-byte lines, one tile
        self.memory = _SerialMemory()
        self.root_domain = Domain(root_ordering)
        self._heap: List[Tuple[tuple, int, TaskDesc]] = []
        self._seq = 0
        self._keys: Dict[int, tuple] = {}   # task id -> serial key
        self._touched_lines: set = set()
        self.cycles = 0
        self.tasks_executed = 0
        self.emitted: List[Any] = []
        self._ran = False

    # ------------------------------------------------------------------
    def _access_cost(self, addr: int) -> int:
        line = self.space.line_of(addr)
        if line in self._touched_lines:
            return _LATENCY.l1_hit
        self._touched_lines.add(line)
        return _LATENCY.l2_hit

    # ------------------------------------------------------------------
    def enqueue_root(self, fn: Callable, *args, ts: Optional[int] = None,
                     hint: Optional[int] = None,
                     label: Optional[str] = None) -> TaskDesc:
        """Enqueue an initial root-domain task (mirrors Simulator)."""
        timestamp = self.root_domain.ordering.validate_timestamp(ts)
        task = TaskDesc(fn, args, self.root_domain,
                        timestamp=timestamp if
                        self.root_domain.ordering.is_ordered else None,
                        hint=hint, label=label)
        self._push(task, ((timestamp, self._next_seq()),))
        return task

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _push(self, task: TaskDesc, key: tuple) -> None:
        self._keys[task.tid] = key
        heapq.heappush(self._heap, (key, task.tid, task))

    def _spawn(self, parent: TaskDesc, fn, args, domain, timestamp, hint,
               label, kind: str) -> TaskDesc:
        child = TaskDesc(fn, args, domain,
                         timestamp=timestamp if domain.ordering.is_ordered
                         else None, hint=hint, parent=parent, label=label)
        pkey = self._keys[parent.tid]
        entry = (timestamp, self._next_seq())
        if kind == "same":
            key = pkey[:-1] + (entry,)
        elif kind == "sub":
            key = pkey + (entry,)
        else:
            if len(pkey) < 2:
                raise DomainError("root-domain tasks have no superdomain")
            key = pkey[:-2] + (entry,)
        self._push(child, key)
        return child

    # ------------------------------------------------------------------
    def run(self) -> "SerialExecutor":
        """Execute every task to completion in serial order."""
        if self._ran:
            raise SimulationError("a SerialExecutor runs exactly once")
        self._ran = True
        while self._heap:
            _, _, task = heapq.heappop(self._heap)
            ctx = SerialContext(self, task)
            task.fn(ctx, *task.args)
            self.cycles += ctx.cycles
            self.tasks_executed += 1
        return self
