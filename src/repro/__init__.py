"""repro — a full Python reproduction of *Fractal: An Execution Model for
Fine-Grain Nested Speculative Parallelism* (ISCA 2017).

Quickstart::

    from repro import Simulator, SystemConfig, Ordering

    sim = Simulator(SystemConfig.with_cores(16))
    counter = sim.cell("counter", 0)

    def bump(ctx, amount):
        counter.add(ctx, amount)

    def txn(ctx, n):
        # each transaction runs its pieces in a nested ordered subdomain
        ctx.create_subdomain(Ordering.ORDERED_32)
        for i in range(n):
            ctx.enqueue_sub(bump, 1, ts=i)

    for _ in range(8):
        sim.enqueue_root(txn, 4)
    stats = sim.run()
    assert counter.peek() == 32

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every reproduced table and figure.
"""

from .config import LatencyModel, SystemConfig
from .errors import (
    AppError,
    ConfigError,
    DomainError,
    FractalError,
    QueueError,
    SerializabilityViolation,
    SimulationError,
    TaskExecutionError,
    TimestampError,
    VTBudgetExceeded,
    VTError,
)
from .vt import DomainVT, FractalVT, Ordering, TiebreakerAllocator
from .mem import (
    AddressSpace,
    BloomSignature,
    SpecArray,
    SpecCell,
    SpecDict,
    SpecMemory,
    SpecQueue,
)
from .core import (
    Domain,
    RunStats,
    SerialExecutor,
    Simulator,
    TaskAborted,
    TaskContext,
    TaskDesc,
    TaskState,
    audit_serializability,
)
from .telemetry import (
    EventBus,
    EventRecorder,
    JsonlExporter,
    MetricsRegistry,
    metrics_snapshot,
    to_perfetto,
    write_metrics_json,
    write_perfetto,
)
from .core.highlevel import (
    callcc,
    enqueue_all,
    enqueue_all_ordered,
    forall,
    forall_ordered,
    forall_reduce,
    forall_reduce_ordered,
    parallel,
    parallel_reduce,
    task,
)

__version__ = "1.0.0"

__all__ = [
    "LatencyModel",
    "SystemConfig",
    "AppError",
    "ConfigError",
    "DomainError",
    "FractalError",
    "QueueError",
    "SerializabilityViolation",
    "SimulationError",
    "TaskExecutionError",
    "TimestampError",
    "VTBudgetExceeded",
    "VTError",
    "DomainVT",
    "FractalVT",
    "Ordering",
    "TiebreakerAllocator",
    "AddressSpace",
    "BloomSignature",
    "SpecArray",
    "SpecCell",
    "SpecDict",
    "SpecMemory",
    "SpecQueue",
    "Domain",
    "RunStats",
    "SerialExecutor",
    "Simulator",
    "TaskAborted",
    "TaskContext",
    "TaskDesc",
    "TaskState",
    "audit_serializability",
    "EventBus",
    "EventRecorder",
    "JsonlExporter",
    "MetricsRegistry",
    "metrics_snapshot",
    "to_perfetto",
    "write_metrics_json",
    "write_perfetto",
    "callcc",
    "enqueue_all",
    "enqueue_all_ordered",
    "forall",
    "forall_ordered",
    "forall_reduce",
    "forall_reduce_ordered",
    "parallel",
    "parallel_reduce",
    "task",
]
