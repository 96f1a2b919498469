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

Every name below loads its module on first use (PEP 562), so
``import repro.config`` or ``from repro import Simulator`` loads only
what that needs; fault injection, the serial executor, the audit and
the exporters stay unloaded until a caller touches them.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every reproduced table and figure.
"""

from ._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".config": ("LatencyModel", "SystemConfig"),
    ".errors": ("AppError", "ConfigError", "DomainError", "FractalError",
                "QueueError", "SerializabilityViolation", "SimulationError",
                "TaskExecutionError", "TimestampError", "VTBudgetExceeded",
                "VTError"),
    ".vt": ("DomainVT", "FractalVT", "Ordering", "TiebreakerAllocator"),
    ".mem": ("AddressSpace", "BloomSignature", "SpecArray", "SpecCell",
             "SpecDict", "SpecMemory", "SpecQueue"),
    ".core": ("Domain", "RunStats", "SerialExecutor", "Simulator",
              "TaskAborted", "TaskContext", "TaskDesc", "TaskState",
              "audit_serializability"),
    ".telemetry": ("EventBus", "EventRecorder", "JsonlExporter",
                   "MetricsRegistry", "metrics_snapshot", "to_perfetto",
                   "write_metrics_json", "write_perfetto"),
    ".core.highlevel": ("callcc", "enqueue_all", "enqueue_all_ordered",
                        "forall", "forall_ordered", "forall_reduce",
                        "forall_reduce_ordered", "parallel",
                        "parallel_reduce", "task"),
})

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
