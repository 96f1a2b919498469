"""A committed task frees its speculative state (paper Sec. 4.1: task- and
commit-queue entries are released at commit).

Run memory must scale with the live tasks, not with every task a run
ever created: after a run, no committed descriptor stays reachable from
the simulator, and each one has given up its undo log, footprint sets,
Bloom signatures and (unaudited) read/write records.
"""

import gc

from repro import Ordering, Simulator, SystemConfig
from repro.core.task import TaskDesc, TaskState

N_ROOTS = 40
N_SUB = 50       # N_ROOTS * (1 + N_SUB) = 2,040 committed tasks
N_SLOTS = 64


def _run(enable_audit):
    """A nested program: each root task opens an ordered subdomain and
    fills it with tasks that read and write a shared array (Bloom
    conflicts, so signatures exist and some attempts abort)."""
    sim = Simulator(SystemConfig.with_cores(4, conflict_mode="bloom"),
                    root_ordering=Ordering.UNORDERED,
                    enable_audit=enable_audit)
    slots = sim.array("slots", N_SLOTS)

    def leaf(ctx, i):
        j = i % N_SLOTS
        slots.set(ctx, j, slots.get(ctx, j) + 1)

    def root(ctx, r):
        slots.set(ctx, r, slots.get(ctx, r) + 1)
        ctx.create_subdomain(Ordering.ORDERED_32)
        for k in range(N_SUB):
            ctx.enqueue_sub(leaf, r * N_SUB + k, ts=k)

    roots = [sim.enqueue_root(root, r) for r in range(N_ROOTS)]
    stats = sim.run()
    assert stats.tasks_committed == N_ROOTS * (1 + N_SUB)
    assert stats.domains_created >= N_ROOTS  # one per root attempt
    assert sum(slots.snapshot()) == N_ROOTS * (1 + N_SUB)
    return sim, roots


def _live_taskdescs():
    gc.collect()
    return sum(1 for o in gc.get_objects() if isinstance(o, TaskDesc))


def test_committed_tasks_are_not_kept_alive():
    baseline = _live_taskdescs()
    sim, roots = _run(enable_audit=False)
    del roots
    # the simulator is still referenced: whatever it holds stays reachable
    assert sim.stats.tasks_committed > 2000
    assert _live_taskdescs() - baseline <= 4


def test_committed_task_releases_its_state():
    sim, roots = _run(enable_audit=False)
    for task in roots:
        assert task.state is TaskState.COMMITTED
        assert task.undo is None
        assert task.read_lines is None and task.write_lines is None
        assert task.sig_read is None and task.sig_write is None
        assert task.reads is None and task.writes is None
        assert task.children is None
        assert not task.deps and not task.dependents


def test_only_an_audited_run_records_values():
    assert not Simulator(SystemConfig.with_cores(1),
                         enable_audit=False).memory.record_values
    assert Simulator(SystemConfig.with_cores(1),
                     enable_audit=True).memory.record_values


def test_audited_run_keeps_read_write_records():
    sim, roots = _run(enable_audit=True)
    for task in roots:
        assert task.undo is None and task.sig_read is None
        assert task.writes and task.reads
    assert len(sim.commit_log) == N_ROOTS * (1 + N_SUB)
    sim.audit()
