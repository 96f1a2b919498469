"""Basic simulator behaviour: execution, commits, stats, determinism."""

import pytest

from repro import Ordering, Simulator, SystemConfig, TaskState
from repro.core.simulator import _CORE_FREE
from repro.errors import SimulationError


class TestExecution:
    def test_single_task(self, make_sim):
        sim = make_sim()
        cell = sim.cell("c", 0)

        def t(ctx):
            cell.set(ctx, 42)

        sim.enqueue_root(t)
        stats = sim.run()
        assert cell.peek() == 42
        assert stats.tasks_committed == 1
        sim.audit()

    def test_task_args(self, make_sim):
        sim = make_sim()
        arr = sim.array("a", 4)

        def t(ctx, i, v):
            arr.set(ctx, i, v)

        for i in range(4):
            sim.enqueue_root(t, i, i * 10)
        sim.run()
        assert arr.snapshot() == [0, 10, 20, 30]

    def test_children_run(self, make_sim):
        sim = make_sim()
        cell = sim.cell("c", 0)

        def child(ctx):
            cell.add(ctx, 1)

        def parent(ctx):
            for _ in range(3):
                ctx.enqueue(child)

        sim.enqueue_root(parent)
        stats = sim.run()
        assert cell.peek() == 3
        assert stats.tasks_committed == 4

    def test_compute_lengthens_task(self, make_sim):
        sim = make_sim(1)

        def t(ctx):
            ctx.compute(5000)

        sim.enqueue_root(t)
        stats = sim.run()
        assert stats.avg_task_length >= 5000

    def test_empty_program(self, make_sim):
        sim = make_sim()
        stats = sim.run()
        assert stats.tasks_committed == 0
        assert stats.makespan == 0

    def test_run_twice_rejected(self, make_sim):
        sim = make_sim()
        sim.run()
        with pytest.raises(SimulationError):
            sim.run()

    def test_enqueue_after_run_rejected(self, make_sim):
        sim = make_sim()
        sim.run()
        with pytest.raises(SimulationError):
            sim.enqueue_root(lambda ctx: None)


class TestEventLoopGuards:
    """The event loop's two hard failures."""

    def test_max_cycles_bounds_the_last_simulated_cycle(self, make_sim):
        def run(max_cycles):
            sim = make_sim(1)
            sim.enqueue_root(lambda ctx: ctx.compute(5000))
            return sim.run(max_cycles=max_cycles)

        makespan = run(None).makespan
        assert run(makespan).makespan == makespan
        with pytest.raises(SimulationError,
                           match=f"exceeded max_cycles={makespan - 1}"):
            run(makespan - 1)

    def test_event_scheduled_in_the_past_raises(self, make_sim):
        sim = make_sim(1)

        def late(ctx):
            # a handler that schedules into an already-simulated cycle
            sim._schedule(sim.now - 1, _CORE_FREE, 0)

        def first(ctx):
            ctx.compute(100)
            ctx.enqueue(late)

        sim.enqueue_root(first)
        with pytest.raises(SimulationError, match="time went backwards"):
            sim.run()


class TestCommitsAndStats:
    def test_cycle_breakdown_sums_to_total(self, make_sim):
        sim = make_sim(4)
        cell = sim.cell("c", 0)

        def t(ctx):
            cell.add(ctx, 1)
            ctx.compute(100)

        for _ in range(20):
            sim.enqueue_root(t)
        stats = sim.run()
        bd = stats.breakdown
        assert bd.total == stats.n_cores * stats.makespan
        assert bd.committed > 0

    def test_conflicting_tasks_all_commit(self, make_sim):
        sim = make_sim(16)
        cell = sim.cell("c", 0)

        def t(ctx):
            cell.add(ctx, 1)

        for _ in range(50):
            sim.enqueue_root(t)
        stats = sim.run()
        assert cell.peek() == 50
        assert stats.tasks_committed == 50
        assert stats.tasks_aborted > 0  # heavy contention on one cell
        sim.audit()

    def test_independent_tasks_never_abort(self, make_sim):
        sim = make_sim(16)
        arr = sim.array("a", 64 * 8)  # one line each

        def t(ctx, i):
            arr.set(ctx, i * 8, i)

        for i in range(64):
            sim.enqueue_root(t, i)
        stats = sim.run()
        assert stats.tasks_aborted == 0
        assert stats.true_conflicts == 0

    def test_deterministic_given_seed(self):
        def build():
            sim = Simulator(SystemConfig.with_cores(16, seed=3))
            cell = sim.cell("c", 0)

            def t(ctx, i):
                cell.add(ctx, i)
                ctx.compute(i * 7 % 50)

            for i in range(40):
                sim.enqueue_root(t, i)
            return sim.run()

        a, b = build(), build()
        assert a.makespan == b.makespan
        assert a.tasks_aborted == b.tasks_aborted
        assert a.breakdown.committed == b.breakdown.committed


class TestParallelismScaling:
    def test_more_cores_faster_on_parallel_work(self, make_sim):
        def run(n_cores):
            sim = make_sim(n_cores)
            arr = sim.array("a", 256 * 8)

            def t(ctx, i):
                arr.set(ctx, i * 8, 1)
                ctx.compute(500)

            for i in range(256):
                sim.enqueue_root(t, i)
            return sim.run().makespan

        t1, t16 = run(1), run(16)
        assert t16 * 4 < t1  # at least 4x speedup at 16 cores

    def test_serialized_work_does_not_scale(self, make_sim):
        def run(n_cores):
            sim = make_sim(n_cores)
            cell = sim.cell("c", 0)

            def t(ctx):
                cell.add(ctx, 1)
                ctx.compute(300)

            for _ in range(64):
                sim.enqueue_root(t)
            return sim.run().makespan

        t1, t16 = run(1), run(16)
        assert t16 > t1 / 8  # contention bounds the speedup


class TestTaskStates:
    def test_final_states(self, make_sim):
        sim = make_sim()
        roots = [sim.enqueue_root(lambda ctx: None) for _ in range(3)]
        sim.run()
        assert all(r.state is TaskState.COMMITTED for r in roots)
