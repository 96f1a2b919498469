"""Directed tests for selective aborts (paper Sec. 4.1): descendants and
data-dependent tasks die; independent tasks survive."""

import pytest

from repro import Ordering, Simulator, SystemConfig


def make_sim(n_cores=8):
    return Simulator(SystemConfig.with_cores(n_cores, conflict_mode="precise"))


class TestSelectiveAborts:
    def test_independent_tasks_survive_conflicts(self):
        """A conflict between two tasks must not disturb a third."""
        sim = make_sim()
        hot = sim.cell("hot", 0)
        cold = sim.array("cold", 32 * 8)

        def fighter(ctx):
            hot.add(ctx, 1)
            ctx.compute(60)

        def bystander(ctx, i):
            cold.set(ctx, i * 8, 1)
            ctx.compute(60)

        for i in range(16):
            sim.enqueue_root(fighter)
            sim.enqueue_root(bystander, i)
        stats = sim.run(max_cycles=10_000_000)
        sim.audit()
        bystander_attempts = [t for t in sim.commit_log
                              if t.label == "bystander"]
        assert all(t.n_aborts == 0 for t in bystander_attempts)
        assert hot.peek() == 16

    def test_dependent_reader_dies_with_writer(self):
        """A task that consumed a doomed speculative value must abort when
        the value's writer aborts (forwarding + cascade)."""
        sim = make_sim()
        a = sim.cell("a", 0)
        b = sim.cell("b", 0)
        order = sim.cell("order", 0)

        def early(ctx):
            # dispatched late (long queue delay modeled via compute chain)
            a.set(ctx, 1)

        def middle(ctx):
            a.set(ctx, 2)       # conflicts with early's write when early runs
            ctx.compute(200)

        def late(ctx):
            b.set(ctx, a.get(ctx))  # consumes middle's speculative value

        # enqueue in reverse order so 'early' dispatches after the others
        sim.enqueue_root(late)
        sim.enqueue_root(middle)
        sim.enqueue_root(early)
        sim.run(max_cycles=10_000_000)
        sim.audit()
        # final state must be a serialization; b observed the final a-chain
        assert b.peek() in (0, 1, 2)

    def test_children_squashed_not_reexecuted_twice(self):
        """When a parent aborts, its children vanish; the re-execution
        recreates them exactly once (counted via a side-effect cell)."""
        sim = make_sim()
        cell = sim.cell("c", 0)
        child_runs = sim.cell("runs", 0)
        interferer = sim.cell("i", 0)

        def child(ctx):
            child_runs.add(ctx, 1)

        def parent(ctx):
            cell.get(ctx)
            ctx.enqueue(child)
            ctx.compute(150)

        def attacker(ctx):
            cell.set(ctx, 1)  # aborts 'parent' when ordered earlier
            ctx.compute(10)

        sim.enqueue_root(parent)
        sim.enqueue_root(attacker)
        stats = sim.run(max_cycles=10_000_000)
        sim.audit()
        assert child_runs.peek() == 1

    def test_squash_counts_recorded(self):
        sim = make_sim(16)
        hot = sim.cell("hot", 0)

        def child(ctx):
            ctx.compute(5)

        def parent(ctx):
            # children first, so an abort on the hot access squashes them
            for _ in range(3):
                ctx.enqueue(child)
            hot.add(ctx, 1)
            ctx.compute(100)

        for _ in range(12):
            sim.enqueue_root(parent)
        stats = sim.run(max_cycles=10_000_000)
        assert hot.peek() == 12
        # contention on `hot` must have squashed some children
        assert stats.tasks_squashed > 0
        assert stats.tasks_committed == 12 * 4


class TestSubdomainAbortUnit:
    def test_whole_subdomain_dies_with_creator(self):
        """Aborting a subdomain creator kills the subdomain (Fig. 13b
        analog at the conflict level)."""
        sim = make_sim()
        cell = sim.cell("c", 0)
        leaf_runs = sim.cell("leafs", 0)

        def leaf(ctx):
            leaf_runs.add(ctx, 1)

        def creator(ctx):
            cell.get(ctx)
            ctx.create_subdomain(Ordering.UNORDERED)
            for _ in range(4):
                ctx.enqueue_sub(leaf)
            ctx.compute(200)

        def attacker(ctx):
            cell.set(ctx, 1)

        sim.enqueue_root(creator)
        sim.enqueue_root(attacker)
        sim.run(max_cycles=10_000_000)
        sim.audit()
        assert leaf_runs.peek() == 4  # exactly one surviving execution


def test_abort_unwind_formats_its_message_lazily():
    """TaskAborted carries the task; the dispatch loop swallows almost
    every one, so the task and its VT are formatted only on demand."""
    from repro.core.api import TaskAborted

    class Probe:
        reprs = 0

        def __repr__(self):
            Probe.reprs += 1
            return "<probe>"

    task = Probe()
    exc = TaskAborted(task)
    assert Probe.reprs == 0 and exc.task is task
    assert str(exc) == "<probe>" and Probe.reprs == 1
