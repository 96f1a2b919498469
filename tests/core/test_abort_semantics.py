"""Directed tests for selective aborts (paper Sec. 4.1): descendants and
data-dependent tasks die; independent tasks survive."""

import pytest

from repro import LatencyModel, Ordering, Simulator, SystemConfig


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
    assert Probe.reprs == 0 and exc.task is task and exc.args == (task,)
    assert str(exc) == "<probe>" and Probe.reprs == 1


class TestContextReuse:
    """Each core owns one TaskContext, pointed at every attempt it runs."""

    def _run(self, blocked):
        """An ordered root: ``blocker`` (ts 0) stores a cell and stays in
        flight for 1,000 cycles; ``victim`` (ts 1, on another single-core
        tile) computes, enqueues two children and then loads that cell.
        With ``blocked`` the load is premature and the first attempt
        aborts; without it the blocker stores a cell on another line and
        the victim runs once, cleanly."""
        cfg = SystemConfig.with_cores(
            4, cores_per_tile=1, conflict_mode="precise",
            latency=LatencyModel(mem_miss_rate=0.0))
        sim = Simulator(cfg, root_ordering=Ordering.ORDERED_32)
        cells = sim.array("cells", 16)  # words 0 and 8: two lines
        units = [tile.unit for tile in sim.tiles]
        tile_of = {h: sim.scheduler.tile_for(h, units) for h in range(16)}
        # the blocker's tile dispatches first at cycle 0, so its store is
        # in flight when the victim's body runs
        blocker_hint = min(tile_of, key=tile_of.get)
        victim_hint = next(h for h, t in tile_of.items()
                           if t > tile_of[blocker_hint])
        attempts = []   # (context, core, cycles at entry) per attempt
        finished = []   # (children enqueued, task.children) per body end

        def child(ctx):
            pass

        def blocker(ctx):
            cells.set(ctx, 0 if blocked else 8, 1)
            ctx.compute(1000)

        def victim(ctx):
            attempts.append((ctx, ctx.core_id, ctx.cycles))
            ctx.compute(300)
            kids = [ctx.enqueue(child, ts=1, hint=victim_hint)
                    for _ in range(2)]
            cells.get(ctx, 0)
            finished.append((kids, list(ctx.task.children)))

        sim.enqueue_root(blocker, ts=0, hint=blocker_hint)
        task = sim.enqueue_root(victim, ts=1, hint=victim_hint)
        stats = sim.run(max_cycles=100_000)
        sim.audit()
        return sim, task, stats, attempts, finished

    def test_retry_starts_clean_on_the_same_core(self):
        sim, task, stats, attempts, finished = self._run(blocked=True)
        _, clean_task, clean_stats, clean_attempts, _ = self._run(
            blocked=False)
        assert clean_task.n_aborts == 0 and len(clean_attempts) == 1
        # the first attempt died at its load, after enqueueing two
        # children, which the abort squashed
        assert task.n_aborts == 1 and len(attempts) == 2
        assert stats.tasks_squashed == 2 and clean_stats.tasks_squashed == 0
        (ctx1, core1, entry1), (ctx2, core2, entry2) = attempts
        # the retry ran on the same core, through the same context
        assert core1 == core2 == task.core.cid
        assert ctx1 is ctx2 is sim._contexts[core1]
        # each attempt started at the dequeue cost: nothing carried over,
        # so the retry took exactly as long as the clean single attempt
        assert entry1 == entry2 == sim.config.dequeue_cost
        assert task.duration == clean_task.duration
        # the task held the retry's two children and nothing else
        [(kids, children)] = finished
        assert len(kids) == 2 and children == kids
        assert stats.tasks_committed == clean_stats.tasks_committed == 4
