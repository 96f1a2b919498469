"""Tests for the PBBS deterministic-reservation family (spanning,
contract, refine) across all four variants.

The family's headline guarantee: every variant — including the
round-based ``specfor`` engine hosted inside a fractal domain — produces
result arrays byte-identical to the sequential loop in iteration order.
"""

import pytest

from repro.apps.pbbs import VARIANTS_PBBS, contract, refine, spanning
from repro.bench.harness import run_app
from repro.telemetry import EventBus, SpecForRoundEvent

APPS = [(spanning, "spanning"), (contract, "contract"), (refine, "refine")]


def small_input(app):
    if app is spanning:
        return app.make_input(scale=5, edge_factor=3)
    if app is contract:
        return app.make_input(n=32)
    return app.make_input(width=8, n_ops=32)


@pytest.mark.parametrize("app,name", APPS)
class TestAllVariants:
    @pytest.mark.parametrize("variant", VARIANTS_PBBS)
    def test_matches_sequential_reference(self, run_checked, app, name,
                                          variant):
        run_checked(app, small_input(app), variant)

    @pytest.mark.parametrize("variant", VARIANTS_PBBS)
    def test_serial_matches(self, run_serial_checked, app, name, variant):
        run_serial_checked(app, small_input(app), variant)

    def test_variants_byte_identical(self, run_checked, app, name):
        inp = small_input(app)
        results = [app.result_arrays(
            run_checked(app, inp, variant).handles)
            for variant in VARIANTS_PBBS]
        assert all(r == results[0] for r in results[1:])

    def test_specfor_deterministic_across_core_counts(self, run_checked,
                                                      app, name):
        inp = small_input(app)
        a = run_checked(app, inp, "specfor", n_cores=4)
        b = run_checked(app, inp, "specfor", n_cores=16)
        assert app.result_arrays(a.handles) == app.result_arrays(b.handles)
        assert a.metrics.total("specfor_rounds", engine=name) >= 1

    def test_specfor_granularity_does_not_change_results(self, app, name):
        inp = small_input(app)
        coarse = run_app(app, inp, variant="specfor", n_cores=8,
                         audit=True, granularity=2)
        fine = run_app(app, inp, variant="specfor", n_cores=8,
                       audit=True, granularity=16)
        assert (app.result_arrays(coarse.handles)
                == app.result_arrays(fine.handles))


class TestSpecForTelemetry:
    def test_round_counters_fold_into_metrics(self, run_checked):
        inp = refine.make_input()
        run = run_checked(refine, inp, "specfor")
        m = run.metrics
        rounds = m.total("specfor_rounds", engine="refine")
        assert rounds >= 1
        want_success, _ = refine.reference_result(inp)
        assert m.total("specfor_commits", engine="refine") \
            == sum(want_success)

    def test_refine_exercises_reservation_failures(self, run_checked):
        # the default refine input has overlapping cavities, so some
        # iterations must lose a reservation and be carried
        run = run_checked(refine, refine.make_input(), "specfor")
        assert run.metrics.total("specfor_reserve_failures",
                                 engine="refine") > 0

    def test_round_events_on_the_bus_are_monotone(self):
        inp = contract.make_input(n=32)
        events = []
        bus = EventBus()
        bus.subscribe(lambda e: isinstance(e, SpecForRoundEvent)
                      and events.append(e))
        run_app(contract, inp, variant="specfor", n_cores=8,
                telemetry=bus)
        assert events
        dones = [e.done for e in events]
        assert dones == sorted(dones)
        assert dones[-1] == inp.n
        times = [e.t for e in events]
        assert times == sorted(times)


class TestSpanning:
    def test_flags_match_reference_exactly(self, run_checked):
        g = spanning.make_input(scale=5, edge_factor=3)
        run = run_checked(spanning, g, "specfor")
        assert (run.handles["in_forest"].snapshot()
                == spanning.reference_flags(g))

    def test_single_component_tree(self, run_checked):
        from repro.graphs import Graph
        g = Graph(6)
        for v in range(1, 6):
            g.add_edge(0, v)
        run = run_checked(spanning, g, "specfor")
        assert spanning.check(run.handles, g) == 5


class TestContract:
    def test_values_fold_along_the_chain(self, run_checked):
        inp = contract.make_input(n=24, seed=3)
        run = run_checked(contract, inp, "specfor")
        assert run.handles["alive"].snapshot() == [0] * inp.n

    def test_two_nodes(self, run_checked):
        inp = contract.make_input(n=2, seed=1)
        run_checked(contract, inp, "specfor")


class TestRefine:
    def test_claimed_cavities_are_disjoint(self, run_checked):
        inp = refine.make_input(width=8, n_ops=40, seed=2)
        run = run_checked(refine, inp, "specfor")
        n_ok = refine.check(run.handles, inp)
        want_success, _ = refine.reference_result(inp)
        assert n_ok == sum(want_success)
