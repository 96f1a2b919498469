"""Shared JobSpec JSON validation: one test per malformed-field case.

The validator is the single entry point for untrusted run descriptions
(job-spec documents, ``--faults`` files), so each case asserts both the
rejection and the structured ``{"field", "error"}`` entry it reports.
"""

import pytest

from repro.errors import ConfigError
from repro.farm.job import JobSpec
from repro.farm.validate import (SpecValidationError, validate_fault_sections,
                                 validate_jobspec)


def err_fields(exc: SpecValidationError):
    return [e["field"] for e in exc.errors]


def reject(doc):
    with pytest.raises(SpecValidationError) as ei:
        validate_jobspec(doc)
    return ei.value


class TestMalformedFields:
    def test_not_an_object(self):
        exc = reject(["mis"])
        assert exc.errors[0]["field"] == ""
        assert "JSON object" in exc.errors[0]["error"]

    def test_unknown_top_level_field(self):
        exc = reject({"app": "mis", "corse": 4})
        assert err_fields(exc) == ["corse"]
        assert "unknown job-spec field" in exc.errors[0]["error"]

    def test_app_missing(self):
        exc = reject({"n_cores": 4})
        assert "app" in err_fields(exc)
        assert "required" in exc.errors[0]["error"]

    def test_app_unknown_name_lists_registry(self):
        exc = reject({"app": "nope"})
        assert err_fields(exc) == ["app"]
        assert "mis" in exc.errors[0]["error"]   # the registry listing

    def test_variant_not_supported(self):
        exc = reject({"app": "zoomtree", "variant": "swarm"})
        assert err_fields(exc) == ["variant"]
        assert "zoomtree" in exc.errors[0]["error"]

    def test_variant_wrong_type(self):
        exc = reject({"app": "mis", "variant": 3})
        assert "variant" in err_fields(exc)

    def test_n_cores_not_an_integer(self):
        exc = reject({"app": "mis", "n_cores": "four"})
        assert err_fields(exc) == ["n_cores"]
        assert "integer" in exc.errors[0]["error"]

    def test_n_cores_below_minimum(self):
        exc = reject({"app": "mis", "n_cores": 0})
        assert err_fields(exc) == ["n_cores"]
        assert ">= 1" in exc.errors[0]["error"]

    def test_check_not_boolean(self):
        exc = reject({"app": "mis", "check": "yes"})
        assert err_fields(exc) == ["check"]

    def test_max_cycles_invalid(self):
        exc = reject({"app": "mis", "max_cycles": -5})
        assert err_fields(exc) == ["max_cycles"]

    def test_input_not_an_object(self):
        exc = reject({"app": "mis", "input": [7]})
        assert err_fields(exc) == ["input"]
        assert "object" in exc.errors[0]["error"]

    def test_config_unknown_field(self):
        exc = reject({"app": "mis", "config": {"meshdim": 2}})
        assert err_fields(exc) == ["config.meshdim"]
        assert "unknown SystemConfig field" in exc.errors[0]["error"]

    def test_config_latency_unknown_field(self):
        exc = reject({"app": "mis",
                      "config": {"latency": {"warp_speed": 1}}})
        assert err_fields(exc) == ["config.latency.warp_speed"]

    def test_config_semantic_error_surfaces(self):
        exc = reject({"app": "mis", "config": {"conflict_mode": "psychic"}})
        assert err_fields(exc) == ["config"]
        assert "conflict_mode" in exc.errors[0]["error"]

    def test_faults_unknown_field(self):
        exc = reject({"app": "mis", "faults": {"task_exceptions": 0.1}})
        assert err_fields(exc) == ["faults.task_exceptions"]
        assert "FaultPlan" in exc.errors[0]["error"]

    def test_resilience_unknown_field(self):
        exc = reject({"app": "mis", "resilience": {"attempts": 3}})
        assert err_fields(exc) == ["resilience.attempts"]
        assert "ResiliencePolicy" in exc.errors[0]["error"]

    def test_label_wrong_type(self):
        exc = reject({"app": "mis", "label": 7})
        assert "label" in err_fields(exc)

    def test_all_errors_collected_in_one_pass(self):
        exc = reject({"app": "nope", "n_cores": "x", "check": 1,
                      "bogus": True})
        assert set(err_fields(exc)) == {"app", "n_cores", "check", "bogus"}

    def test_unknown_app_message_has_no_keyerror_quoting(self):
        # UnknownAppError renders readably; a raw KeyError would wrap
        # the whole message in an extra layer of quotes
        exc = reject({"app": "nope"})
        msg = exc.errors[0]["error"]
        assert msg.startswith("unknown app 'nope'")
        assert not msg.startswith('"')

    def test_dotted_path_of_registered_app_checks_variants(self):
        # the registry resolves known dotted modules to their entry, so
        # a bogus variant is rejected just like with the short name
        exc = reject({"app": "repro.apps.pbbs.spanning",
                      "variant": "hwq"})
        assert err_fields(exc) == ["variant"]
        assert "specfor" in exc.errors[0]["error"]


class TestValidSpecs:
    def test_registry_name_resolves_to_module_path(self):
        spec = validate_jobspec({"app": "mis", "variant": "fractal",
                                 "n_cores": 4, "input": {"scale": 6}})
        assert spec.app == "repro.apps.mis"
        assert spec.input_kwargs == {"scale": 6}
        assert spec.check is True

    def test_dotted_module_path_accepted(self):
        spec = validate_jobspec({"app": "tests.farm._fakeapp",
                                 "n_cores": 2, "input": {"n_tasks": 4}})
        assert spec.app == "tests.farm._fakeapp"

    def test_digest_matches_directly_constructed_spec(self):
        doc = {"app": "mis", "variant": "fractal", "n_cores": 4,
               "input": {"scale": 6, "seed": 1}, "label": "x"}
        direct = JobSpec(app="repro.apps.mis", variant="fractal", n_cores=4,
                         input_kwargs={"scale": 6, "seed": 1}, label="x")
        assert validate_jobspec(doc).digest() == direct.digest()

    def test_faults_and_resilience_roundtrip(self):
        spec = validate_jobspec(
            {"app": "mis", "faults": {"task_exception_rate": 0.1,
                                      "seed": 3},
             "resilience": {"max_attempts": 5}})
        assert spec.fault_plan is not None
        assert spec.resilience.max_attempts == 5


class TestFaultSections:
    def test_non_object_keeps_legacy_message(self):
        with pytest.raises(ConfigError, match="JSON object"):
            validate_fault_sections([1, 2], source="f.json")

    def test_unknown_section_keeps_legacy_message(self):
        with pytest.raises(ConfigError, match="unknown fault-file sections"):
            validate_fault_sections({"fautls": {}})

    def test_top_level_seed_hoisted_into_plan(self):
        plan, policy = validate_fault_sections(
            {"seed": 7, "faults": {"task_exception_rate": 0.5}})
        assert plan.seed == 7
        assert policy is None

    def test_field_error_carries_structured_entry(self):
        with pytest.raises(SpecValidationError) as ei:
            validate_fault_sections(
                {"faults": {"task_exception_rate": 0.1},
                 "resilience": {"bogus": 1}})
        assert ei.value.errors == [{"field": "resilience.bogus",
                                    "error": "unknown ResiliencePolicy field"}]
