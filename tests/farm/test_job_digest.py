"""Canonicalization and content-address tests (repro.farm.job)."""

import dataclasses
import math

import pytest

from repro.apps import zoomtree
from repro.config import SystemConfig
from repro.farm.job import JobSpec, canonical, canonical_json, stable_digest


def spec(**overrides):
    base = dict(app="repro.apps.zoomtree", variant="fractal", n_cores=4,
                input_kwargs={"fanout": 2, "depth": 3})
    base.update(overrides)
    return JobSpec(**base)


class TestCanonical:
    def test_dict_key_order_irrelevant(self):
        a = {"x": 1, "y": [2, 3], "z": {"a": 1, "b": 2}}
        b = {"z": {"b": 2, "a": 1}, "y": [2, 3], "x": 1}
        assert canonical_json(a) == canonical_json(b)

    def test_tuple_and_list_agree(self):
        assert canonical((1, 2, (3, 4))) == canonical([1, 2, [3, 4]])

    def test_sets_are_ordered(self):
        assert canonical({3, 1, 2}) == canonical({2, 3, 1})

    def test_tuple_dict_keys(self):
        # Graph weight maps key by (u, v) tuples
        a = {(0, 1): 5, (1, 2): 7}
        b = {(1, 2): 7, (0, 1): 5}
        assert canonical_json(a) == canonical_json(b)

    def test_non_finite_floats(self):
        for val in (float("inf"), float("-inf"), float("nan")):
            out = canonical(val)
            assert isinstance(out, str)
        assert canonical(float("nan")) == canonical(float("nan"))
        assert canonical(1.5) == 1.5
        assert math.isinf(float("inf"))  # sanity

    def test_bytes(self):
        assert canonical(b"\x00\xff") == canonical(b"\x00\xff")
        assert canonical(b"a") != canonical(b"b")

    def test_dataclass_expansion(self):
        inp = zoomtree.make_input(fanout=2, depth=3)
        again = zoomtree.make_input(fanout=2, depth=3)
        assert inp is not again
        assert canonical_json(inp) == canonical_json(again)

    def test_opaque_fallback_is_stable(self):
        # objects with no structural form degrade to a pickle digest
        out = canonical(frozenset)
        assert canonical(frozenset) == out

    def test_stable_digest_is_hex(self):
        d = stable_digest({"a": 1})
        assert len(d) == 64 and int(d, 16) >= 0


class TestJobDigest:
    def test_rebuilt_input_same_digest(self):
        a = spec(input_obj=zoomtree.make_input(fanout=2, depth=3),
                 input_kwargs=None)
        b = spec(input_obj=zoomtree.make_input(fanout=2, depth=3),
                 input_kwargs=None)
        assert a.digest() == b.digest()

    def test_digest_cached_on_spec(self):
        s = spec()
        assert s.digest() is s.digest()

    @pytest.mark.parametrize("change", [
        dict(n_cores=8),
        dict(variant="flat"),
        dict(input_kwargs={"fanout": 2, "depth": 4}),
        dict(check=False),
        dict(max_cycles=1000),
        dict(build_options={"flattenable": True}),
        dict(config=SystemConfig.with_cores(4, conflict_mode="precise")),
    ])
    def test_digest_sensitivity(self, change):
        assert spec().digest() != spec(**change).digest()

    def test_label_does_not_change_digest(self):
        # label is presentation, not semantics
        assert spec().digest() == spec(label="pretty name").digest()

    def test_resilience_changes_digest(self):
        from repro.faults import ResiliencePolicy
        timed = spec(resilience=ResiliencePolicy(max_wall_seconds=1.0))
        assert spec().digest() != timed.digest()

    def test_canonical_roundtrips_through_json(self):
        import json
        s = spec(config=SystemConfig.with_cores(4))
        doc = s.canonical()
        assert json.loads(json.dumps(doc, sort_keys=True)) == doc
