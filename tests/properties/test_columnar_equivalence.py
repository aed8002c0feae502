"""Property tests: the columnar hot paths are exact twins of the object model.

Every pass the columnar engine rewrote — Alg. 2 compatible-tuple discovery
and content fingerprinting — must produce results *identical* to the
object-model implementation on any instance, nulls and all.  These
properties are the contract that lets the dispatchers pick a lane purely
on performance grounds.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.compatibility import (
    compatible_tuples,
    compatible_tuples_of_instances,
)
from repro.core.instance import Instance, prepare_for_comparison
from repro.core.schema import RelationSchema
from repro.core.values import LabeledNull
from repro.parallel.cache import instance_fingerprint

CONSTANTS = ["a", "b", "c", 1, 2, "z9"]


@st.composite
def instance(draw, prefix: str = "L", max_rows: int = 5, arity: int = 3):
    """One random instance mixing constants and labeled nulls."""
    n_rows = draw(st.integers(min_value=0, max_value=max_rows))
    null_pool = [LabeledNull(f"{prefix}{k}") for k in range(3)]
    rows = [
        tuple(
            draw(st.sampled_from(null_pool))
            if draw(st.booleans())
            else draw(st.sampled_from(CONSTANTS))
            for _ in range(arity)
        )
        for _ in range(n_rows)
    ]
    return Instance.from_rows(
        "R", tuple(f"A{i}" for i in range(arity)), rows, name=prefix
    )


@st.composite
def instance_pair(draw):
    left = draw(instance(prefix="L"))
    right = draw(instance(prefix="R"))
    return left, right


class TestCompatibilityEquivalence:
    @given(pair=instance_pair())
    @settings(max_examples=80, deadline=None)
    def test_columnar_lane_matches_object_path(self, pair):
        left, right = prepare_for_comparison(*pair)
        # Object path, bypassing the columnar dispatch in
        # compatible_tuples_of_instances.
        expected: dict[str, list[str]] = {}
        for relation in left.relations():
            expected.update(
                compatible_tuples(
                    iter(relation), iter(right.relation(relation.schema.name))
                )
            )
        actual = compatible_tuples_of_instances(left, right)
        assert actual == expected
        assert list(actual) == list(expected)  # same key order too


class TestRoundTripIdentity:
    @given(inst=instance())
    @settings(max_examples=80, deadline=None)
    def test_to_columns_from_columns_identity(self, inst):
        rebuilt = Instance.from_columns(
            RelationSchema("R", inst.schema.relation("R").attributes),
            inst.to_columns()["R"],
            name=inst.name,
        )
        assert [t.values for t in rebuilt.relation("R")] == [
            t.values for t in inst.relation("R")
        ]
        assert instance_fingerprint(rebuilt) == instance_fingerprint(inst)

    @given(inst=instance())
    @settings(max_examples=60, deadline=None)
    def test_fingerprint_fast_lane_matches_object_lane(self, inst):
        twin = Instance.from_rows(
            "R",
            inst.schema.relation("R").attributes,
            [t.values for t in inst.relation("R")],
            name=inst.name,
        )
        inst.columns()  # cached view -> columnar fast lane
        assert twin._columnar is None  # object lane
        assert instance_fingerprint(inst) == instance_fingerprint(twin)
