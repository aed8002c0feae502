"""Typed algorithm selection (algorithms.options)."""

import pytest

import repro
from repro import (
    Algorithm,
    AnytimeOptions,
    ExactOptions,
    GroundOptions,
    Instance,
    LabeledNull,
    PartialOptions,
    SignatureOptions,
)
from repro.algorithms.options import resolve_algorithm


@pytest.fixture()
def instances():
    N1, N2 = LabeledNull("N1"), LabeledNull("N2")
    left = Instance.from_rows(
        "R", ("A", "B"), [("a", 1), ("b", N1)], id_prefix="l"
    )
    right = Instance.from_rows(
        "R", ("A", "B"), [("a", 1), ("b", N2)], id_prefix="r"
    )
    return left, right


class TestAlgorithmEnum:
    def test_members_cover_the_legacy_names(self):
        assert {member.value for member in Algorithm} == {
            "signature", "assignment", "exact", "ground", "partial",
            "anytime",
        }

    def test_each_member_knows_its_options_type(self):
        from repro.algorithms.options import AssignmentOptions

        assert Algorithm.SIGNATURE.options_type() is SignatureOptions
        assert Algorithm.ASSIGNMENT.options_type() is AssignmentOptions
        assert Algorithm.EXACT.options_type() is ExactOptions
        assert Algorithm.GROUND.options_type() is GroundOptions
        assert Algorithm.PARTIAL.options_type() is PartialOptions
        assert Algorithm.ANYTIME.options_type() is AnytimeOptions

    def test_default_options_round_trip(self):
        for member in Algorithm:
            spec = member.default_options()
            assert spec.algorithm is member


class TestResolveAlgorithm:
    def test_none_resolves_to_signature_defaults(self):
        spec = resolve_algorithm(None)
        assert isinstance(spec, SignatureOptions)
        assert spec.align_preference is True

    def test_enum_member_expands_to_defaults(self):
        spec = resolve_algorithm(Algorithm.EXACT)
        assert isinstance(spec, ExactOptions)
        assert spec.prune is True

    def test_typed_options_pass_through_unchanged(self):
        given = ExactOptions(node_budget=7)
        assert resolve_algorithm(given) is given

    def test_typed_options_reject_legacy_kwargs(self, instances):
        left, right = instances
        with pytest.raises(TypeError, match="node_budget"):
            repro.compare(left, right, ExactOptions(), node_budget=7)

    def test_legacy_string_raises_naming_the_enum(self):
        with pytest.raises(TypeError, match=r"Algorithm\('exact'\)"):
            resolve_algorithm("exact")
        assert isinstance(resolve_algorithm(Algorithm("exact")), ExactOptions)

    def test_unknown_string_raises(self):
        with pytest.raises(TypeError, match="removed in repro 2.0"):
            resolve_algorithm("quantum")
        with pytest.raises(ValueError, match="quantum"):
            Algorithm("quantum")

    def test_unknown_kwarg_names_the_options_class(self):
        with pytest.raises(TypeError, match="ExactOptions"):
            ExactOptions(warp_factor=9)


class TestCompareWithTypedOptions:
    def test_enum_and_string_agree(self, instances):
        left, right = instances
        typed = repro.compare(left, right, Algorithm.EXACT)
        named = repro.compare(left, right, Algorithm("exact"))
        assert typed.similarity == named.similarity
        assert typed.algorithm == named.algorithm

    def test_options_instance_carries_its_knobs(self, instances):
        left, right = instances
        result = repro.compare(left, right, ExactOptions(node_budget=1))
        # The budget check is amortized, so allow a node of slack.
        assert result.stats["nodes_explored"] <= 2
        assert not result.outcome.is_complete

    def test_typed_anytime_runs_the_ladder(self, instances):
        left, right = instances
        result = repro.compare(left, right, Algorithm.ANYTIME)
        assert result.algorithm.startswith("anytime")
        assert result.similarity == 1.0

    def test_ground_rejects_deadline(self, instances):
        left, right = instances
        with pytest.raises(ValueError, match="not supported"):
            repro.compare(left, right, Algorithm.GROUND, deadline=1.0)
