"""Unit tests for the signature algorithm's internal machinery."""

import pytest

from repro.core.instance import Instance
from repro.core.values import LabeledNull
from repro.mappings.constraints import MatchOptions
from repro.algorithms.pair import PreparedPair
from repro.algorithms.signature import (
    _MatchState,
    _relation_order,
    optimistic_pair_score,
)
from repro.algorithms.unifier import Unifier

N = LabeledNull


def inst(rows, attrs=("A", "B"), prefix="l"):
    return Instance.from_rows("R", attrs, rows, id_prefix=prefix)


class TestOptimisticPairScore:
    def _pair(self, left_values, right_values):
        left = inst([left_values], attrs=tuple(f"A{i}" for i in range(len(left_values))))
        right = inst([right_values], prefix="r",
                     attrs=tuple(f"A{i}" for i in range(len(right_values))))
        return left.get_tuple("l1"), right.get_tuple("r1")

    def test_equal_constants(self):
        t, u = self._pair(("x", "y"), ("x", "y"))
        assert optimistic_pair_score(t, u, 0.5) == 2.0

    def test_conflicting_constants_zero(self):
        t, u = self._pair(("x",), ("z",))
        assert optimistic_pair_score(t, u, 0.5) == 0.0

    def test_null_null_counts_one(self):
        t, u = self._pair((N("a"),), (N("b"),))
        assert optimistic_pair_score(t, u, 0.5) == 1.0

    def test_null_constant_counts_lambda(self):
        t, u = self._pair((N("a"),), ("x",))
        assert optimistic_pair_score(t, u, 0.25) == 0.25

    def test_upper_bounds_actual_pair_score(self):
        """Optimistic score is an upper bound on the realized pair score."""
        import random

        from repro.mappings.instance_match import InstanceMatch
        from repro.mappings.tuple_mapping import TupleMapping
        from repro.scoring.match_score import tuple_pair_score

        rng = random.Random(5)
        for trial in range(30):
            def val(side, j):
                if rng.random() < 0.5:
                    return rng.choice("ab")
                return N(f"{side}{trial}_{j}")

            left = inst([(val("L", 0), val("L", 1))])
            right = inst([(val("R", 0), val("R", 1))], prefix="r")
            t, u = left.get_tuple("l1"), right.get_tuple("r1")
            unifier = Unifier.for_instances(left, right)
            if not unifier.try_unify_tuples(t, u):
                continue
            h_l, h_r = unifier.to_value_mappings()
            match = InstanceMatch(
                left, right, h_l, h_r, TupleMapping([("l1", "r1")])
            )
            actual = tuple_pair_score(match, t, u, lam=0.5)
            assert actual <= optimistic_pair_score(t, u, 0.5) + 1e-9


class TestMergeCost:
    def test_fresh_pair_is_free(self):
        unifier = Unifier({N("a")}, {N("b")})
        left = inst([(N("a"), "x")])
        right = inst([(N("b"), "x")], prefix="r")
        assert unifier.merge_cost(
            left.get_tuple("l1"), right.get_tuple("r1")
        ) == 0

    def test_merging_bound_classes_costs(self):
        a, b, c, d = N("a"), N("b"), N("c"), N("d")
        unifier = Unifier({a, b}, {c, d})
        unifier.unify(a, c)  # class {a, c}
        unifier.unify(b, d)  # class {b, d}
        left = inst([(a, "x")])
        right = inst([(d, "x")], prefix="r")
        # merging {a,c} with {b,d}: 2 left nulls + 2 right nulls -> cost 2
        assert unifier.merge_cost(
            left.get_tuple("l1"), right.get_tuple("r1")
        ) == 2

    def test_already_unified_is_free(self):
        a, c = N("a"), N("c")
        unifier = Unifier({a}, {c})
        unifier.unify(a, c)
        left = inst([(a, "x")])
        right = inst([(c, "x")], prefix="r")
        assert unifier.merge_cost(
            left.get_tuple("l1"), right.get_tuple("r1")
        ) == 0


class TestRelationOrder:
    def test_selective_relation_first(self):
        from repro.core.schema import RelationSchema, Schema

        schema = Schema(
            [
                RelationSchema("Facts", ("K", "V")),
                RelationSchema("Entities", ("Id", "Name")),
            ]
        )

        def fill(instance, prefix):
            for i in range(6):
                # Facts collide heavily; Entities are near-unique.
                instance.add_row(
                    "Facts", f"{prefix}f{i}", ("shared", N(f"{prefix}n{i}"))
                )
                instance.add_row(
                    "Entities", f"{prefix}e{i}", (f"id{i}", f"name{i}")
                )

        left = Instance(schema, name="L")
        right = Instance(schema, name="R")
        fill(left, "l")
        fill(right, "r")
        pair = PreparedPair(left, right, MatchOptions.general())
        state = _MatchState(pair)
        assert _relation_order(
            state, pair.left_index, pair.right_index
        ) == ["Entities", "Facts"]

    def test_empty_relations_handled(self):
        from repro.core.schema import RelationSchema, Schema

        schema = Schema([RelationSchema("R", ("A",))])
        left = Instance(schema, name="L")
        right = Instance(schema, name="R")
        pair = PreparedPair(left, right, MatchOptions.general())
        state = _MatchState(pair)
        assert _relation_order(state, pair.left_index, pair.right_index) == [
            "R"
        ]


class TestAdmissibility:
    def _state(self):
        left = inst([(N("a"), "x"), (N("b"), "x")])
        right = inst([(N("c"), "x"), (N("d"), "x")], prefix="r")
        pair = PreparedPair(left, right, MatchOptions.general())
        return _MatchState(pair), left, right

    def test_any_policy_accepts(self):
        state, left, right = self._state()
        assert state.admissible(
            left.get_tuple("l1"), right.get_tuple("r1"), "any"
        )

    def test_zero_policy_blocks_merges(self):
        state, left, right = self._state()
        # Bind l1's null into a class with r1's.
        state.try_add(left.get_tuple("l1"), right.get_tuple("r1"), "zero")
        # Now l2 ~ r1 would merge two non-trivial classes... l2 is fresh,
        # r1's null is in a 2-null class: cost > 0.
        assert not state.admissible(
            left.get_tuple("l2"), right.get_tuple("r1"), "zero"
        )

    def test_coverage_policy_allows_first_match(self):
        state, left, right = self._state()
        state.try_add(left.get_tuple("l1"), right.get_tuple("r1"), "zero")
        # l2 unmatched: coverage admits the merging pair.
        assert state.admissible(
            left.get_tuple("l2"), right.get_tuple("r1"), "coverage"
        )
