"""MutableSignatureIndex ≡ cold ``SignatureIndex.build`` after patching.

Structural identity is the contract: same signature buckets holding the
same tuples in the same order, same pattern plans in the same order, same
probe order — so a warm comparison probing a patched index walks
*exactly* the candidates a cold comparison would.  Probing never writes
into an index, and an edit never changes a view taken before it.
"""

from __future__ import annotations

import random

import pytest

from repro.algorithms.signature import (
    MutableSignatureIndex,
    SignatureIndex,
    signature_compare,
)
from repro.algorithms.pair import PreparedPair
from repro.core.instance import Instance
from repro.core.tuples import Tuple
from repro.core.values import LabeledNull
from repro.mappings.constraints import MatchOptions

from .conftest import rand_batch, rand_instance

N = LabeledNull


def view_structure(rel):
    """Id-level snapshot of one relation's three structures."""
    return {
        "sigmap": {
            key: tuple(t.tuple_id for t in bucket)
            for key, bucket in rel.sigmap.items()
        },
        "plans": rel.plans,
        "probe_order": tuple(t.tuple_id for t in rel.probe_order),
    }


def structure_of(index, instance):
    """Id-level snapshot of all three structures, per relation."""
    return {
        name: view_structure(index.relation(name))
        for name in instance.schema.relation_names()
    }


class TestStructuralEquality:
    @pytest.mark.parametrize("trial", range(8))
    def test_patched_equals_cold_build(self, trial):
        rng = random.Random(7700 + trial)
        instance = rand_instance(rng, "r", "NR", rng.randint(3, 14))
        index = MutableSignatureIndex.build(instance)
        counter = [0]
        for _ in range(4):
            batch = rand_batch(rng, instance, counter)
            instance = batch.apply(instance)
            index.apply_batch(batch, instance)
            cold = SignatureIndex.build(instance)
            assert structure_of(index, instance) == structure_of(
                cold, instance
            )
            assert index.matches(instance)

    def test_update_keeps_bucket_position(self):
        """An updated tuple keeps its rank, exactly as an in-place edit of
        the relation (and a re-build of the edited instance) would."""
        instance = Instance.from_rows(
            "R", ("A", "B"), [("x", 1), ("x", 2), ("x", 3)], id_prefix="t"
        )
        index = MutableSignatureIndex.build(instance)
        schema = instance.schema.relation("R")
        old = instance.get_tuple("t2")
        new = Tuple("t2", schema, ("x", 9))
        index.replace_tuple(old, new)
        edited = Instance(instance.schema)
        for t in instance.tuples():
            edited.add(new if t.tuple_id == "t2" else t)
        assert structure_of(index, edited) == structure_of(
            SignatureIndex.build(edited), edited
        )

    def test_matches_detects_divergence(self):
        instance = Instance.from_rows("R", ("A",), [("x",), ("y",)])
        index = MutableSignatureIndex.build(instance)
        assert index.matches(instance)
        grown = Instance.from_rows("R", ("A",), [("x",), ("y",), ("z",)])
        assert not index.matches(grown)

    def test_duplicate_insert_rejected(self):
        instance = Instance.from_rows("R", ("A",), [("x",)])
        index = MutableSignatureIndex.build(instance)
        with pytest.raises(ValueError):
            index.insert_tuple(instance.get_tuple("t1"))


class TestDropInCompatibility:
    def test_signature_compare_accepts_patched_index(self, rng):
        left = rand_instance(rng, "l", "NL", 10)
        right = rand_instance(rng, "r", "NR", 10)
        batch = rand_batch(rng, right, [0])
        new_right = batch.apply(right)
        index = MutableSignatureIndex.build(right)
        index.apply_batch(batch, new_right)
        pair = PreparedPair(left, new_right, right_index=index)
        via_patched = signature_compare(left, new_right, pair=pair)
        cold = signature_compare(left, new_right)
        assert via_patched.similarity == cold.similarity


class TestPlanMaintenance:
    """Plans are re-derived exactly when a pattern appears or vanishes.

    The schema lists its attributes out of lexicographic order, so a
    plan's ``(attribute, position)`` pairs differ from schema order and a
    positional slip would show in the keys.
    """

    def test_pattern_appears_and_vanishes(self):
        instance = Instance.from_rows(
            "R", ("C", "A", "B"),
            [("c1", "a1", "b1"), ("c2", N("N1"), "b2")], id_prefix="t",
        )
        schema = instance.schema.relation("R")
        index = MutableSignatureIndex.build(instance)
        current = {t.tuple_id: t for t in instance.tuples()}

        def check(expected_names):
            edited = Instance(instance.schema)
            for t in current.values():
                edited.add(t)
            assert structure_of(index, edited) == structure_of(
                SignatureIndex.build(edited), edited
            )
            plans = index.relation("R").plans
            assert [tuple(a for a, _ in pairs) for _, pairs in plans] == (
                expected_names
            )
            for mask, pairs in plans:
                assert mask == sum(1 << p for _, p in pairs)
            return plans

        check([("A", "B", "C"), ("B", "C")])
        # {A, B, C} vanishes (1 -> 0) and {A, C} appears (0 -> 1).
        new = Tuple("t1", schema, ("c1", "a1", N("N2")))
        index.replace_tuple(current["t1"], new)
        current["t1"] = new
        plans = check([("A", "C"), ("B", "C")])
        assert plans[0][1] == (("A", 1), ("C", 0))
        # {A, B} appears.
        new = Tuple("t3", schema, (N("N3"), "a3", "b3"))
        index.insert_tuple(new)
        current["t3"] = new
        check([("A", "B"), ("A", "C"), ("B", "C")])
        # {B, C} loses its only tuple.
        index.delete_tuple(current.pop("t2"))
        check([("A", "B"), ("A", "C")])
        # {A, B, C} comes back, largest first.
        new = Tuple("t4", schema, ("c4", "a4", "b4"))
        index.insert_tuple(new)
        current["t4"] = new
        plans = check([("A", "B", "C"), ("A", "B"), ("A", "C")])
        # An edit that keeps every pattern's count above zero keeps the
        # compiled plans.
        new = Tuple("t3", schema, (N("N4"), "a5", "b5"))
        index.replace_tuple(current["t3"], new)
        current["t3"] = new
        assert check([("A", "B", "C"), ("A", "B"), ("A", "C")]) is plans


class TestViews:
    def test_edit_never_changes_an_earlier_view(self, rng):
        instance = rand_instance(rng, "r", "NR", 12)
        index = MutableSignatureIndex.build(instance)
        views = {
            name: index.relation(name)
            for name in instance.schema.relation_names()
        }
        before = {name: view_structure(v) for name, v in views.items()}
        counter = [0]
        for _ in range(3):
            batch = rand_batch(rng, instance, counter)
            instance = batch.apply(instance)
            index.apply_batch(batch, instance)
            assert {
                name: view_structure(v) for name, v in views.items()
            } == before
            assert structure_of(index, instance) == structure_of(
                SignatureIndex.build(instance), instance
            )

    def test_view_is_shared_until_the_next_edit(self):
        instance = Instance.from_rows("R", ("A",), [("x",), ("y",)])
        index = MutableSignatureIndex.build(instance)
        view = index.relation("R")
        assert index.relation("R") is view
        index.insert_tuple(
            Tuple("t9", instance.schema.relation("R"), ("z",))
        )
        assert index.relation("R") is not view
        assert [t.tuple_id for t in view.probe_order] == ["t1", "t2"]


class TestSharedIndexIsReadOnly:
    """Probing consumes buckets in a call-local overlay, never the index."""

    @pytest.mark.parametrize(
        "options",
        [
            MatchOptions.versioning(),
            MatchOptions.data_repair(),
            MatchOptions.universal_vs_core(),
        ],
        ids=["versioning", "data_repair", "universal_vs_core"],
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_prebuilt_indexes_survive_comparisons(self, options, seed):
        rng = random.Random(9900 + seed)
        left = rand_instance(rng, "l", "NL", 12)
        right = rand_instance(rng, "r", "NR", 12)
        left_index = SignatureIndex.build(left)
        right_index = MutableSignatureIndex.build(right)
        left_before = structure_of(left_index, left)
        right_before = structure_of(right_index, right)
        first = signature_compare(
            left, right, options,
            pair=PreparedPair(
                left, right, options,
                left_index=left_index, right_index=right_index,
            ),
        )
        assert structure_of(left_index, left) == left_before
        assert structure_of(right_index, right) == right_before
        second = signature_compare(
            left, right, options,
            pair=PreparedPair(
                left, right, options,
                left_index=left_index, right_index=right_index,
            ),
        )
        assert (
            second.stats["pairs_after_signature"]
            == first.stats["pairs_after_signature"]
        )
        assert sorted(second.match.m) == sorted(first.match.m)
        assert second.similarity == first.similarity
        cold = signature_compare(left, right, options)
        assert sorted(cold.match.m) == sorted(first.match.m)
