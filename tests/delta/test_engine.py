"""The warm comparison engine: validity, staleness bounds, fallbacks.

Two invariants carry the whole design and are property-tested here:

1. **Validity** — after any chain of advances, the session's similarity
   equals ``score_match`` of the match it reports, bit for bit (both run
   one score algebra and sum in instance order, so checks use ``==``).
   The warm score is never an estimate; only its *optimality* is
   approximate.
2. **Honest staleness** — a cold re-run of the signature algorithm on
   the evolved pair never beats the warm score by more than the
   reported ``staleness_bound``.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.algorithms.signature import signature_compare
from repro.core.errors import DeltaError
from repro.core.instance import Instance
from repro.core.schema import RelationSchema, Schema
from repro.core.values import LabeledNull
from repro.delta.batch import DeltaBatch, TupleOp
from repro.delta.engine import (
    DeltaSession,
    MODE_COLD,
    MODE_COLD_FALLBACK,
    MODE_INCREMENTAL,
    MODE_NOOP,
    MODE_WARM_START,
)
from repro.mappings.constraints import MatchOptions
from repro.scoring.match_score import score_match

from .conftest import rand_batch, rand_instance

OPTION_SETS = [
    ("general", MatchOptions.general(), True),
    ("versioning", MatchOptions.versioning(), True),
    ("general-noalign", MatchOptions.general(), False),
]

PRESETS = ["general", "versioning", "data_repair", "universal_vs_core",
           "universal_vs_universal"]

SHARED_SCHEMA = Schema(
    (RelationSchema("R", ("A0", "A1")), RelationSchema("S", ("B0", "B1")))
)


def close(a, b):
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def assert_same_match(result, cold):
    """The session committed exactly ``signature_compare``'s pairs."""
    assert sorted(result.match.m) == sorted(cold.match.m)
    assert close(result.similarity, cold.similarity)


def shared_value_pair():
    """A pair whose relations ``R`` and ``S`` share ``"b"``, ``NL1``, ``NR2``.

    No pair shares a maximal signature, so completion commits every pair.
    Completing ``R`` before ``S`` (schema order) binds ``NR2`` to ``"b"``
    and ``NL1`` to ``"a"`` through ``rr0``, which leaves ``rs0``
    unmatched; completing ``S`` first commits ``(ls0, rs0)`` instead, for
    a different score.
    """
    nl0, nl1, nr2 = LabeledNull("NL0"), LabeledNull("NL1"), LabeledNull("NR2")
    left = Instance(SHARED_SCHEMA, name="l")
    left.add_row("R", "lr0", ("b", nl1))
    left.add_row("R", "lr1", ("b", nl0))
    left.add_row("S", "ls0", ("b", nl1))
    right = Instance(SHARED_SCHEMA, name="r")
    right.add_row("R", "rr0", (nr2, "a"))
    right.add_row("S", "rs0", (nr2, "b"))
    return left, right


class TestColdStart:
    @pytest.mark.parametrize("name,options,align", OPTION_SETS,
                             ids=[n for n, _, _ in OPTION_SETS])
    def test_cold_setup_reproduces_signature_compare(self, rng, name,
                                                     options, align):
        left = rand_instance(rng, "l", "NL", 10)
        right = rand_instance(rng, "r", "NR", 10)
        cold = signature_compare(left, right, options,
                                 align_preference=align)
        session = DeltaSession(left, right, options,
                               align_preference=align)
        result = session.last_result
        assert result.stats["delta_mode"] == MODE_COLD
        assert_same_match(result, cold)
        assert result.similarity == score_match(result.match, lam=options.lam)

    @pytest.mark.parametrize("align", [True, False],
                             ids=["align", "noalign"])
    @pytest.mark.parametrize("preset", PRESETS)
    def test_cold_start_completes_in_schema_order(self, preset, align):
        """Constants and nulls shared across relations make the completion
        order visible: ``signature_compare`` completes relations in schema
        order, and so must the session."""
        options = getattr(MatchOptions, preset)()
        left, right = shared_value_pair()
        cold = signature_compare(left, right, options,
                                 align_preference=align)
        result = DeltaSession(left, right, options,
                              align_preference=align).last_result
        assert result.stats["delta_mode"] == MODE_COLD
        assert_same_match(result, cold)

    def test_cold_fallback_completes_in_schema_order(self):
        left, right = shared_value_pair()
        start = Instance(SHARED_SCHEMA, name="r")
        start.add_row("R", "rr0", ("z", "z"))
        start.add_row("S", "rs0", ("z", "z"))
        session = DeltaSession(left, start)
        batch = DeltaBatch([
            TupleOp("update", t.relation.name, t.tuple_id, values=t.values,
                    old_values=("z", "z"))
            for t in right.tuples()
        ])
        result = session.advance(batch)
        assert result.stats["delta_mode"] == MODE_COLD_FALLBACK
        assert_same_match(result, signature_compare(left, right))

    def test_result_metadata(self, rng):
        left = rand_instance(rng, "l", "NL", 6)
        right = rand_instance(rng, "r", "NR", 6)
        result = DeltaSession(left, right).last_result
        assert result.algorithm == "signature-delta"
        assert 0.0 <= result.stats["staleness_bound"] <= 1.0
        assert result.stats["ops"] == {
            "inserted": 0, "deleted": 0, "updated": 0
        }


class TestAdvance:
    @pytest.mark.parametrize("trial", range(6))
    def test_warm_score_is_exact_and_cold_within_bound(self, trial):
        rng = random.Random(9000 + trial)
        left = rand_instance(rng, "l", "NL", rng.randint(4, 12))
        right = rand_instance(rng, "r", "NR", rng.randint(4, 12))
        name, options, align = OPTION_SETS[trial % len(OPTION_SETS)]
        session = DeltaSession(left, right, options,
                               align_preference=align)
        counter = [0]
        current = right
        for _ in range(4):
            batch = rand_batch(rng, current, counter)
            if batch.is_empty:
                continue
            result = session.advance(batch)
            current = batch.apply(current)
            # Validity: reported similarity == rescoring the match.
            assert result.similarity == score_match(
                result.match, lam=options.lam
            )
            # The match really is over (left, evolved right).
            assert result.match.right.ids() == current.ids()
            # Honesty: cold never beats warm + bound.
            cold = signature_compare(left, current, options,
                                     align_preference=align)
            bound = result.stats["staleness_bound"]
            assert cold.similarity <= result.similarity + bound + 1e-9

    def test_noop_batch(self, rng):
        left = rand_instance(rng, "l", "NL", 6)
        right = rand_instance(rng, "r", "NR", 6)
        session = DeltaSession(left, right)
        before = session.last_result.similarity
        result = session.advance(DeltaBatch())
        assert result.stats["delta_mode"] == MODE_NOOP
        assert result.similarity == before

    def test_incremental_mode_and_counters(self, rng):
        left = rand_instance(rng, "l", "NL", 10)
        right = rand_instance(rng, "r", "NR", 10)
        session = DeltaSession(left, right)
        batch = rand_batch(rng, right, [0])
        result = session.advance(batch)
        stats = result.stats
        assert stats["delta_mode"] == MODE_INCREMENTAL
        assert stats["ops"] == batch.summary()
        assert stats["relations_touched"] == sorted(
            batch.relations_touched()
        )
        assert stats["reused_pairs"] >= 0
        assert stats["certified_exact"] == (
            stats["staleness_bound"] <= 1e-12
        )

    def test_certified_exact_means_cold_equal(self):
        """When the sketch bound collapses to zero the warm score is
        certified optimal-for-the-algorithm; cold must agree."""
        left = Instance.from_rows(
            "R", ("A",), [("x",), ("y",)], id_prefix="l"
        )
        right = Instance.from_rows(
            "R", ("A",), [("x",), ("z",)], id_prefix="r"
        )
        session = DeltaSession(left, right)
        batch = DeltaBatch(
            [TupleOp("update", "R", "r2", values=("y",),
                     old_values=("z",))]
        )
        result = session.advance(batch)
        if result.stats["certified_exact"]:
            cold = signature_compare(left, batch.apply(right))
            assert close(result.similarity, cold.similarity)
        assert close(result.similarity, 1.0)

    def test_cold_fallback_on_large_batch(self, rng):
        left = rand_instance(rng, "l", "NL", 8)
        right = rand_instance(rng, "r", "NR", 8)
        session = DeltaSession(left, right)
        # Delete most of the right side: way past fallback_fraction.
        batch = DeltaBatch(
            TupleOp("delete", t.relation.name, t.tuple_id,
                    old_values=t.values)
            for t in list(right.tuples())[: (3 * len(right)) // 4]
        )
        result = session.advance(batch)
        assert result.stats["delta_mode"] == MODE_COLD_FALLBACK
        assert_same_match(result, signature_compare(left, batch.apply(right)))

    def test_chained_advances_after_fallback_stay_valid(self, rng):
        left = rand_instance(rng, "l", "NL", 8)
        right = rand_instance(rng, "r", "NR", 8)
        session = DeltaSession(left, right, fallback_fraction=0.0)
        counter = [0]
        current = right
        for _ in range(3):
            batch = rand_batch(rng, current, counter)
            if batch.is_empty:
                continue
            result = session.advance(batch)
            current = batch.apply(current)
            assert result.stats["delta_mode"] == MODE_COLD_FALLBACK
            assert_same_match(result, signature_compare(left, current))


class TestFromResult:
    def test_replay_preserves_similarity(self, rng):
        left = rand_instance(rng, "l", "NL", 10)
        right = rand_instance(rng, "r", "NR", 10)
        cold = signature_compare(left, right)
        session = DeltaSession.from_result(cold)
        warm = session.last_result
        assert warm.stats["delta_mode"] == MODE_WARM_START
        assert close(warm.similarity, cold.similarity)

    def test_replayed_session_advances(self, rng):
        left = rand_instance(rng, "l", "NL", 10)
        right = rand_instance(rng, "r", "NR", 10)
        session = DeltaSession.from_result(signature_compare(left, right))
        batch = rand_batch(rng, session.right, [0])
        result = session.advance(batch)
        assert result.stats["delta_mode"] in (
            MODE_INCREMENTAL, MODE_COLD_FALLBACK
        )
        assert result.similarity == score_match(
            result.match, lam=result.options.lam
        )


class TestValidation:
    def test_advance_rejects_non_batch(self, rng):
        left = rand_instance(rng, "l", "NL", 4)
        right = rand_instance(rng, "r", "NR", 4)
        session = DeltaSession(left, right)
        with pytest.raises(DeltaError, match="expects a DeltaBatch"):
            session.advance([("insert", "R", "x")])

    def test_insert_colliding_with_left_id_rejected(self, rng):
        left = rand_instance(rng, "l", "NL", 4)
        right = rand_instance(rng, "r", "NR", 4)
        session = DeltaSession(left, right)
        left_id = sorted(left.ids())[0]
        batch = DeltaBatch(
            [TupleOp("insert", "R", left_id, values=("a", 1, "x"))]
        )
        with pytest.raises(DeltaError, match="collides with a left"):
            session.advance(batch)

    def test_right_null_colliding_with_left_null_rejected(self, rng):
        left = rand_instance(rng, "l", "NL", 6)
        right = rand_instance(rng, "r", "NR", 6)
        session = DeltaSession(left, right)
        left_null = sorted(left.vars(), key=lambda n: n.label)[0]
        batch = DeltaBatch(
            [TupleOp("insert", "R", "fresh1",
                     values=(left_null, 1, "x"))]
        )
        with pytest.raises(DeltaError, match="left-instance null"):
            session.advance(batch)
