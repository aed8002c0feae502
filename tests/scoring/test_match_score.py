"""Golden tests for the scoring cascade against the paper's worked examples.

Examples 5.7, 5.8, and 5.10 are reproduced exactly.  Example 5.9 (Fig. 6) is
reproduced with the score mandated by Def. 5.5/Eq. 6 — see the erratum note
in EXPERIMENTS.md: the paper's stated ``(12+4λ)/24`` ignores the ⊓ penalty
its own definition imposes on the non-injective ``N1, N2 → Va`` mapping.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.instance import Instance
from repro.core.values import LabeledNull
from repro.mappings.instance_match import InstanceMatch
from repro.mappings.tuple_mapping import TupleMapping
from repro.mappings.value_mapping import ValueMapping
from repro.scoring.match_score import (
    score_match,
    score_match_with_breakdown,
    tuple_pair_score,
    verify_score_requirements,
)

LAM = 0.5


def nulls(*labels):
    return tuple(LabeledNull(x) for x in labels)


class TestExample57:
    """Isomorphic pair: score 1 (Eq. 2)."""

    def _match(self):
        N1, N2, Na, Nb = nulls("N1", "N2", "Na", "Nb")
        left = Instance.from_rows(
            "R", ("Id", "Year", "Org"),
            [(N1, 1975, "VLDB End."), (N2, 1976, "VLDB End.")],
            id_prefix="l",
        )
        right = Instance.from_rows(
            "R", ("Id", "Year", "Org"),
            [(Na, 1975, "VLDB End."), (Nb, 1976, "VLDB End.")],
            id_prefix="r",
        )
        return InstanceMatch(
            left, right,
            ValueMapping({N1: Na, N2: Nb}),
            ValueMapping(),
            TupleMapping([("l1", "r1"), ("l2", "r2")]),
        )

    def test_score_is_one(self):
        assert score_match(self._match(), lam=LAM) == pytest.approx(1.0)

    def test_breakdown_tuple_scores(self):
        breakdown = score_match_with_breakdown(self._match(), lam=LAM)
        assert all(
            s == pytest.approx(3.0)
            for s in breakdown.left_tuple_scores.values()
        )
        assert breakdown.denominator == 12


class TestExample58:
    """Null approximating a constant: score (8 + 4λ)/12."""

    def _match(self):
        N1, N2, Na, Nb, V1 = nulls("N1", "N2", "Na", "Nb", "V1")
        left = Instance.from_rows(
            "R", ("Id", "Year", "Org"),
            [(N1, 1975, "VLDB End."), (N2, 1976, "VLDB End.")],
            id_prefix="l",
        )
        right = Instance.from_rows(
            "R", ("Id", "Year", "Org"),
            [(Na, 1975, V1), (Nb, 1976, V1)],
            id_prefix="r",
        )
        return InstanceMatch(
            left, right,
            ValueMapping({N1: Na, N2: Nb}),
            ValueMapping({V1: "VLDB End."}),
            TupleMapping([("l1", "r1"), ("l2", "r2")]),
        )

    def test_paper_score(self):
        expected = (8 + 4 * LAM) / 12
        assert score_match(self._match(), lam=LAM) == pytest.approx(expected)

    def test_lambda_zero_drops_null_const_credit(self):
        assert score_match(self._match(), lam=0.0) == pytest.approx(8 / 12)


class TestExample510:
    """Nulls vs constants, including the single-null fold S''."""

    def test_s_sprime(self):
        M1, M2 = nulls("M1", "M2")
        s = Instance.from_rows(
            "S", ("Dept", "Name"), [("A", "Mike"), ("A", "Laure")],
            id_prefix="l",
        )
        s_prime = Instance.from_rows(
            "S", ("Dept", "Name"), [("A", M1), ("A", M2)], id_prefix="r"
        )
        match = InstanceMatch(
            s, s_prime,
            ValueMapping(),
            ValueMapping({M1: "Mike", M2: "Laure"}),
            TupleMapping([("l1", "r1"), ("l2", "r2")]),
        )
        assert score_match(match, lam=LAM) == pytest.approx((4 + 4 * LAM) / 8)

    def test_s_sdoubleprime(self):
        (M3,) = nulls("M3")
        s = Instance.from_rows(
            "S", ("Dept", "Name"), [("A", "Mike"), ("A", "Laure")],
            id_prefix="l",
        )
        s_double = Instance.from_rows(
            "S", ("Dept", "Name"), [("A", M3)], id_prefix="r"
        )
        match = InstanceMatch(
            s, s_double,
            ValueMapping(),
            ValueMapping({M3: "Mike"}),
            TupleMapping([("l1", "r1")]),
        )
        assert score_match(match, lam=LAM) == pytest.approx((2 + 2 * LAM) / 6)

    def test_ranking_preserved(self):
        """S~S' must beat S~S'' (the paper's point)."""
        assert (4 + 4 * LAM) / 8 > (2 + 2 * LAM) / 6


class TestNonInjectivePenalty:
    """The ⊓ penalty on folding two nulls onto one (motivating Eq. 3)."""

    def test_folded_nulls_score_below_one(self):
        N1, N2, N5 = nulls("N1", "N2", "N5")
        left = Instance.from_rows("R", ("A",), [(N1,), (N2,)], id_prefix="l")
        right = Instance.from_rows("R", ("A",), [(N5,), (N5,)], id_prefix="r")
        match = InstanceMatch(
            left, right,
            ValueMapping({N1: N5, N2: N5}),
            ValueMapping(),
            TupleMapping([("l1", "r1"), ("l2", "r2")]),
        )
        # Cell score = 2 / (⊓(Ni) + ⊓(N5)) = 2 / (2 + 1) = 2/3 each:
        # the left fiber {N1, N2} has size 2, the right fiber {N5} size 1.
        assert score_match(match, lam=LAM) == pytest.approx(2 / 3)


class TestTupleScoreAveraging:
    """Def. 5.2: a tuple's score averages over its image."""

    def test_non_injective_image_averages(self):
        left = Instance.from_rows("R", ("A",), [("x",)], id_prefix="l")
        right = Instance.from_rows("R", ("A",), [("x",), ("x",)], id_prefix="r")
        match = InstanceMatch(
            left, right, m=TupleMapping([("l1", "r1"), ("l1", "r2")])
        )
        breakdown = score_match_with_breakdown(match, lam=LAM)
        # l1 is matched to two tuples, both perfect: average stays 1 (arity).
        assert breakdown.left_tuple_scores["l1"] == pytest.approx(1.0)
        # numerator = 1 (left) + 1 + 1 (right) = 3, denominator = 3.
        assert breakdown.score == pytest.approx(1.0)

    def test_unmatched_tuple_scores_zero(self):
        left = Instance.from_rows("R", ("A",), [("x",), ("q",)], id_prefix="l")
        right = Instance.from_rows("R", ("A",), [("x",)], id_prefix="r")
        match = InstanceMatch(left, right, m=TupleMapping([("l1", "r1")]))
        breakdown = score_match_with_breakdown(match, lam=LAM)
        assert breakdown.left_tuple_scores["l2"] == 0.0


class TestPairScore:
    def test_pair_score_sums_cells(self):
        N1, Na = nulls("N1", "Na")
        left = Instance.from_rows(
            "R", ("A", "B", "C"), [("x", N1, "z")], id_prefix="l"
        )
        right = Instance.from_rows(
            "R", ("A", "B", "C"), [("x", Na, "z")], id_prefix="r"
        )
        match = InstanceMatch(
            left, right, ValueMapping({N1: Na}), ValueMapping(),
            TupleMapping([("l1", "r1")]),
        )
        score = tuple_pair_score(
            match, left.get_tuple("l1"), right.get_tuple("r1"), lam=LAM
        )
        assert score == pytest.approx(3.0)

    def test_mismatching_images_score_zero_cells(self):
        left = Instance.from_rows("R", ("A", "B"), [("x", "u")], id_prefix="l")
        right = Instance.from_rows("R", ("A", "B"), [("x", "v")], id_prefix="r")
        match = InstanceMatch(left, right, m=TupleMapping([("l1", "r1")]))
        score = tuple_pair_score(
            match, left.get_tuple("l1"), right.get_tuple("r1"), lam=LAM
        )
        assert score == pytest.approx(1.0)  # only A matches


class TestEdgeCases:
    def test_empty_instances_score_one(self):
        left = Instance.from_rows("R", ("A",), [], id_prefix="l")
        right = Instance.from_rows("R", ("A",), [], id_prefix="r")
        assert score_match(InstanceMatch(left, right), lam=LAM) == 1.0

    def test_empty_mapping_scores_zero(self):
        left = Instance.from_rows("R", ("A",), [("x",)], id_prefix="l")
        right = Instance.from_rows("R", ("A",), [("y",)], id_prefix="r")
        assert score_match(InstanceMatch(left, right), lam=LAM) == 0.0

    def test_invalid_lambda_rejected(self):
        from repro.core.errors import ScoringError

        left = Instance.from_rows("R", ("A",), [("x",)], id_prefix="l")
        right = Instance.from_rows("R", ("A",), [("x",)], id_prefix="r")
        with pytest.raises(ScoringError):
            score_match(InstanceMatch(left, right), lam=1.5)

    def test_symmetry_checker(self):
        left = Instance.from_rows("R", ("A",), [("x",)], id_prefix="l")
        right = Instance.from_rows("R", ("A",), [("x",)], id_prefix="r")
        match = InstanceMatch(left, right, m=TupleMapping([("l1", "r1")]))
        verify_score_requirements(left, right, match, lam=LAM)


class TestRelationScores:
    """Per-relation decomposition of the match score."""

    def test_single_relation_equals_total(self):
        left = Instance.from_rows("R", ("A",), [("x",), ("y",)], id_prefix="l")
        right = Instance.from_rows("R", ("A",), [("x",), ("z",)], id_prefix="r")
        match = InstanceMatch(left, right, m=TupleMapping([("l1", "r1")]))
        breakdown = score_match_with_breakdown(match, lam=LAM)
        assert breakdown.relation_scores == {"R": pytest.approx(0.5)}

    def test_multi_relation_decomposition(self):
        from repro.core.schema import RelationSchema, Schema

        schema = Schema(
            [RelationSchema("Good", ("A",)), RelationSchema("Bad", ("B",))]
        )
        left = Instance(schema, name="L")
        left.add_row("Good", "l1", ("x",))
        left.add_row("Bad", "l2", ("p",))
        right = Instance(schema, name="R")
        right.add_row("Good", "r1", ("x",))
        right.add_row("Bad", "r2", ("q",))
        match = InstanceMatch(left, right, m=TupleMapping([("l1", "r1")]))
        breakdown = score_match_with_breakdown(match, lam=LAM)
        assert breakdown.relation_scores["Good"] == pytest.approx(1.0)
        assert breakdown.relation_scores["Bad"] == pytest.approx(0.0)
        # Overall score is the size-weighted combination.
        assert breakdown.score == pytest.approx(0.5)

    def test_empty_relation_scores_one(self):
        from repro.core.schema import RelationSchema, Schema

        schema = Schema(
            [RelationSchema("R", ("A",)), RelationSchema("Empty", ("B",))]
        )
        left = Instance(schema, name="L")
        left.add_row("R", "l1", ("x",))
        right = Instance(schema, name="R")
        right.add_row("R", "r1", ("x",))
        match = InstanceMatch(left, right, m=TupleMapping([("l1", "r1")]))
        breakdown = score_match_with_breakdown(match, lam=LAM)
        assert breakdown.relation_scores["Empty"] == 1.0


# An n:m match whose left tuple l2 has an image of three tuples: a float sum
# of three terms depends on their order, and a set's order follows the
# string hashes.  Capital-letter cells are labeled nulls.
_NM_SCRIPT = """
from repro.algorithms.unifier import Unifier
from repro.core.instance import Instance
from repro.core.values import LabeledNull
from repro.mappings.instance_match import InstanceMatch
from repro.mappings.tuple_mapping import TupleMapping
from repro.scoring.match_score import score_match

def rows(*specs):
    return [tuple(LabeledNull(v) if v.isupper() else v for v in spec.split())
            for spec in specs]

left = Instance.from_rows("R", ("A", "B", "C"),
                          rows("a N1 a", "N2 N3 b"), id_prefix="l")
right = Instance.from_rows("R", ("A", "B", "C"), rows(
    "R4 R5 b", "a R6 b", "a b b", "b R7 R8", "b a b", "a R9 a"),
    id_prefix="r")
pairs = [("l1", "r6"), ("l2", "r1"), ("l2", "r2"), ("l2", "r3")]
unifier = Unifier.for_instances(left, right)
for left_id, right_id in pairs:
    unifier.unify_tuples(left.get_tuple(left_id), right.get_tuple(right_id))
h_l, h_r = unifier.to_value_mappings()
print(repr(score_match(InstanceMatch(left, right, h_l, h_r, TupleMapping(pairs)))))
"""


class TestHashSeedIndependence:
    def test_n_to_m_score_is_the_same_under_every_hash_seed(self):
        src = str(Path(__file__).resolve().parents[2] / "src")
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            outputs.append(subprocess.run(
                [sys.executable, "-c", _NM_SCRIPT], env=env, check=True,
                capture_output=True, text=True,
            ).stdout)
        assert outputs[0] == outputs[1]
