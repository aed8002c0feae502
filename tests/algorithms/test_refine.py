"""Tests for local-search match refinement."""

import pytest

from repro.core.instance import Instance
from repro.core.values import LabeledNull
from repro.mappings.constraints import MatchOptions
from repro.algorithms.exact import exact_compare
from repro.algorithms.refine import refine_match
from repro.algorithms.signature import signature_compare

N = LabeledNull
LAM = 0.5


def inst(rows, attrs=("A", "B"), prefix="l"):
    return Instance.from_rows("R", attrs, rows, id_prefix=prefix)


class TestRefinement:
    def test_never_decreases_score(self):
        import random

        rng = random.Random(31)
        for trial in range(10):
            def row(side, i):
                return tuple(
                    N(f"{side}{trial}_{i}_{j}")
                    if rng.random() < 0.5
                    else rng.choice("abc")
                    for j in range(2)
                )

            left = inst([row("L", i) for i in range(4)], prefix="l")
            right = inst([row("R", i) for i in range(4)], prefix="r")
            options = MatchOptions.versioning(lam=LAM)
            base = signature_compare(left, right, options)
            refined = refine_match(base)
            assert refined.similarity >= base.similarity - 1e-12
            assert refined.match.is_complete()

    def test_closes_greedy_gaps_toward_exact(self):
        import random

        rng = random.Random(77)
        gaps_before = 0.0
        gaps_after = 0.0
        for trial in range(12):
            def row(side, i):
                return tuple(
                    N(f"{side}{trial}_{i}_{j}")
                    if rng.random() < 0.45
                    else rng.choice("ab")
                    for j in range(2)
                )

            left = inst([row("L", i) for i in range(4)], prefix="l")
            right = inst([row("R", i) for i in range(4)], prefix="r")
            options = MatchOptions.versioning(lam=LAM)
            exact = exact_compare(left, right, options).similarity
            base = signature_compare(left, right, options)
            refined = refine_match(base)
            assert refined.similarity <= exact + 1e-9
            gaps_before += exact - base.similarity
            gaps_after += exact - refined.similarity
        assert gaps_after <= gaps_before + 1e-12

    def test_adds_missed_match(self):
        # Greedy can leave an unmatched-but-matchable tuple when a probe
        # consumed its partner; a trivially constructed partial result:
        left = inst([("x", "u"), ("y", "v")], prefix="l")
        right = inst([("x", "u"), ("y", "v")], prefix="r")
        options = MatchOptions.versioning(lam=LAM)
        base = signature_compare(left, right, options)
        # Manually cripple the match to simulate a greedy miss.
        from repro.mappings.tuple_mapping import TupleMapping

        base.match.m = TupleMapping([("l1", "r1")])
        base.similarity = 0.5
        refined = refine_match(base)
        assert refined.similarity == pytest.approx(1.0)
        assert len(refined.match.m) == 2

    def test_respects_injectivity(self):
        left = inst([("x", "u"), ("x", "u")], prefix="l")
        right = inst([("x", "u")], prefix="r")
        options = MatchOptions.versioning(lam=LAM)
        base = signature_compare(left, right, options)
        refined = refine_match(base)
        assert refined.match.m.is_fully_injective()

    def test_stats_and_labels(self):
        left = inst([("x", "u")], prefix="l")
        right = inst([("x", "u")], prefix="r")
        base = signature_compare(left, right, MatchOptions.versioning())
        refined = refine_match(base)
        assert refined.algorithm == "signature+refine"
        assert "refine_moves_tried" in refined.stats
        assert refined.stats["refine_gain"] >= 0.0

    def test_budget_respected(self):
        left = inst([(N(f"L{i}"), "u") for i in range(6)], prefix="l")
        right = inst([(N(f"R{i}"), "u") for i in range(6)], prefix="r")
        base = signature_compare(left, right, MatchOptions.versioning())
        refined = refine_match(base, move_budget=5)
        assert refined.stats["refine_moves_tried"] <= 5


class TestMoveBound:
    def test_settles_most_moves_on_a_versioning_pair(self):
        # A 30-row modCell-5% pair: almost every climb move is a drop that
        # loses more than it can gain, or an add that conflicts.
        from repro.core.instance import prepare_for_comparison
        from repro.datagen.perturb import PerturbationConfig, perturb
        from repro.datagen.synthetic import generate_dataset

        scenario = perturb(
            generate_dataset("doct", rows=30, seed=0),
            PerturbationConfig.mod_cell(5.0, seed=0),
        )
        left, right = prepare_for_comparison(scenario.source, scenario.target)
        base = signature_compare(left, right, MatchOptions.versioning())
        stats = refine_match(base).stats
        assert stats["refine_moves_tried"] > 0
        assert (
            stats["refine_moves_pruned"] >= 0.9 * stats["refine_moves_tried"]
        )

    def test_arity_zero_relations_are_not_bounded(self):
        # Zero cells score 1 with no per-tuple breakdown to bound drops by.
        left = Instance.from_rows("R", (), [(), ()], id_prefix="l")
        right = Instance.from_rows("R", (), [()], id_prefix="r")
        base = signature_compare(left, right, MatchOptions.general())
        refined = refine_match(base)
        assert refined.similarity == 1.0
        assert refined.stats["refine_moves_pruned"] == 0

    def test_drop_gain_is_counted_for_both_tuples(self):
        # (l6, r6) chains five otherwise separate null pairs into one class
        # (cells score 2/10); dropping it lifts each cell to 1.  Each pair's
        # 0.8 reaches both of its tuples, so the drop gains 8 against a
        # loss of 6 and wins; the optimistic gain counted once (5) would
        # not cover the loss and would settle the winning drop.
        from repro.algorithms.refine import _evaluate, _Incumbent

        attrs = tuple(f"A{i}" for i in range(7))

        def row(null, column):
            return tuple(null if i == column else "c" for i in range(7))

        left = Instance.from_rows(
            "R", attrs,
            [row(N(f"L{i}"), i) for i in range(5)]
            + [tuple(N(f"L{i}") for i in range(5)) + ("d", "d")],
            id_prefix="l",
        )
        right = Instance.from_rows(
            "R", attrs,
            [row(N(f"R{i}"), i) for i in range(5)]
            + [tuple(N(f"R{(i + 1) % 5}") for i in range(5)) + ("d", "d")],
            id_prefix="r",
        )
        pairs = frozenset((f"l{i}", f"r{i}") for i in range(1, 7))
        nulls = (frozenset(left.vars()), frozenset(right.vars()))
        lam = MatchOptions.versioning().lam
        incumbent = _Incumbent(_evaluate(left, right, pairs, lam, nulls), lam)
        dropped = _evaluate(left, right, pairs - {("l6", "r6")}, lam, nulls)
        assert incumbent.score == pytest.approx(68 / 84)
        assert dropped.breakdown.score == pytest.approx(70 / 84)
        assert not incumbent.drop_cannot_win(("l6", "r6"))
