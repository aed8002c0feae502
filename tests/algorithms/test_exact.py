"""Tests for the exact algorithm (Alg. 1)."""

import pytest

from repro.core.instance import Instance
from repro.core.values import LabeledNull
from repro.mappings.constraints import MatchOptions
from repro.algorithms.exact import exact_compare
from repro.runtime.budget import Budget

LAM = 0.5
N = LabeledNull


def inst(rows, attrs=("A", "B"), prefix="l", name="I"):
    return Instance.from_rows("R", attrs, rows, id_prefix=prefix, name=name)


class TestOptimality:
    def test_identical_ground(self):
        left = inst([("x", 1), ("y", 2)], prefix="l")
        right = inst([("x", 1), ("y", 2)], prefix="r")
        result = exact_compare(left, right, MatchOptions.versioning(lam=LAM))
        assert result.similarity == pytest.approx(1.0)
        assert result.exhausted

    def test_isomorphic_nulls(self, example_57_instances):
        left, right = example_57_instances
        result = exact_compare(left, right, MatchOptions.versioning(lam=LAM))
        assert result.similarity == pytest.approx(1.0)

    def test_example_58(self):
        V1 = N("V1")
        left = inst(
            [(N("N1"), 1975, "VLDB End."), (N("N2"), 1976, "VLDB End.")],
            attrs=("Id", "Year", "Org"), prefix="l",
        )
        right = inst(
            [(N("Na"), 1975, V1), (N("Nb"), 1976, V1)],
            attrs=("Id", "Year", "Org"), prefix="r",
        )
        result = exact_compare(left, right, MatchOptions.versioning(lam=LAM))
        assert result.similarity == pytest.approx((8 + 4 * LAM) / 12)

    def test_example_510(self):
        s = inst([("A", "Mike"), ("A", "Laure")], attrs=("Dept", "Name"),
                 prefix="l")
        s_prime = inst([("A", N("M1")), ("A", N("M2"))],
                       attrs=("Dept", "Name"), prefix="r")
        s_double = inst([("A", N("M3"))], attrs=("Dept", "Name"), prefix="q")
        score_prime = exact_compare(
            s, s_prime, MatchOptions.versioning(lam=LAM)
        ).similarity
        score_double = exact_compare(
            s, s_double, MatchOptions.versioning(lam=LAM)
        ).similarity
        assert score_prime == pytest.approx((4 + 4 * LAM) / 8)
        assert score_double == pytest.approx((2 + 2 * LAM) / 6)
        assert score_prime > score_double

    def test_disjoint_ground_scores_zero(self):
        left = inst([("x", 1)], prefix="l")
        right = inst([("q", 9)], prefix="r")
        result = exact_compare(left, right, MatchOptions.versioning(lam=LAM))
        assert result.similarity == 0.0
        assert len(result.match.m) == 0

    def test_prefers_subset_when_matching_hurts(self):
        """Matching everything can be worse than leaving a tuple unmatched.

        Left tuple (N1, N1) could fold onto right (a, b)?  No — conflicting;
        but (N1, x) vs two right tuples shows the subtler case: matching the
        second pair forces a non-injective fold that lowers other cells.
        """
        # Left: two tuples sharing N1; right: constants that would force
        # N1 to two different values -> only one pair can be matched.
        left = inst([(N("N1"), "u"), (N("N1"), "v")], prefix="l")
        right = inst([("a", "u"), ("b", "v")], prefix="r")
        result = exact_compare(left, right, MatchOptions.versioning(lam=LAM))
        assert len(result.match.m) == 1
        assert result.match.is_complete()

    def test_non_functional_beats_functional_on_universal_solutions(self):
        """n:m matching can score higher when tuples are split/merged."""
        left = inst([("VLDB", 1976, N("N1")), ("VLDB", N("N2"), "Brussels")],
                    attrs=("Name", "Year", "Place"), prefix="l")
        right = inst([("VLDB", 1976, "Brussels")],
                     attrs=("Name", "Year", "Place"), prefix="r")
        general = exact_compare(left, right, MatchOptions.general(lam=LAM))
        # Both left tuples can map onto the single right tuple.
        assert len(general.match.m) == 2
        right_injective = exact_compare(
            left, right, MatchOptions.versioning(lam=LAM)
        )
        assert len(right_injective.match.m) == 1
        assert general.similarity > right_injective.similarity


class TestConstraints:
    def test_right_injectivity_respected(self):
        left = inst([("x", 1), ("x", 1)], prefix="l")
        right = inst([("x", 1)], prefix="r")
        result = exact_compare(left, right, MatchOptions.versioning(lam=LAM))
        assert result.match.m.is_right_injective()
        assert len(result.match.m) == 1

    def test_non_injective_right_allowed_in_merging(self):
        left = inst([("x", 1), ("x", 1)], prefix="l")
        right = inst([("x", 1)], prefix="r")
        result = exact_compare(
            left, right, MatchOptions.record_merging(lam=LAM)
        )
        assert len(result.match.m) == 2

    def test_result_match_is_complete(self):
        left = inst([(N("N1"), "u"), ("z", N("N2"))], prefix="l")
        right = inst([("a", "u"), ("z", "q")], prefix="r")
        result = exact_compare(left, right, MatchOptions.versioning(lam=LAM))
        assert result.match.is_complete()


class TestBudget:
    def test_budget_flags_incomplete_search(self):
        rows_left = [(N(f"L{i}"), N(f"M{i}")) for i in range(6)]
        rows_right = [(N(f"R{i}"), N(f"S{i}")) for i in range(6)]
        left = inst(rows_left, prefix="l")
        right = inst(rows_right, prefix="r")
        result = exact_compare(
            left, right, MatchOptions.versioning(lam=LAM), node_budget=10
        )
        assert not result.exhausted
        assert 0.0 <= result.similarity <= 1.0

    def test_stats_populated(self):
        left = inst([("x", 1)], prefix="l")
        right = inst([("x", 1)], prefix="r")
        result = exact_compare(left, right, MatchOptions.versioning(lam=LAM))
        assert result.stats["nodes_explored"] >= 1
        assert result.stats["candidate_pairs"] == 1
        assert result.elapsed_seconds >= 0.0

    def test_nodes_explored_counts_this_search_only(self):
        # A control shared across searches arrives with nodes already
        # spent; the stats report the nodes this search explored.
        left = inst([("x", 1), (N("N1"), 2)], prefix="l")
        right = inst([("x", 1), ("y", N("N2"))], prefix="r")
        options = MatchOptions.versioning(lam=LAM)
        fresh = exact_compare(left, right, options)
        shared = Budget().start()
        shared.spend(100)
        reused = exact_compare(left, right, options, control=shared)
        assert reused.stats["nodes_explored"] == (
            fresh.stats["nodes_explored"]
        )
        assert shared.nodes == 100 + fresh.stats["nodes_explored"]


class TestAgainstBruteForce:
    def test_small_random_instances_match_bruteforce(self):
        """Exact search equals a naive all-subsets brute force on tiny inputs."""
        import itertools
        import random

        from repro.mappings.instance_match import InstanceMatch
        from repro.mappings.tuple_mapping import TupleMapping
        from repro.scoring.match_score import score_match
        from repro.algorithms.unifier import Unifier

        rng = random.Random(11)
        for trial in range(8):
            def rand_row(side, i):
                def val(j):
                    choice = rng.random()
                    if choice < 0.4:
                        return rng.choice(["a", "b"])
                    return N(f"{side}{trial}_{i}_{j}")
                return (val(0), val(1))

            left = inst([rand_row("L", i) for i in range(3)], prefix="l")
            right = inst([rand_row("R", i) for i in range(3)], prefix="r")
            result = exact_compare(left, right, MatchOptions.general(lam=LAM))

            all_pairs = [
                (t.tuple_id, u.tuple_id)
                for t in left.tuples()
                for u in right.tuples()
            ]
            best = 0.0
            for k in range(len(all_pairs) + 1):
                for subset in itertools.combinations(all_pairs, k):
                    unifier = Unifier.for_instances(left, right)
                    ok = True
                    for lid, rid in subset:
                        if not unifier.try_unify_tuples(
                            left.get_tuple(lid), right.get_tuple(rid)
                        ):
                            ok = False
                            break
                    if not ok:
                        continue
                    h_l, h_r = unifier.to_value_mappings()
                    match = InstanceMatch(
                        left, right, h_l, h_r, TupleMapping(subset)
                    )
                    best = max(best, score_match(match, lam=LAM))
            assert result.similarity == pytest.approx(best)
