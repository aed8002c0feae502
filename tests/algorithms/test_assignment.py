"""The assignment rung: solvers, differential oracle, bounds, exact pruning.

The differential harness this PR pins down lives here: both solver code
paths (sparse Jonker-Volgenant, dense Hungarian) are checked against a
brute-force oracle on every ≤6×6 block, the documented commit tie-break
``(-weight, row, col)`` is asserted literally, and the constructed greedy
trap demonstrates the strict greedy < assignment = exact separation the
benchmark gates on.
"""

from __future__ import annotations

import json
import random

import pytest

from repro import Algorithm, AssignmentOptions, Comparator, compare
from repro.algorithms.assignment import (
    assignment_bounds,
    assignment_compare,
    brute_force_best_matching,
    candidate_blocks,
    solve_assignment,
)
from repro.algorithms.exact import exact_compare
from repro.algorithms.signature import signature_compare
from repro.cli import main as cli_main
from repro.core.instance import Instance, prepare_for_comparison
from repro.core.values import LabeledNull
from repro.mappings.constraints import MatchOptions
from repro.runtime import Budget, CancellationToken, Outcome


def null(label: str) -> LabeledNull:
    return LabeledNull(label)


def random_weights(rng, n_rows, n_cols, density=0.6):
    """A random sparse weight matrix, with occasional ties and zeros."""
    weights = {}
    for row in range(n_rows):
        for col in range(n_cols):
            if rng.random() < density:
                weights[(row, col)] = rng.choice(
                    [0.0, 0.5, 1.0, 1.5, 2.0, rng.random() * 3]
                )
    return weights


def trap_pair():
    """The documented greedy trap (module docstring of ``assignment``).

    Greedy pairs L1 (the 4-constant row) with Rr1 — its locally best
    partner — stranding L2 with Rr2; the optimum pairs L1→Rr2, L2→Rr1
    under the hood of equal prefixes, lifting 0.90625 to 0.96875.
    """
    attrs = ("A", "B", "C", "D", "E", "F", "G", "H")
    left = Instance.from_rows(
        "R",
        attrs,
        [
            ("a", "b", "c", "d", null("n1"), null("n2"), null("n3"),
             null("n4")),
            ("a", "b", null("m1"), null("m2"), null("m3"), null("m4"),
             null("m5"), null("m6")),
        ],
        id_prefix="L",
    )
    right = Instance.from_rows(
        "R",
        attrs,
        [
            ("a", "b", "c", null("p1"), null("p2"), null("p3"), null("p4"),
             null("p5")),
            ("a", "b", null("q1"), null("q2"), null("q3"), null("q4"),
             null("q5"), null("q6")),
        ],
        id_prefix="Rr",
    )
    return prepare_for_comparison(left, right)


TRAP_GREEDY = 0.90625
TRAP_OPTIMAL = 0.96875


class TestSolveAssignment:
    def test_differential_oracle_small_blocks(self):
        """Both solvers exactly match brute force on every ≤6×6 block."""
        rng = random.Random(20240807)
        for case in range(300):
            n_rows = rng.randint(0, 6)
            n_cols = rng.randint(0, 6)
            weights = random_weights(rng, n_rows, n_cols)
            oracle = brute_force_best_matching(weights, n_rows, n_cols)
            for dense_threshold in (0, 99):  # force sparse / force dense
                solution = solve_assignment(
                    weights, n_rows, n_cols,
                    dense_threshold=dense_threshold,
                )
                assert solution is not None
                assert solution.value == pytest.approx(oracle), (
                    f"case {case}: {solution.solver} != oracle"
                )
                # The pairs must realize the value: a valid 1:1 matching
                # over existing edges summing to it.
                rows = [r for r, _c, _w in solution.pairs]
                cols = [c for _r, c, _w in solution.pairs]
                assert len(rows) == len(set(rows))
                assert len(cols) == len(set(cols))
                for row, col, weight in solution.pairs:
                    assert weights[(row, col)] == pytest.approx(weight)
                assert sum(w for *_rc, w in solution.pairs) == (
                    pytest.approx(solution.value)
                )

    def test_sparse_and_dense_agree_on_larger_blocks(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(25, 40)
            weights = random_weights(rng, n, n, density=0.15)
            sparse = solve_assignment(weights, n, n, dense_threshold=0)
            dense = solve_assignment(weights, n, n, dense_threshold=n)
            assert sparse.solver == "jv" and dense.solver == "dense"
            assert sparse.value == pytest.approx(dense.value)

    def test_pairs_follow_documented_tie_break(self):
        # All weights equal: the canonical order is (-weight, row, col).
        weights = {(r, c): 1.0 for r in range(3) for c in range(3)}
        solution = solve_assignment(weights, 3, 3)
        assert solution.pairs == ((0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0))

        weights = {(0, 1): 2.0, (0, 0): 1.0, (1, 0): 1.0}
        solution = solve_assignment(weights, 2, 2)
        assert solution.pairs == ((0, 1, 2.0), (1, 0, 1.0))

    def test_dual_seeding_prematches_dominant_diagonal(self):
        n = 30
        weights = {(i, i): 5.0 for i in range(n)}
        weights.update(
            {(i, (i + 1) % n): 1.0 for i in range(n)}
        )
        solution = solve_assignment(weights, n, n, dense_threshold=0)
        assert solution.value == pytest.approx(5.0 * n)
        assert solution.seeded == n  # zero Dijkstra augmentations needed

    def test_tripped_budget_aborts_to_none(self):
        # All rows contend for column 0, so seeding resolves only one row
        # and every other row needs an augmentation (= one budget node).
        n = 30
        weights = {(i, 0): 2.0 for i in range(n)}
        weights.update({(i, i + 1): 1.0 for i in range(n)})
        control = Budget(node_limit=3).start()
        assert solve_assignment(
            weights, n, n + 1, control=control, dense_threshold=0
        ) is None
        assert control.outcome is Outcome.BUDGET_EXHAUSTED
        # Unbudgeted, the same block solves to the analytic optimum.
        full = solve_assignment(weights, n, n + 1, dense_threshold=0)
        assert full.value == pytest.approx(2.0 + (n - 1) * 1.0)

    def test_rejects_out_of_range_edges(self):
        with pytest.raises(ValueError):
            solve_assignment({(0, 5): 1.0}, 1, 2)
        with pytest.raises(ValueError):
            solve_assignment({(3, 0): 1.0}, 2, 1)

    def test_empty_matrix(self):
        solution = solve_assignment({}, 0, 0)
        assert solution.value == 0.0
        assert solution.pairs == ()


class TestAssignmentCompare:
    def test_strictly_beats_greedy_on_trap(self):
        left, right = trap_pair()
        options = MatchOptions.versioning()
        greedy = signature_compare(left, right, options=options)
        assigned = assignment_compare(left, right, options=options)
        exact = exact_compare(left, right, options=options)
        assert greedy.similarity == pytest.approx(TRAP_GREEDY)
        assert assigned.similarity == pytest.approx(TRAP_OPTIMAL)
        assert exact.similarity == pytest.approx(TRAP_OPTIMAL)
        assert assigned.stats["assignment_improved"]
        assert not assigned.stats["degraded_to_greedy"]
        assert assigned.stats["greedy_similarity"] == (
            pytest.approx(TRAP_GREEDY)
        )
        assert assigned.outcome is Outcome.COMPLETED

    def test_block_cap_keeps_greedy_pairs(self):
        left, right = trap_pair()
        options = MatchOptions.versioning()
        capped = assignment_compare(
            left, right, options=options, max_block_size=1
        )
        assert capped.similarity == pytest.approx(TRAP_GREEDY)
        assert capped.stats["assignment_blocks_skipped"] == 1
        assert not capped.stats["assignment_improved"]
        assert not capped.stats["degraded_to_greedy"]

    def test_seed_result_is_the_floor(self):
        left, right = trap_pair()
        options = MatchOptions.versioning()
        floor = signature_compare(left, right, options=options)
        assigned = assignment_compare(
            left, right, options=options, seed_result=floor
        )
        assert assigned.stats["greedy_similarity"] == floor.similarity
        assert assigned.similarity == pytest.approx(TRAP_OPTIMAL)

    def test_precancelled_token_degrades_to_greedy(self):
        left, right = trap_pair()
        options = MatchOptions.versioning()
        floor = signature_compare(left, right, options=options)
        token = CancellationToken()
        token.cancel()
        result = assignment_compare(
            left,
            right,
            options=options,
            control=Budget(token=token, check_interval=1).start(),
            seed_result=floor,
        )
        assert result.similarity == pytest.approx(floor.similarity)
        assert result.stats["degraded_to_greedy"]
        assert result.outcome is Outcome.CANCELLED


class TestAssignmentBounds:
    def test_tight_and_admissible_on_trap(self):
        left, right = trap_pair()
        options = MatchOptions.versioning()
        bound = assignment_bounds(left, right, options)
        exact = exact_compare(left, right, options=options)
        assert bound.injective_relaxation
        assert bound.upper_bound >= exact.similarity - 1e-9
        assert bound.upper_bound == pytest.approx(TRAP_OPTIMAL)

    def test_general_options_fall_back_to_per_tuple(self):
        left, right = trap_pair()
        bound = assignment_bounds(left, right, MatchOptions.general())
        assert not bound.injective_relaxation
        assert bound.per_relation == {}
        exact = exact_compare(left, right, options=MatchOptions.general())
        assert bound.upper_bound >= exact.similarity - 1e-9

    def test_empty_instances_bound_is_one(self):
        left = Instance.from_rows("R", ("A",), [], id_prefix="l")
        right = Instance.from_rows("R", ("A",), [], id_prefix="r")
        assert assignment_bounds(left, right).upper_bound == 1.0

    def test_candidate_blocks_are_id_sorted(self):
        left, right = trap_pair()
        blocks = candidate_blocks(left, right, lam=0.5)
        assert [b.name for b in blocks] == ["R"]
        assert list(blocks[0].left_ids) == sorted(blocks[0].left_ids)
        assert list(blocks[0].right_ids) == sorted(blocks[0].right_ids)


# Node counts of the pruned search on the trap before it also pruned with
# the assignment relaxation (pair bound only); the relaxation must beat them.
PAIR_BOUND_NODES_VERSIONING = 8
PAIR_BOUND_NODES_GENERAL = 29


class TestExactAssignmentBound:
    def test_prunes_nodes_without_changing_the_answer(self):
        left, right = trap_pair()
        options = MatchOptions.versioning()
        plain = exact_compare(left, right, options=options, prune=False)
        gated = exact_compare(left, right, options=options)
        assert gated.similarity == pytest.approx(plain.similarity)
        assert sorted(gated.match.m) == sorted(plain.match.m)
        assert gated.stats["assignment_bound"]
        assert not plain.stats["assignment_bound"]
        assert gated.stats["nodes_explored"] < PAIR_BOUND_NODES_VERSIONING

    def test_powerset_search_accepts_the_bound(self):
        left, right = trap_pair()
        options = MatchOptions.general()
        plain = exact_compare(left, right, options=options, prune=False)
        gated = exact_compare(left, right, options=options)
        assert gated.similarity == pytest.approx(plain.similarity)
        assert gated.stats["assignment_bound"]
        assert gated.stats["nodes_explored"] <= PAIR_BOUND_NODES_GENERAL

    def test_bound_requires_prune(self):
        left, right = trap_pair()
        result = exact_compare(
            left, right, options=MatchOptions.versioning(), prune=False
        )
        assert not result.stats["assignment_bound"]
        assert result.similarity == pytest.approx(TRAP_OPTIMAL)


class TestDispatchAndAPI:
    def test_compare_with_algorithm_enum(self):
        left, right = trap_pair()
        result = compare(
            left, right, Algorithm.ASSIGNMENT,
            options=MatchOptions.versioning(), prepare=False,
        )
        assert result.algorithm == "assignment"
        assert result.similarity == pytest.approx(TRAP_OPTIMAL)

    def test_compare_with_typed_options(self):
        left, right = trap_pair()
        result = compare(
            left, right, AssignmentOptions(max_block_size=1),
            options=MatchOptions.versioning(), prepare=False,
        )
        assert result.similarity == pytest.approx(TRAP_GREEDY)
        assert result.stats["assignment_blocks_skipped"] == 1

    def test_comparator_session(self):
        left, right = trap_pair()
        comparator = Comparator(
            Algorithm.ASSIGNMENT, MatchOptions.versioning()
        )
        result = comparator.compare_one(left, right, prepare=False)
        assert result.similarity == pytest.approx(TRAP_OPTIMAL)

    def test_deadline_control_is_accepted(self):
        left, right = trap_pair()
        result = compare(
            left, right, Algorithm.ASSIGNMENT,
            options=MatchOptions.versioning(), prepare=False, deadline=30.0,
        )
        assert result.similarity == pytest.approx(TRAP_OPTIMAL)
        assert result.outcome is Outcome.COMPLETED


class TestCLI:
    @pytest.fixture
    def csv_pair(self, tmp_path):
        left = tmp_path / "left.csv"
        left.write_text(
            "Name,Year,Org\nVLDB,1975,VLDB End.\nSIGMOD,1975,_N:N1\n"
        )
        right = tmp_path / "right.csv"
        right.write_text(
            "Name,Year,Org\nVLDB,1975,_N:V1\nSIGMOD,1975,ACM\n"
        )
        return str(left), str(right)

    def test_compare_accepts_assignment(self, csv_pair, capsys):
        left, right = csv_pair
        assert cli_main(
            ["compare", left, right, "--preset", "versioning",
             "--algorithm", "assignment", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "assignment"
        assert payload["similarity"] >= 0.0
        assert payload["stats"]["greedy_similarity"] <= (
            payload["similarity"] + 1e-9
        )

    def test_similarity_accepts_assignment(self, csv_pair, capsys):
        left, right = csv_pair
        assert cli_main(
            ["similarity", left, right, "--preset", "versioning",
             "--algorithm", "assignment"]
        ) == 0
        score = float(capsys.readouterr().out.strip())
        assert 0.0 <= score <= 1.0
