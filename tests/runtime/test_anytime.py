"""Acceptance tests for the anytime ladder (runtime.anytime).

These encode the PR's acceptance criteria: a Table-2-scale pair under a
1-second deadline returns at least the signature floor with rung metadata,
``deadline=0`` returns the floor immediately, and a cancellation token
stops every rung within one check interval.
"""

import time

import pytest

from repro import Algorithm, AnytimeOptions, Comparator, compare
from repro.algorithms.signature import signature_compare
from repro.datagen.perturb import PerturbationConfig, perturb
from repro.datagen.synthetic import generate_dataset
from repro.mappings.constraints import MatchOptions
from repro.runtime import CancellationToken, Outcome, compare_anytime


@pytest.fixture(scope="module")
def table2_scale_pair():
    """A (source, target) pair at Table 2 quick scale (doct, 100 rows)."""
    base = generate_dataset("doct", rows=100, seed=0)
    scenario = perturb(base, PerturbationConfig.mod_cell(5.0, seed=0))
    return scenario.source, scenario.target


@pytest.fixture(scope="module")
def exact_hard_pair():
    """A pair whose exact search runs for seconds (doct, 200 rows)."""
    base = generate_dataset("doct", rows=200, seed=0)
    scenario = perturb(base, PerturbationConfig.mod_cell(5.0, seed=0))
    return scenario.source, scenario.target


class TestDeadlineLadder:
    def test_one_second_deadline_beats_signature_floor(self, table2_scale_pair):
        source, target = table2_scale_pair
        options = MatchOptions.versioning()
        floor = signature_compare(source, target, options=options)
        started = time.perf_counter()
        result = compare_anytime(
            source, target, deadline=1.0, options=options
        )
        elapsed = time.perf_counter() - started
        assert result.similarity >= floor.similarity - 1e-9
        assert result.stats["anytime_rung"] in (
            "signature", "refine", "assignment", "exact"
        )
        assert result.stats["anytime_rungs_run"].startswith("signature")
        assert "anytime_score_is_exact" in result.stats
        # One second of allowance must not balloon into many seconds.
        assert elapsed < 10.0

    def test_deadline_zero_returns_signature_floor_immediately(
        self, table2_scale_pair
    ):
        source, target = table2_scale_pair
        options = MatchOptions.versioning()
        floor = signature_compare(source, target, options=options)
        result = compare_anytime(source, target, deadline=0, options=options)
        assert result.similarity == pytest.approx(floor.similarity)
        assert result.stats["anytime_rungs_run"] == "signature"
        assert result.outcome is Outcome.DEADLINE_EXCEEDED
        assert not result.stats["anytime_score_is_exact"]
        assert result.algorithm == "anytime(signature)"

    def test_no_deadline_completes_exactly(self):
        from repro.core.instance import Instance
        from repro.core.values import LabeledNull

        I = Instance.from_rows(
            "R", ("A", "B"), [("x", LabeledNull("N1")), ("y", "z")],
            id_prefix="l",
        )
        J = Instance.from_rows(
            "R", ("A", "B"), [("x", "w"), ("y", "z")], id_prefix="r"
        )
        result = compare_anytime(I, J)
        assert result.outcome is Outcome.COMPLETED
        assert result.stats["anytime_score_is_exact"]
        assert (
            result.stats["anytime_rungs_run"]
            == "signature,refine,assignment,exact"
        )


class TestCancellation:
    def test_precancelled_token_stops_every_rung(self, table2_scale_pair):
        source, target = table2_scale_pair
        token = CancellationToken()
        token.cancel()
        result = compare_anytime(
            source, target, token=token, options=MatchOptions.versioning(),
            check_interval=16,
        )
        assert result.outcome is Outcome.CANCELLED
        assert result.stats["anytime_rungs_run"] == "signature"
        assert result.match is not None  # still a scoreable floor match

    def test_timer_cancellation_mid_exact_returns_promptly(
        self, exact_hard_pair
    ):
        source, target = exact_hard_pair
        token = CancellationToken()
        timer = token.cancel_after(0.3)
        try:
            started = time.perf_counter()
            result = compare_anytime(
                source, target, token=token,
                options=MatchOptions.versioning(), check_interval=64,
            )
            elapsed = time.perf_counter() - started
        finally:
            timer.cancel()
        # The exact rung on this pair runs for many seconds uncancelled
        # (it exhausts its node budget in Table 2 at default scale); the
        # token must cut it within one check interval.
        assert elapsed < 5.0
        assert result.outcome is Outcome.CANCELLED
        assert result.similarity >= 0.0


class TestCompareEntryPoint:
    def test_compare_dispatches_anytime(self, table2_scale_pair):
        source, target = table2_scale_pair
        result = compare(
            source, target, algorithm=Algorithm.ANYTIME, deadline=1.0,
            options=MatchOptions.versioning(),
        )
        assert result.algorithm.startswith("anytime(")
        assert "anytime_rung" in result.stats

    def test_deadline_rejected_for_uncontrollable_algorithm(self):
        from repro.core.instance import Instance

        I = Instance.from_rows("R", ("A",), [("x",)], id_prefix="l")
        J = Instance.from_rows("R", ("A",), [("x",)], id_prefix="r")
        with pytest.raises(ValueError, match="not supported"):
            compare(I, J, algorithm=Algorithm.GROUND, deadline=1.0)

    def test_comparator_compare_anytime_matches_compare_one(self):
        # One spec, two entry points: both must run the same ladder with
        # the session's knobs.  Uncapped, the exact rung completes on this
        # pair in ~50 nodes; the session's cap of 20 must cut it in both.
        scenario = perturb(
            generate_dataset("doct", rows=30, seed=0),
            PerturbationConfig.mod_cell(5.0, seed=0),
        )
        comparator = Comparator(
            AnytimeOptions(node_budget=20, check_interval=16),
            MatchOptions.versioning(),
        )
        ladder = comparator.compare_anytime(scenario.source, scenario.target)
        dispatched = comparator.compare_one(scenario.source, scenario.target)
        assert ladder.outcome is Outcome.BUDGET_EXHAUSTED
        assert dispatched.outcome is ladder.outcome
        assert dispatched.similarity == ladder.similarity
        assert set(dispatched.match.m) == set(ladder.match.m)
        assert (
            dispatched.stats["anytime_rungs_run"]
            == ladder.stats["anytime_rungs_run"]
            == "signature,refine,assignment,exact"
        )
