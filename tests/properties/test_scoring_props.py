"""Property-based tests of the scoring cascade itself.

These target the scoring layer directly (independent of the matching
algorithms): bounds, decomposition consistency, λ monotonicity for a fixed
match, inversion symmetry, and the committed-pair algebra the rungs score
with against the ``score_match`` oracle, bit for bit.
"""

from __future__ import annotations

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

from repro.core.instance import Instance
from repro.core.values import LabeledNull
from repro.mappings.constraints import MatchOptions
from repro.mappings.instance_match import InstanceMatch
from repro.mappings.tuple_mapping import TupleMapping
from repro.scoring.match_score import (
    score_committed_pairs,
    score_match,
    score_match_with_breakdown,
)
from repro.algorithms.unifier import Unifier

CONSTANTS = ["a", "b"]
ARITY = 3
PRESETS = [
    "general", "versioning", "data_repair", "record_merging",
    "universal_vs_core", "universal_vs_universal",
]


@st.composite
def matched_instances(draw, options: MatchOptions | None = None):
    """Two instances plus a feasible (unifier-built) tuple mapping.

    Up to six rows a side and ten candidate pairs, so images of three or
    more tuples occur; ``options`` skips the candidates its injectivity
    forbids.
    """
    def build(prefix):
        n_rows = draw(st.integers(min_value=1, max_value=6))
        pool = [LabeledNull(f"{prefix}{k}") for k in range(4)]
        rows = []
        for _ in range(n_rows):
            rows.append(tuple(
                draw(st.sampled_from(pool))
                if draw(st.booleans())
                else draw(st.sampled_from(CONSTANTS))
                for _ in range(ARITY)
            ))
        return Instance.from_rows(
            "R", tuple(f"A{i}" for i in range(ARITY)), rows,
            id_prefix=prefix,
        )

    left = build("L")
    right = build("R")
    # Draw a random candidate pair set; keep the unifiable prefix.
    left_ids = sorted(left.ids())
    right_ids = sorted(right.ids())
    candidate_count = draw(st.integers(min_value=0, max_value=10))
    unifier = Unifier.for_instances(left, right)
    pairs = []
    for _ in range(candidate_count):
        lid = draw(st.sampled_from(left_ids))
        rid = draw(st.sampled_from(right_ids))
        if (lid, rid) in pairs or options is not None and (
            options.left_injective and any(p[0] == lid for p in pairs)
            or options.right_injective and any(p[1] == rid for p in pairs)
        ):
            continue
        if unifier.try_unify_tuples(
            left.get_tuple(lid), right.get_tuple(rid)
        ):
            pairs.append((lid, rid))
    h_l, h_r = unifier.to_value_mappings()
    match = InstanceMatch(
        left=left, right=right, h_l=h_l, h_r=h_r, m=TupleMapping(pairs)
    )
    return match


def _largest_image(match: InstanceMatch) -> int:
    return max(
        [len(match.m.image(i)) for i in match.left.ids()]
        + [len(match.m.preimage(i)) for i in match.right.ids()]
    )


@pytest.mark.parametrize("preset", PRESETS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), lam=st.sampled_from([0.0, 0.5, 0.9]))
def test_committed_pair_algebra_equals_the_oracle(preset, data, lam):
    """Read off a unifier's class counts, the algebra is ``score_match``.

    Score, pair scores and tuple scores compare with ``==``: the two share
    one summation path, so they agree bit for bit, not to a tolerance.
    """
    match = data.draw(matched_instances(getattr(MatchOptions, preset)()))
    # The rungs hand their pairs over in their own orders.
    pairs = data.draw(st.permutations(sorted(match.m)))
    unifier = Unifier.for_instances(match.left, match.right)
    for left_id, right_id in pairs:
        unifier.unify_tuples(
            match.left.get_tuple(left_id), match.right.get_tuple(right_id)
        )
    got = score_committed_pairs(
        match.left, match.right, pairs, unifier.side_counts, lam
    )
    want = score_match_with_breakdown(match, lam=lam)
    assert got.score == want.score
    assert got.pair_scores == want.pair_scores
    assert got.left_tuple_scores == want.left_tuple_scores
    assert got.right_tuple_scores == want.right_tuple_scores
    assert got.denominator == want.denominator


def test_strategy_draws_images_of_three_or_more():
    """The algebra property covers n:m images whose sum order matters."""
    quick = settings(
        max_examples=500, derandomize=True, database=None,
        phases=[Phase.generate],
    )
    find(
        matched_instances(MatchOptions.general()),
        lambda match: _largest_image(match) >= 3,
        settings=quick,
    )


@settings(max_examples=80, deadline=None, derandomize=True)
@given(matched_instances())
def test_score_bounds(match):
    """Every feasible match scores within [0, 1]."""
    score = score_match(match, lam=0.5)
    assert 0.0 <= score <= 1.0 + 1e-12


@settings(max_examples=80, deadline=None, derandomize=True)
@given(matched_instances())
def test_breakdown_consistency(match):
    """Tuple scores sum to the numerator; relation scores recombine."""
    breakdown = score_match_with_breakdown(match, lam=0.5)
    numerator = sum(breakdown.left_tuple_scores.values()) + sum(
        breakdown.right_tuple_scores.values()
    )
    assert breakdown.score == pytest.approx(
        numerator / breakdown.denominator
    )
    # Size-weighted relation scores recombine to the total.
    weighted = 0.0
    for relation in match.left.schema:
        size = (
            len(match.left.relation(relation.name))
            + len(match.right.relation(relation.name))
        ) * relation.arity
        weighted += breakdown.relation_scores[relation.name] * size
    assert breakdown.score == pytest.approx(
        weighted / breakdown.denominator
    )


@settings(max_examples=80, deadline=None, derandomize=True)
@given(matched_instances())
def test_inversion_symmetry(match):
    """score(M) == score(M^-1) — Eq. (5) at the match level."""
    assert score_match(match, lam=0.5) == pytest.approx(
        score_match(match.inverted(), lam=0.5)
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(matched_instances())
def test_lambda_monotone_for_fixed_match(match):
    """For a FIXED match, the score is non-decreasing in λ (exactly)."""
    scores = [
        score_match(match, lam=lam) for lam in (0.0, 0.3, 0.6, 0.9)
    ]
    assert all(
        earlier <= later + 1e-12
        for earlier, later in zip(scores, scores[1:])
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(matched_instances())
def test_tuple_scores_bounded_by_arity_normalized(match):
    """Each tuple's score lies in [0, arity]."""
    breakdown = score_match_with_breakdown(match, lam=0.5)
    for scores in (breakdown.left_tuple_scores, breakdown.right_tuple_scores):
        for value in scores.values():
            assert -1e-12 <= value <= ARITY + 1e-12
