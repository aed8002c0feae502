"""Property-based guarantees of the assignment rung.

Three families, over random small instances.  The exact oracle runs with
``prune=False``: the pruned search itself prunes with the relaxation, so
it cannot check that relaxation.

* **sandwich** — greedy ≤ assignment ≤ exact: the rung never scores below
  its greedy floor and, being one valid complete match, never above the
  exact optimum;
* **admissibility** — the solved relaxation's upper bound is never below
  the exact similarity (the property the exact-search pruning leans on);
* **representation invariance** — the solver consumes canonicalized
  blocks, so its relaxation cannot depend on null labels, row order, or
  tuple identifiers; the full rung's *score* is additionally invariant
  under null renaming (greedy's tie-break wiggle under row shuffles is a
  greedy property, not a solver one — see
  ``test_algorithm_invariances.py``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.assignment import assignment_bounds, assignment_compare
from repro.algorithms.exact import exact_compare
from repro.algorithms.signature import signature_compare
from repro.core.instance import Instance, prepare_for_comparison
from repro.core.values import LabeledNull
from repro.mappings.constraints import MatchOptions

CONSTANTS = ["a", "b", "c", "d"]
LAM = 0.5
EPS = 1e-9


@st.composite
def instance_pair(draw, max_rows: int = 4, arity: int = 3):
    """Two random same-schema instances with nulls (invariance-suite idiom)."""

    def build(prefix: str):
        n_rows = draw(st.integers(min_value=0, max_value=max_rows))
        null_pool = [LabeledNull(f"{prefix}{k}") for k in range(5)]
        rows = []
        for _ in range(n_rows):
            row = tuple(
                draw(st.sampled_from(null_pool))
                if draw(st.booleans())
                else draw(st.sampled_from(CONSTANTS))
                for _ in range(arity)
            )
            rows.append(row)
        return Instance.from_rows(
            "R", tuple(f"A{i}" for i in range(arity)), rows,
            id_prefix=prefix,
        )

    return build("L"), build("R")


@settings(max_examples=40, deadline=None, derandomize=True)
@given(instance_pair(max_rows=4))
def test_sandwich_injective(pair):
    """greedy ≤ assignment ≤ exact under fully injective options."""
    left, right = prepare_for_comparison(*pair)
    options = MatchOptions.versioning(lam=LAM)
    greedy = signature_compare(left, right, options).similarity
    assigned = assignment_compare(left, right, options).similarity
    exact = exact_compare(left, right, options, prune=False).similarity
    assert greedy - EPS <= assigned <= exact + EPS


@settings(max_examples=25, deadline=None, derandomize=True)
@given(instance_pair(max_rows=3))
def test_sandwich_general(pair):
    """The sandwich also holds for n:m options (powerset exact)."""
    left, right = prepare_for_comparison(*pair)
    options = MatchOptions.general(lam=LAM)
    greedy = signature_compare(left, right, options).similarity
    assigned = assignment_compare(left, right, options).similarity
    exact = exact_compare(left, right, options, prune=False).similarity
    assert greedy - EPS <= assigned <= exact + EPS


@settings(max_examples=40, deadline=None, derandomize=True)
@given(instance_pair(max_rows=4))
def test_bound_admissible_injective(pair):
    left, right = prepare_for_comparison(*pair)
    options = MatchOptions.versioning(lam=LAM)
    bound = assignment_bounds(left, right, options)
    exact = exact_compare(left, right, options, prune=False).similarity
    assert bound.upper_bound >= exact - EPS
    assert 0.0 <= bound.upper_bound <= 1.0


@settings(max_examples=25, deadline=None, derandomize=True)
@given(instance_pair(max_rows=3))
def test_bound_admissible_general(pair):
    left, right = prepare_for_comparison(*pair)
    options = MatchOptions.general(lam=LAM)
    bound = assignment_bounds(left, right, options)
    exact = exact_compare(left, right, options, prune=False).similarity
    if len(left) or len(right):  # empty pairs return the trivial 1.0 sentinel
        assert not bound.injective_relaxation
    assert bound.upper_bound >= exact - EPS


@settings(max_examples=40, deadline=None, derandomize=True)
@given(instance_pair(max_rows=4))
def test_score_invariant_under_null_renaming(pair):
    """Null labels are representation: the rung's score ignores them."""
    left, right = pair
    renamed = right.rename_nulls(
        {null: LabeledNull(f"Z_{null.label}") for null in right.vars()}
    )

    def score(a, b):
        a, b = prepare_for_comparison(a, b)
        return assignment_compare(
            a, b, MatchOptions.versioning(lam=LAM)
        ).similarity

    assert score(left, right) == pytest.approx(score(left, renamed))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(instance_pair(max_rows=4), st.randoms(use_true_random=False))
def test_relaxation_invariant_under_shuffle_and_reidentification(pair, rng):
    """The solved relaxation depends only on the weight multiset."""
    left, right = pair
    options = MatchOptions.versioning(lam=LAM)

    def bound(a, b):
        a, b = prepare_for_comparison(a, b)
        return assignment_bounds(a, b, options)

    reference = bound(left, right)
    for variant in (
        right.shuffled(rng),
        right.with_fresh_ids("fresh"),
        right.rename_nulls(
            {null: LabeledNull(f"Z_{null.label}") for null in right.vars()}
        ),
    ):
        other = bound(left, variant)
        assert other.relaxation_value == pytest.approx(
            reference.relaxation_value
        )
        assert other.upper_bound == pytest.approx(reference.upper_bound)
