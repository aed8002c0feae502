"""Property tests for the refine rung's bound-then-evaluate move filter.

The climb settles a move without re-scoring it only when the move provably
cannot win, so three facts must hold over random feasible pair sets under
``MatchOptions.general`` and the four Sec. 4.3 presets, at λ in
{0, 0.5, 0.9}:

* (a) a drop the bound settles never scores above the incumbent;
* (b) an add is settled exactly when the full evaluation finds no complete
  match;
* (c) ``refine_match`` returns what the same climb returns with the bound
  disabled: same similarity, pairs, value mappings and move counts.

Instances hold ≤6 tuples a side of arity ≤3; nulls come from a small pool
per side, so they repeat across tuples and pairs merge value classes, which
is what makes drops win.
"""

from __future__ import annotations

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

from repro.algorithms.refine import (
    DEFAULT_MOVE_BUDGET,
    _evaluate,
    _Incumbent,
    _respects,
    refine_match,
)
from repro.algorithms.result import ComparisonResult
from repro.algorithms.unifier import Unifier
from repro.core.instance import Instance
from repro.core.values import LabeledNull
from repro.mappings.constraints import MatchOptions

PRESETS = {
    "general": MatchOptions.general,
    "versioning": MatchOptions.versioning,
    "data-repair": MatchOptions.data_repair,
    "universal-vs-core": MatchOptions.universal_vs_core,
    "universal-vs-universal": MatchOptions.universal_vs_universal,
}
LAMBDAS = (0.0, 0.5, 0.9)
CONSTANTS = "abc"


@st.composite
def cases(draw, preset: str | None = None):
    """``(left, right, options, pairs)``, ``pairs`` feasible under options."""
    if preset is None:
        preset = draw(st.sampled_from(sorted(PRESETS)))
    options = PRESETS[preset](lam=draw(st.sampled_from(LAMBDAS)))
    arity = draw(st.integers(min_value=1, max_value=3))
    attributes = tuple(f"A{i}" for i in range(arity))

    def side(prefix: str) -> Instance:
        pool = [
            LabeledNull(f"{prefix}{k}")
            for k in range(draw(st.integers(min_value=1, max_value=4)))
        ]
        cell = st.sampled_from(pool) | st.sampled_from(CONSTANTS)
        rows = draw(
            st.lists(st.tuples(*[cell] * arity), min_size=1, max_size=6)
        )
        return Instance.from_rows(
            "R", attributes, rows, id_prefix=prefix.lower()
        )

    left, right = side("L"), side("R")
    left_ids, right_ids = sorted(left.ids()), sorted(right.ids())
    # A random 1:1 pairing first, then extra pairs for the n:m presets;
    # keep each pair the options and the growing unifier admit.
    drawn = list(zip(
        draw(st.permutations(left_ids)), draw(st.permutations(right_ids))
    )) + draw(st.lists(
        st.tuples(st.sampled_from(left_ids), st.sampled_from(right_ids)),
        max_size=6,
    ))
    unifier = Unifier(left.vars(), right.vars())
    pairs: set[tuple[str, str]] = set()
    for pair in drawn:
        if _respects(options, frozenset(pairs | {pair})) and (
            unifier.try_unify_tuples(
                left.get_tuple(pair[0]), right.get_tuple(pair[1])
            )
        ):
            pairs.add(pair)
    return left, right, options, frozenset(pairs)


def _nulls(left: Instance, right: Instance):
    return frozenset(left.vars()), frozenset(right.vars())


def _incumbent(case) -> _Incumbent:
    left, right, options, pairs = case
    evaluation = _evaluate(
        left, right, pairs, options.lam, _nulls(left, right)
    )
    assert evaluation is not None  # the strategy only draws feasible sets
    return _Incumbent(evaluation, options.lam)


def _drop_scores(case):
    """The incumbent's score and, per matched pair, ``(settled, score)``.

    ``score`` is the full evaluation of the pair set without that pair.
    """
    left, right, options, pairs = case
    incumbent = _incumbent(case)
    return incumbent.score, [
        (
            incumbent.drop_cannot_win(pair),
            _evaluate(
                left, right, pairs - {pair}, options.lam, _nulls(left, right)
            ).breakdown.score,
        )
        for pair in sorted(pairs)
    ]


def _winning_drops(case) -> int:
    score, drops = _drop_scores(case)
    return sum(dropped > score + 1e-12 for _, dropped in drops)


@pytest.mark.parametrize("preset", sorted(PRESETS))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_settled_drops_never_win(preset, data):
    score, drops = _drop_scores(data.draw(cases(preset)))
    for settled, dropped in drops:
        if settled:
            assert dropped <= score + 1e-12


@pytest.mark.parametrize("preset", sorted(PRESETS))
@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_add_settled_iff_evaluation_fails(preset, data):
    case = data.draw(cases(preset))
    left, right, options, pairs = case
    incumbent = _incumbent(case)
    for left_id in sorted(left.ids()):
        for right_id in sorted(right.ids()):
            candidate = pairs | {(left_id, right_id)}
            if candidate == pairs or not _respects(options, candidate):
                continue
            evaluated = _evaluate(
                left, right, candidate, options.lam, _nulls(left, right)
            )
            assert incumbent.add_conflicts((left_id, right_id)) == (
                evaluated is None
            )


def test_generated_cases_exercise_both_bounds():
    """The properties above are not vacuous: some drops win, some adds fail."""
    quick = settings(
        max_examples=500,
        derandomize=True,
        database=None,
        phases=[Phase.generate],  # any witness will do: skip shrinking
    )
    find(cases(), lambda case: _winning_drops(case) > 0, settings=quick)

    def conflicting_add(case) -> bool:
        left, right, options, pairs = case
        incumbent = _incumbent(case)
        return any(
            (l, r) not in pairs and incumbent.add_conflicts((l, r))
            for l in left.ids()
            for r in right.ids()
        )

    find(cases(), conflicting_add, settings=quick)


@pytest.mark.parametrize("move_budget", [3, DEFAULT_MOVE_BUDGET])
@pytest.mark.parametrize("preset", sorted(PRESETS))
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_climb_matches_the_unbounded_climb(preset, move_budget, data):
    case = data.draw(cases(preset))
    left, right, options, pairs = case
    start = _incumbent(case)
    seed = ComparisonResult(
        similarity=start.score,
        match=start.evaluation.match,
        options=options,
        algorithm="seed",
    )
    bounded = refine_match(seed, move_budget=move_budget)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            _Incumbent, "drop_cannot_win", lambda self, pair: False
        )
        patch.setattr(_Incumbent, "add_conflicts", lambda self, pair: False)
        unbounded = refine_match(seed, move_budget=move_budget)
    assert unbounded.stats["refine_moves_pruned"] == 0
    assert bounded.similarity == unbounded.similarity
    assert set(bounded.match.m) == set(unbounded.match.m)
    assert bounded.match.h_l == unbounded.match.h_l
    assert bounded.match.h_r == unbounded.match.h_r
    for key in ("refine_moves_tried", "refine_moves_accepted"):
        assert bounded.stats[key] == unbounded.stats[key]
