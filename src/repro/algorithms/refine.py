"""Local-search refinement of greedy instance matches.

The signature algorithm commits matches greedily and never revisits them;
on adversarial inputs this leaves score on the table (the gap Tables 2–3
measure).  :func:`refine_match` closes part of that gap with hill climbing
over three move types, accepting a move only when the full recomputed score
improves:

* **add** — match a currently unmatched left tuple to a compatible
  unmatched right tuple;
* **drop** — remove a matched pair (subsets can beat supersets when a pair
  forces value-mapping merges that penalize other pairs);
* **reassign** — move a matched left tuple to a different compatible right
  tuple (displacing its current partner when the options are fully
  injective).

It is the second rung of the anytime ladder
(:func:`~repro.runtime.anytime.compare_anytime`), between the signature
floor and the assignment rung.

A full re-score of a candidate costs ``O(|I| · arity)``, so the climb first
tries to prove, from the incumbent's unifier and score breakdown alone, that
a move cannot win (bound, then evaluate):

* an **add** is settled when its pair conflicts with the incumbent's
  unifier — a snapshot/rollback probe that fails exactly when the full
  evaluation would find no complete match;
* a **drop** of ``(l, r)`` only splits value classes, which only lowers ⊓,
  so every other pair gains at most the optimistic maxima
  (:func:`~repro.algorithms.signature.optimistic_cell_score`) of its null
  cells in the classes ``(l, r)`` touches, once per side; the drop is
  settled when twice that gain cannot repay what ``l`` and ``r`` lose.

A settled move still spends one unit of ``move_budget`` and of the
``control`` budget, so the climb visits the same moves in the same order
and stops at the same place as one that re-scores every move.  Reassigns
and unsettled moves are re-scored in full, and only that full evaluation
accepts a move, so the bound changes the cost of a climb, never its result.
This goes beyond the paper's algorithms (which stop at the greedy); the
exact algorithm remains the optimality reference.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from ..core.instance import Instance
from ..core.values import LabeledNull, Value, is_null
from ..mappings.constraints import MatchOptions
from ..mappings.instance_match import InstanceMatch
from ..mappings.tuple_mapping import TupleMapping
from ..obs.metrics import active_metrics
from ..obs.trace import annotate_budget, span
from ..runtime.budget import Budget, resolve_control
from ..scoring.match_score import ScoreBreakdown, score_match_with_breakdown
from .compatibility import compatible_tuples_of_instances
from .result import ComparisonResult
from .signature import optimistic_cell_score
from .unifier import Unifier

DEFAULT_MOVE_BUDGET = 2000
"""Default cap on candidate-move evaluations per refinement."""

_Pair = tuple[str, str]


@dataclass(frozen=True)
class _Evaluation:
    """A feasible pair set with its value mappings, unifier and score."""

    pairs: frozenset[_Pair]
    match: InstanceMatch
    unifier: Unifier
    breakdown: ScoreBreakdown


def _evaluate(
    left: Instance,
    right: Instance,
    pairs: frozenset[_Pair],
    lam: float,
    nulls: tuple[frozenset[LabeledNull], frozenset[LabeledNull]],
) -> _Evaluation | None:
    """Score a candidate pair set, or ``None`` if it admits no complete match.

    ``nulls`` is ``(Vars(left), Vars(right))``, computed once per climb.
    """
    unifier = Unifier(*nulls)
    for left_id, right_id in sorted(pairs):
        if not unifier.try_unify_tuples(
            left.get_tuple(left_id), right.get_tuple(right_id)
        ):
            return None
    h_l, h_r = unifier.to_value_mappings()
    match = InstanceMatch(
        left=left, right=right, h_l=h_l, h_r=h_r, m=TupleMapping(pairs)
    )
    return _Evaluation(
        pairs, match, unifier, score_match_with_breakdown(match, lam=lam)
    )


class _Incumbent:
    """The best evaluation so far and the move bound that reads it.

    Built once per accepted move.  ``_gain_by_root`` maps each value class
    (by unifier root) to the summed optimistic maxima of the matched cells
    holding a null in it — the most any of them can gain when the class
    splits.
    """

    def __init__(self, evaluation: _Evaluation, lam: float) -> None:
        self.evaluation = evaluation
        self.pairs = evaluation.pairs
        self.score = evaluation.breakdown.score
        self._lam = lam
        self._gain_by_root: dict[Value, float] = {}
        for pair in evaluation.pairs:
            for root, cell_max in self._null_cells(pair):
                self._gain_by_root[root] = (
                    self._gain_by_root.get(root, 0.0) + cell_max
                )

    def _null_cells(self, pair: _Pair) -> list[tuple[Value, float]]:
        """``(class root, optimistic max)`` of each null cell of ``pair``."""
        match = self.evaluation.match
        find = self.evaluation.unifier.find
        cells = []
        for left_value, right_value in zip(
            match.left.get_tuple(pair[0]).values,
            match.right.get_tuple(pair[1]).values,
        ):
            if is_null(left_value) or is_null(right_value):
                cells.append((
                    find(left_value),
                    optimistic_cell_score(left_value, right_value, self._lam),
                ))
        return cells

    def add_conflicts(self, pair: _Pair) -> bool:
        """Whether adding ``pair`` admits no complete match.

        Probes the incumbent's unifier and rolls the probe back.
        """
        match = self.evaluation.match
        return not self.evaluation.unifier.compatible_tuples(
            match.left.get_tuple(pair[0]), match.right.get_tuple(pair[1])
        )

    def drop_cannot_win(self, pair: _Pair) -> bool:
        """Whether dropping matched ``pair`` provably scores no higher.

        Dropping ``(l, r)`` splits only the classes holding its nulls.  A
        cell of another pair in such a class gains at most its optimistic
        maximum, and a pair's gain reaches each of its two tuples' scores at
        most once, hence ``2 · gain``.  ``l`` falls from ``score(l)`` to at
        most its best remaining pair score plus that pair's gain (0 when it
        keeps no pair), and likewise ``r``.
        """
        breakdown = self.evaluation.breakdown
        if not breakdown.denominator:
            # Arity-0 relations: the score is 1 and has no breakdown.
            return False
        left_id, right_id = pair
        cells = self._null_cells(pair)
        gain = sum(
            self._gain_by_root[root] for root in {root for root, _ in cells}
        ) - sum(cell_max for _, cell_max in cells)
        mapping = self.evaluation.match.m
        scores = breakdown.pair_scores
        kept_left = [
            scores[(left_id, other)]
            for other in mapping.image(left_id)
            if other != right_id
        ]
        kept_right = [
            scores[(other, right_id)]
            for other in mapping.preimage(right_id)
            if other != left_id
        ]
        loss = (
            breakdown.left_tuple_scores[left_id]
            + breakdown.right_tuple_scores[right_id]
            - max(kept_left, default=0.0)
            - max(kept_right, default=0.0)
        )
        return (2.0 * gain - loss) / breakdown.denominator + 1e-9 <= 1e-12


def _respects(options: MatchOptions, pairs: frozenset[_Pair]) -> bool:
    mapping = TupleMapping(pairs)
    if options.left_injective and not mapping.is_left_injective():
        return False
    if options.right_injective and not mapping.is_right_injective():
        return False
    return True


class _Climb:
    """The hill climb's state: the incumbent and the move counters."""

    def __init__(
        self,
        left: Instance,
        right: Instance,
        options: MatchOptions,
        control: Budget,
        nulls: tuple[frozenset[LabeledNull], frozenset[LabeledNull]],
        incumbent: _Incumbent,
    ) -> None:
        self.left = left
        self.right = right
        self.options = options
        self.control = control
        self.nulls = nulls
        self.incumbent = incumbent
        self.tried = 0
        self.accepted = 0
        self.pruned = 0

    @property
    def pairs(self) -> frozenset[_Pair]:
        return self.incumbent.pairs

    def add(self, pair: _Pair) -> bool:
        return self._try(
            self.pairs | {pair}, lambda: self.incumbent.add_conflicts(pair)
        )

    def drop(self, pair: _Pair) -> bool:
        return self._try(
            self.pairs - {pair}, lambda: self.incumbent.drop_cannot_win(pair)
        )

    def reassign(self, candidate: frozenset[_Pair]) -> bool:
        return self._try(candidate, lambda: False)

    def _try(
        self, candidate: frozenset[_Pair], settled: Callable[[], bool]
    ) -> bool:
        """Move to ``candidate`` if it scores higher.

        ``settled()`` runs after the move is counted and spent; ``True``
        proves the move cannot win and skips the full evaluation.
        """
        if candidate == self.pairs or not _respects(self.options, candidate):
            return False
        if not self.control.spend():
            return False
        self.tried += 1
        if settled():
            self.pruned += 1
            return False
        outcome = _evaluate(
            self.left, self.right, candidate, self.options.lam, self.nulls
        )
        if outcome is None:
            return False
        if outcome.breakdown.score <= self.incumbent.score + 1e-12:
            return False
        self.incumbent = _Incumbent(outcome, self.options.lam)
        self.accepted += 1
        return True


def refine_match(
    result: ComparisonResult,
    move_budget: int = DEFAULT_MOVE_BUDGET,
    max_passes: int = 3,
    control: Budget | None = None,
) -> ComparisonResult:
    """Hill-climb from ``result``'s match; returns an improved (or equal) result.

    The returned similarity is never lower than the input's.  Works with any
    :class:`MatchOptions`; moves that would violate the options' injectivity
    constraints are skipped.  An optional ``control``
    :class:`~repro.runtime.Budget` bounds the climb by wall clock /
    cancellation on top of ``move_budget`` — when it trips mid-pass the
    best-so-far match is returned with the triggering outcome.

    Examples
    --------
    >>> from repro.core.instance import Instance
    >>> from repro.mappings.constraints import MatchOptions
    >>> from repro.algorithms.signature import signature_compare
    >>> left = Instance.from_rows("R", ("A",), [("x",)], id_prefix="l")
    >>> right = Instance.from_rows("R", ("A",), [("x",)], id_prefix="r")
    >>> base = signature_compare(left, right, MatchOptions.versioning())
    >>> refine_match(base).similarity
    1.0
    """
    started = time.perf_counter()
    control = resolve_control(control)
    left, right = result.match.left, result.match.right
    options = result.options
    compatible = compatible_tuples_of_instances(left, right)

    nulls = (frozenset(left.vars()), frozenset(right.vars()))
    evaluated = _evaluate(
        left, right, frozenset(result.match.m), options.lam, nulls
    )
    if evaluated is None:  # defensive: the input match must be feasible
        return result
    climb = _Climb(
        left, right, options, control, nulls,
        _Incumbent(evaluated, options.lam),
    )

    with span("refine.climb", move_budget=move_budget) as traced:
        _run_passes(
            climb,
            max_passes=max_passes,
            move_budget=move_budget,
            compatible=compatible,
        )
        annotate_budget(traced, control)
        traced.set(
            moves_tried=climb.tried,
            moves_accepted=climb.accepted,
            moves_pruned=climb.pruned,
        )

    registry = active_metrics()
    if registry is not None:
        registry.counter("refine.runs")
        registry.counter("refine.moves_tried", climb.tried)
        registry.counter("refine.moves_accepted", climb.accepted)
        registry.counter("refine.moves_pruned", climb.pruned)

    best = climb.incumbent
    # A tripped control outranks the input's outcome: the climb itself was
    # cut short, so even an exact input is no longer known complete here.
    outcome = control.outcome if control.interrupted else result.outcome
    return ComparisonResult(
        similarity=best.score,
        match=best.evaluation.match,
        options=options,
        algorithm=f"{result.algorithm}+refine",
        outcome=outcome,
        stats={
            **result.stats,
            "refine_moves_tried": climb.tried,
            "refine_moves_accepted": climb.accepted,
            "refine_moves_pruned": climb.pruned,
            "refine_gain": best.score - result.similarity,
        },
        elapsed_seconds=result.elapsed_seconds
        + (time.perf_counter() - started),
    )


def _run_passes(climb: _Climb, *, max_passes, move_budget, compatible):
    """The hill-climbing pass loop of :func:`refine_match`."""
    options, control = climb.options, climb.control
    for _ in range(max_passes):
        improved = False
        current_pairs = climb.pairs

        # Move 1: add matches for unmatched left tuples.
        matched_left = {pair[0] for pair in current_pairs}
        matched_right = {pair[1] for pair in current_pairs}
        for left_id in sorted(compatible):
            if climb.tried >= move_budget or control.interrupted:
                break
            if options.left_injective and left_id in matched_left:
                continue
            for right_id in compatible[left_id]:
                if options.right_injective and right_id in matched_right:
                    continue
                if climb.add((left_id, right_id)):
                    current_pairs = climb.pairs
                    matched_left = {p[0] for p in current_pairs}
                    matched_right = {p[1] for p in current_pairs}
                    improved = True
                    break
                if climb.tried >= move_budget:
                    break

        # Move 2: drop pairs whose removal helps.
        for pair in sorted(current_pairs):
            if climb.tried >= move_budget or control.interrupted:
                break
            if climb.drop(pair):
                improved = True
        current_pairs = climb.pairs

        # Move 3: reassign a matched left tuple to a different right tuple.
        for left_id, right_id in sorted(current_pairs):
            if climb.tried >= move_budget or control.interrupted:
                break
            for alternative in compatible.get(left_id, []):
                if alternative == right_id:
                    continue
                base = climb.pairs - {(left_id, right_id)}
                candidate = base | {(left_id, alternative)}
                if options.right_injective:
                    # Displace the alternative's current partner, if any.
                    candidate = frozenset(
                        pair for pair in candidate
                        if pair == (left_id, alternative)
                        or pair[1] != alternative
                    )
                if climb.reassign(candidate):
                    improved = True
                    break
                if climb.tried >= move_budget:
                    break

        if not improved or climb.tried >= move_budget or control.interrupted:
            break
