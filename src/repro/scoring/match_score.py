"""Tuple, tuple-pair, and instance-match scores (paper Defs. 5.2, 5.3, 5.5).

The scoring cascade:

1. *cell score* — per attribute of a matched pair (``cell_score``);
2. *tuple pair score* — ``score(M, t, t') = Σ_A score(M, t, t', A)``;
3. *tuple score* — the average pair score over the tuple's image under the
   tuple mapping, ``score(M, t) = Σ_{t_m ∈ m(t)} score(M, t, t_m) / |m(t)|``
   (tuples with an empty image score 0);
4. *match score* — the normalized sum over both instances::

       score(M) = (Σ_{t∈I} score(M,t) + Σ_{t'∈I'} score(M,t')) /
                  (size(I) + size(I'))

The symmetry requirement Eq. (5) holds by construction: every pair
contributes identically to the left and the right tuple's score, and the
denominator is symmetric.

:func:`score_match` is the oracle for any :class:`InstanceMatch`; the
rungs and the delta engine score unified pairs from the unifier's class
counts (:func:`score_committed_pairs`), through the same summation path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Callable, Iterable

from ..core.errors import ScoringError
from ..core.instance import Instance
from ..core.tuples import Tuple
from ..core.values import LabeledNull
from ..mappings.constraints import DEFAULT_LAMBDA
from ..mappings.instance_match import InstanceMatch
from .cell_score import cell_score
from .noninjectivity import NonInjectivityMeasure
from .sizes import normalization_denominator


@dataclass(frozen=True)
class ScoreBreakdown:
    """A match score together with its per-tuple decomposition.

    Attributes
    ----------
    score:
        The normalized instance match score in ``[0, 1]``.
    left_tuple_scores, right_tuple_scores:
        ``score(M, t)`` by tuple id.
    pair_scores:
        ``score(M, t, t')`` by id pair.
    denominator:
        ``size(I) + size(I')``.
    relation_scores:
        The normalized score restricted to each relation — i.e. the match
        score the comparison would have if only that relation existed.
        Useful for explaining multi-relation comparisons (e.g. which target
        relation of a data-exchange solution diverges from the gold).
    """

    score: float
    left_tuple_scores: dict[str, float] = field(repr=False)
    right_tuple_scores: dict[str, float] = field(repr=False)
    pair_scores: dict[tuple[str, str], float] = field(repr=False)
    denominator: int = 0
    relation_scores: dict[str, float] = field(default_factory=dict)


def tuple_pair_score(
    match: InstanceMatch,
    t: Tuple,
    t_prime: Tuple,
    measure: NonInjectivityMeasure | None = None,
    lam: float = DEFAULT_LAMBDA,
) -> float:
    """``score(M, t, t')``: sum of cell scores over the shared attributes.

    Cells are paired by position: comparable schemas list each relation's
    attributes in the same order (:meth:`~repro.core.schema.Schema.is_compatible_with`).
    """
    if measure is None:
        measure = NonInjectivityMeasure(match)
    total = 0.0
    for left_value, right_value in zip(t.values, t_prime.values):
        total += cell_score(
            left_value,
            right_value,
            match.h_l(left_value),
            match.h_r(right_value),
            measure,
            lam,
        )
    return total


def score_match(match: InstanceMatch, lam: float = DEFAULT_LAMBDA) -> float:
    """``score(M)`` — the normalized instance match score (Def. 5.3)."""
    return score_match_with_breakdown(match, lam=lam).score


def score_match_with_breakdown(
    match: InstanceMatch, lam: float = DEFAULT_LAMBDA
) -> ScoreBreakdown:
    """Compute ``score(M)`` and its per-tuple/per-pair decomposition."""
    if not 0.0 <= lam < 1.0:
        raise ScoringError(f"lambda must be in [0, 1), got {lam}")
    left, right = match.left, match.right
    measure = NonInjectivityMeasure(match)

    pair_scores: dict[tuple[str, str], float] = {}
    for left_id, right_id in match.m:
        t = left.get_tuple(left_id)
        t_prime = right.get_tuple(right_id)
        pair_scores[(left_id, right_id)] = tuple_pair_score(
            match, t, t_prime, measure=measure, lam=lam
        )

    breakdown = _breakdown(left, right, pair_scores)
    left_scores = breakdown.left_tuple_scores
    right_scores = breakdown.right_tuple_scores

    relation_scores: dict[str, float] = {}
    for relation in left.schema:
        name = relation.name
        left_rel = left.relation(name)
        right_rel = right.relation(name)
        rel_denominator = (
            len(left_rel) + len(right_rel)
        ) * relation.arity
        if rel_denominator == 0:
            relation_scores[name] = 1.0
            continue
        rel_numerator = sum(
            left_scores[t.tuple_id] for t in left_rel
        ) + sum(right_scores[t.tuple_id] for t in right_rel)
        relation_scores[name] = rel_numerator / rel_denominator

    return replace(breakdown, relation_scores=relation_scores)


def committed_pair_score(
    t: Tuple, t_prime: Tuple, class_counts: Callable, lam: float
) -> float:
    """``score(M, t, t')`` of a pair whose cells are unified (Def. 5.5).

    ``class_counts(v)`` is ``(left nulls, right nulls)`` of ``v``'s class
    (:meth:`~repro.algorithms.unifier.Unifier.side_counts`), ⊓'s counts
    (Eq. 6); each case is written as :func:`cell_score` writes it.
    """
    total = 0.0
    for left_value, right_value in zip(t.values, t_prime.values):
        if isinstance(left_value, LabeledNull):
            left_count, right_count = class_counts(left_value)
            if isinstance(right_value, LabeledNull):
                total += 2.0 / (left_count + right_count)
            else:
                total += (2.0 * lam) / (left_count + 1)
        elif isinstance(right_value, LabeledNull):
            total += (2.0 * lam) / (1 + class_counts(right_value)[1])
        else:  # equal constants: the pair is unified
            total += 1.0
    return total


def score_committed_pairs(
    left: Instance, right: Instance, pairs: Iterable[tuple[str, str]],
    class_counts: Callable, lam: float,
) -> ScoreBreakdown:
    """``score(M)`` of unified ``pairs``, read off class counts.

    Equals :func:`score_match_with_breakdown` of the match the unifier
    realizes, bit for bit; ``relation_scores`` stays empty.
    """
    return _breakdown(left, right, {
        pair: committed_pair_score(
            left.get_tuple(pair[0]), right.get_tuple(pair[1]),
            class_counts, lam,
        )
        for pair in pairs
    })


def _breakdown(left, right, pair_scores) -> ScoreBreakdown:
    """Tuple scores, then the normalized sum: the one summation path."""
    image: dict[str, list[str]] = {}
    preimage: dict[str, list[str]] = {}
    for left_id, right_id in pair_scores:
        image.setdefault(left_id, []).append(right_id)
        preimage.setdefault(right_id, []).append(left_id)
    left_scores = tuple_scores(left.tuple_ids(), pair_scores, "left", image.get)
    right_scores = tuple_scores(
        right.tuple_ids(), pair_scores, "right", preimage.get
    )
    # Both dicts hold every tuple id in instance order.
    numerator = tuple_score_sum(
        left_scores, left_scores, right_scores, right_scores
    )
    denominator = normalization_denominator(left, right)
    return ScoreBreakdown(
        # Two empty instances are (vacuously) isomorphic: score 1.
        score=numerator / denominator if denominator else 1.0,
        left_tuple_scores=left_scores,
        right_tuple_scores=right_scores,
        pair_scores=pair_scores,
        denominator=denominator,
    )


def tuple_scores(tuple_ids, pair_scores, side, image) -> dict[str, float]:
    """Average pair scores over each tuple's image (Def. 5.2).

    An image of more than two tuples is summed in id order: three or more
    float terms sum differently in different orders, and a set's order
    follows ``PYTHONHASHSEED``.  Two terms commute exactly.
    """
    scores: dict[str, float] = {}
    for tuple_id in tuple_ids:
        counterparts = image(tuple_id)
        if not counterparts:
            scores[tuple_id] = 0.0
            continue
        if len(counterparts) > 2:
            counterparts = sorted(counterparts)
        if side == "left":
            total = sum(pair_scores[(tuple_id, other)] for other in counterparts)
        else:
            total = sum(pair_scores[(other, tuple_id)] for other in counterparts)
        scores[tuple_id] = total / len(counterparts)
    return scores


def tuple_score_sum(left_scores, left_ids, right_scores, right_ids) -> float:
    """Σ ``score(M, t)`` over ``I``, then over ``I'``, in the ids' order.

    A missing tuple adds an exact 0.0 (an unmatched tuple's score).
    """
    return sum(map(left_scores.get, left_ids, repeat(0.0))) + sum(
        map(right_scores.get, right_ids, repeat(0.0))
    )


def verify_score_requirements(
    left: Instance, right: Instance, match: InstanceMatch, lam: float
) -> None:
    """Sanity-check a score computation against the trivially checkable axioms.

    Verifies symmetry (Eq. 5) by scoring ``M^{-1}``, and bounds.  Intended for
    tests and debugging, not hot paths.
    """
    forward = score_match(match, lam=lam)
    backward = score_match(match.inverted(), lam=lam)
    if abs(forward - backward) > 1e-9:
        raise ScoringError(
            f"symmetry violated: score(M)={forward} but score(M^-1)={backward}"
        )
    if not -1e-9 <= forward <= 1.0 + 1e-9:
        raise ScoringError(f"score {forward} outside [0, 1]")
