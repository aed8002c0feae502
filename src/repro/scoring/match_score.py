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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.errors import ScoringError
from ..core.instance import Instance
from ..core.tuples import Tuple
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
    denominator = normalization_denominator(left, right)
    if denominator == 0:
        # Two empty instances are (vacuously) isomorphic: score 1.
        return ScoreBreakdown(
            score=1.0,
            left_tuple_scores={},
            right_tuple_scores={},
            pair_scores={},
            denominator=0,
        )

    measure = NonInjectivityMeasure(match)

    pair_scores: dict[tuple[str, str], float] = {}
    for left_id, right_id in match.m:
        t = left.get_tuple(left_id)
        t_prime = right.get_tuple(right_id)
        pair_scores[(left_id, right_id)] = tuple_pair_score(
            match, t, t_prime, measure=measure, lam=lam
        )

    left_scores = _tuple_scores(
        (t.tuple_id for t in left.tuples()),
        pair_scores,
        side="left",
        image=match.m.image,
    )
    right_scores = _tuple_scores(
        (t.tuple_id for t in right.tuples()),
        pair_scores,
        side="right",
        image=match.m.preimage,
    )

    numerator = sum(left_scores.values()) + sum(right_scores.values())

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

    return ScoreBreakdown(
        score=numerator / denominator,
        left_tuple_scores=left_scores,
        right_tuple_scores=right_scores,
        pair_scores=pair_scores,
        denominator=denominator,
        relation_scores=relation_scores,
    )


def _tuple_scores(tuple_ids, pair_scores, side, image) -> dict[str, float]:
    """Average pair scores over each tuple's image (Def. 5.2)."""
    scores: dict[str, float] = {}
    for tuple_id in tuple_ids:
        counterparts = image(tuple_id)
        if not counterparts:
            scores[tuple_id] = 0.0
            continue
        if side == "left":
            total = sum(pair_scores[(tuple_id, other)] for other in counterparts)
        else:
            total = sum(pair_scores[(other, tuple_id)] for other in counterparts)
        scores[tuple_id] = total / len(counterparts)
    return scores


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
