"""Scoring semantics for instance matches (paper Sec. 5)."""

from .cell_score import cell_score, max_cell_score
from .lemma54 import (
    assert_valid_cell_scorer,
    check_cell_score_conditions,
    make_constant_similarity_scorer,
)
from .match_score import (
    ScoreBreakdown,
    score_committed_pairs,
    score_match,
    score_match_with_breakdown,
    tuple_pair_score,
    verify_score_requirements,
)
from .noninjectivity import NonInjectivityMeasure
from .sizes import instance_size, normalization_denominator

__all__ = [
    "NonInjectivityMeasure",
    "ScoreBreakdown",
    "assert_valid_cell_scorer",
    "cell_score",
    "check_cell_score_conditions",
    "make_constant_similarity_scorer",
    "instance_size",
    "max_cell_score",
    "normalization_denominator",
    "score_committed_pairs",
    "score_match",
    "score_match_with_breakdown",
    "tuple_pair_score",
    "verify_score_requirements",
]
