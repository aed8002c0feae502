"""Comparison algorithms: exact, signature, ground, and partial matching."""

from .compatibility import (
    AttributeIndex,
    c_compatible,
    compatible,
    compatible_tuples,
    compatible_tuples_of_instances,
)
from .exact import DEFAULT_NODE_BUDGET, exact_compare
from .ground import ground_compare, symmetric_difference_similarity
from .options import (
    Algorithm,
    AlgorithmOptions,
    AnytimeOptions,
    ExactOptions,
    GroundOptions,
    PartialOptions,
    SignatureOptions,
    resolve_algorithm,
)
from .pair import PreparedPair
from .refine import DEFAULT_MOVE_BUDGET, refine_match
from .partial import (
    all_signatures,
    normalized_edit_similarity,
    partial_signature_compare,
)
from .result import ComparisonResult
from .signature import (
    SignatureIndex,
    maximal_signature,
    signature_compare,
    signature_of,
    signature_step_only_score,
)
from .unifier import Unifier

__all__ = [
    "Algorithm",
    "AlgorithmOptions",
    "AnytimeOptions",
    "AttributeIndex",
    "ComparisonResult",
    "DEFAULT_NODE_BUDGET",
    "ExactOptions",
    "GroundOptions",
    "PartialOptions",
    "PreparedPair",
    "SignatureIndex",
    "SignatureOptions",
    "Unifier",
    "resolve_algorithm",
    "all_signatures",
    "c_compatible",
    "compatible",
    "compatible_tuples",
    "compatible_tuples_of_instances",
    "exact_compare",
    "ground_compare",
    "maximal_signature",
    "normalized_edit_similarity",
    "partial_signature_compare",
    "refine_match",
    "signature_compare",
    "signature_of",
    "signature_step_only_score",
    "symmetric_difference_similarity",
]
