"""Typed algorithm selection for :func:`repro.compare`.

Algorithms are selected with typed values, so a typo fails where the
selection is written rather than deep inside the selected algorithm:

* :class:`Algorithm` — an enum of the six comparison algorithms; and
* one frozen options dataclass per algorithm (:class:`SignatureOptions`,
  :class:`AssignmentOptions`, :class:`ExactOptions`, :class:`GroundOptions`,
  :class:`PartialOptions`, :class:`AnytimeOptions`) carrying exactly the
  knobs that algorithm understands.

``compare()`` accepts either form::

    compare(I, J, Algorithm.EXACT)                    # defaults
    compare(I, J, ExactOptions(node_budget=10))       # tuned

A string name (``algorithm="exact"``) raises ``TypeError``;
``Algorithm("exact")`` converts one.

The dataclasses are frozen and picklable, so a single spec object can be
shipped to every worker of the parallel batch engine
(:mod:`repro.parallel`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Union

from ..runtime.anytime import DEFAULT_ANYTIME_NODE_BUDGET
from ..runtime.budget import DEFAULT_CHECK_INTERVAL
from .assignment import DEFAULT_MAX_BLOCK_SIZE, DENSE_FALLBACK_SIZE
from .exact import DEFAULT_NODE_BUDGET


class Algorithm(Enum):
    """The comparison algorithms offered by :func:`repro.compare`.

    Each member's :attr:`value` is its name (``Algorithm("exact")`` is
    ``Algorithm.EXACT``), and each knows its options type
    (:meth:`options_type`) and default options (:meth:`default_options`).
    """

    SIGNATURE = "signature"
    EXACT = "exact"
    GROUND = "ground"
    PARTIAL = "partial"
    ANYTIME = "anytime"
    ASSIGNMENT = "assignment"

    def options_type(self) -> type["AlgorithmOptions"]:
        """The typed options dataclass for this algorithm."""
        return _OPTION_TYPES[self]

    def default_options(self) -> "AlgorithmOptions":
        """This algorithm's options with every knob at its default."""
        return _OPTION_TYPES[self]()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class SignatureOptions:
    """Options for the scalable greedy signature algorithm (Alg. 3–4).

    Parameters
    ----------
    align_preference:
        Prefer signature matches that align equal constants (the paper's
        tie-breaking heuristic); disable only to reproduce unaligned runs.
    """

    align_preference: bool = True

    algorithm = Algorithm.SIGNATURE


@dataclass(frozen=True)
class AssignmentOptions:
    """Options for the globally-optimal assignment completion.

    Parameters
    ----------
    align_preference:
        Forwarded to the greedy floor (see :class:`SignatureOptions`).
    max_block_size:
        Per-relation candidate-block cap: relations whose candidate matrix
        exceeds this many rows or columns keep the greedy pairs instead of
        being solved (bounds solver cost on huge tables).
    dense_threshold:
        Blocks up to this size run the dense O(n³) Hungarian fallback;
        larger blocks run the sparse Jonker-Volgenant path.
    """

    align_preference: bool = True
    max_block_size: int = DEFAULT_MAX_BLOCK_SIZE
    dense_threshold: int = DENSE_FALLBACK_SIZE

    algorithm = Algorithm.ASSIGNMENT


@dataclass(frozen=True)
class ExactOptions:
    """Options for the exact branch-and-bound comparison (NP-hard).

    Parameters
    ----------
    node_budget:
        Search-node cap; on exhaustion the best match found so far is
        returned with a non-complete outcome.
    prune:
        Enable upper-bound pruning with the pair bound and the solved
        assignment relaxation
        (:func:`repro.algorithms.assignment.assignment_bounds`); both are
        admissible, so a completed search returns the same answer either
        way (turn off only for ablations or as a test oracle).
    """

    node_budget: int = DEFAULT_NODE_BUDGET
    prune: bool = True

    algorithm = Algorithm.EXACT


@dataclass(frozen=True)
class GroundOptions:
    """Options for the PTIME ground-instance comparison (no knobs)."""

    algorithm = Algorithm.GROUND


@dataclass(frozen=True)
class PartialOptions:
    """Options for partial tuple matching (Sec. 6.3).

    Parameters
    ----------
    min_agreeing_cells:
        Minimum number of agreeing cells for a pair to be matched.
    max_signature_width:
        Cap on indexed signature width (bounds the powerset blowup).
    constant_similarity:
        Optional ``[0, 1]`` similarity on constants for partial credit;
        note a callable here makes the options object unpicklable unless
        the callable is a module-level function.
    similarity_threshold:
        Minimum ``constant_similarity`` for two constants to count as
        agreeing.
    """

    min_agreeing_cells: int = 1
    max_signature_width: int = 3
    constant_similarity: Callable[[object, object], float] | None = None
    similarity_threshold: float = 0.8

    algorithm = Algorithm.PARTIAL


@dataclass(frozen=True)
class AnytimeOptions:
    """Options for the anytime ladder signature → refine → assignment → exact.

    Parameters
    ----------
    node_budget:
        Node cap for the exact rung (composes with the deadline).
    check_interval:
        How many search steps between deadline/cancellation checks.
    """

    node_budget: int = DEFAULT_ANYTIME_NODE_BUDGET
    check_interval: int = DEFAULT_CHECK_INTERVAL

    algorithm = Algorithm.ANYTIME


AlgorithmOptions = Union[
    SignatureOptions,
    AssignmentOptions,
    ExactOptions,
    GroundOptions,
    PartialOptions,
    AnytimeOptions,
]
"""Any per-algorithm options dataclass."""

_OPTION_TYPES: dict[Algorithm, type] = {
    Algorithm.SIGNATURE: SignatureOptions,
    Algorithm.EXACT: ExactOptions,
    Algorithm.GROUND: GroundOptions,
    Algorithm.PARTIAL: PartialOptions,
    Algorithm.ANYTIME: AnytimeOptions,
    Algorithm.ASSIGNMENT: AssignmentOptions,
}


def resolve_algorithm(
    algorithm: "Algorithm | AlgorithmOptions | None",
) -> AlgorithmOptions:
    """Normalize any accepted ``algorithm=`` argument to typed options.

    An options dataclass instance is returned as-is, an :class:`Algorithm`
    member expands to its default options, and ``None`` selects the
    default algorithm (signature).  Anything else raises ``TypeError``;
    for a string, the message names the ``Algorithm(...)`` call that
    converts it.
    """
    if isinstance(algorithm, _OPTION_CLASSES):
        return algorithm
    if algorithm is None:
        return SignatureOptions()
    if isinstance(algorithm, Algorithm):
        return algorithm.default_options()
    if isinstance(algorithm, str):
        raise TypeError(
            f"algorithm={algorithm!r}: string algorithm names were removed "
            f"in repro 2.0; pass Algorithm({algorithm!r}) or a typed options "
            f"object such as ExactOptions(...)"
        )
    raise TypeError(
        f"algorithm must be an Algorithm member or a typed options object; "
        f"got {type(algorithm).__name__}"
    )


_OPTION_CLASSES = (
    SignatureOptions,
    AssignmentOptions,
    ExactOptions,
    GroundOptions,
    PartialOptions,
    AnytimeOptions,
)

__all__ = [
    "Algorithm",
    "AlgorithmOptions",
    "AnytimeOptions",
    "AssignmentOptions",
    "ExactOptions",
    "GroundOptions",
    "PartialOptions",
    "SignatureOptions",
    "resolve_algorithm",
]
