"""repro — similarity measures for incomplete database instances.

A from-scratch reproduction of *Similarity Measures For Incomplete Database
Instances* (EDBT 2024): compare relational instances containing labeled
nulls, without relying on keys, and obtain both a similarity score in
``[0, 1]`` and an *instance match* explaining it.

Quickstart
----------
>>> from repro import Instance, LabeledNull, compare
>>> N1, Na = LabeledNull("N1"), LabeledNull("Na")
>>> I = Instance.from_rows("Conf", ("Name", "Year"),
...     [("VLDB", 1975), ("SIGMOD", N1)], id_prefix="l")
>>> J = Instance.from_rows("Conf", ("Name", "Year"),
...     [("VLDB", 1975), ("SIGMOD", Na)], id_prefix="r")
>>> result = compare(I, J)
>>> result.similarity
1.0

The primary entry point is :class:`Comparator` — one configured session
object offering one-shot (:meth:`~Comparator.compare_one`), cached
(:meth:`~Comparator.compare`), batch (:meth:`~Comparator.compare_many`),
and anytime (:meth:`~Comparator.compare_anytime`) comparisons.  The
module-level :func:`compare`, :func:`compare_many`,
:func:`compare_anytime`, and :func:`similarity` are thin wrappers that
build a throwaway ``Comparator`` per call.  Constraints for specific
applications — data versioning, data-exchange solution comparison,
constraint-repair evaluation — are presets on
:class:`~repro.mappings.MatchOptions`.

Bulk data enters columnar: :meth:`Instance.from_columns` ingests
per-attribute value arrays (with optional null masks) and arrives with
the integer-coded columnar view (:mod:`repro.core.columnar`) already
built, which the compatibility and fingerprinting hot paths then consume
directly (see ``docs/COLUMNAR.md``).  Signatures and sketches are built
from the tuple objects.
"""

from __future__ import annotations

from .algorithms.assignment import (
    assignment_bounds,
    assignment_compare,
    solve_assignment,
)
from .algorithms.dispatch import run_algorithm
from .algorithms.exact import DEFAULT_NODE_BUDGET, exact_compare
from .algorithms.ground import ground_compare, symmetric_difference_similarity
from .algorithms.options import (
    Algorithm,
    AlgorithmOptions,
    AnytimeOptions,
    AssignmentOptions,
    ExactOptions,
    GroundOptions,
    PartialOptions,
    SignatureOptions,
)
from .algorithms.partial import partial_signature_compare
from .algorithms.refine import refine_match
from .algorithms.result import ComparisonResult
from .algorithms.signature import SignatureIndex, signature_compare
from .core.errors import ReproError
from .core.instance import Instance, prepare_for_comparison
from .core.schema import RelationSchema, Schema
from .core.tuples import Cell, Tuple
from .core.values import LabeledNull, NullFactory, is_constant, is_null
from .mappings.constraints import DEFAULT_LAMBDA, MatchOptions
from .mappings.instance_match import InstanceMatch
from .mappings.tuple_mapping import TupleMapping
from .mappings.value_mapping import ValueMapping
from .comparator import Comparator
from .delta import (
    DeltaBatch,
    DeltaSession,
    SketchMaintainer,
    TupleOp,
    UpdateReport,
)
from .index import IndexParams, RefinePolicy, SimilarityIndex
from .obs import (
    MetricsRegistry,
    ProfileCollector,
    Tracer,
    collect_metrics,
    collect_profile,
    collect_trace,
    render_report,
)
from .parallel import SignatureCache, instance_fingerprint
from .runtime import (
    Budget,
    CancellationToken,
    Executor,
    FaultPlan,
    Outcome,
    RetryPolicy,
    WorkerLimits,
)
from .runtime.anytime import DEFAULT_ANYTIME_NODE_BUDGET
from .runtime.budget import DEFAULT_CHECK_INTERVAL
from .scoring.match_score import score_match

__version__ = "4.0.0"


def compare(
    left: Instance,
    right: Instance,
    algorithm: Algorithm | AlgorithmOptions | None = None,
    options: MatchOptions | None = None,
    prepare: bool = True,
    align_schemas: bool = False,
    deadline: float | None = None,
    token: CancellationToken | None = None,
    executor: Executor | None = None,
) -> ComparisonResult:
    """Compare two instances and return score, match, and statistics.

    Parameters
    ----------
    left, right:
        The instances to compare.  They must share a schema — or pass
        ``align_schemas=True`` to bridge attribute differences with the
        padding trick of Sec. 4.3 (missing attributes are added with a
        distinct fresh null per row).
    algorithm:
        Which algorithm to run, as an :class:`Algorithm` member (e.g.
        ``Algorithm.EXACT``) or a typed options object carrying its knobs
        (e.g. ``ExactOptions(node_budget=10)``).  ``None`` (the default)
        selects the scalable signature algorithm.  The available
        algorithms:

        * ``Algorithm.SIGNATURE`` — greedy approximate (Alg. 3–4), scalable;
          knobs on :class:`SignatureOptions`;
        * ``Algorithm.ASSIGNMENT`` — greedy-seeded globally-optimal 1:1
          completion (Hungarian / Jonker-Volgenant), polynomial, score ≥
          signature; knobs on :class:`AssignmentOptions`;
        * ``Algorithm.EXACT`` — optimal branch-and-bound, exponential;
          knobs on :class:`ExactOptions`;
        * ``Algorithm.GROUND`` — PTIME, ground instances only
          (:class:`GroundOptions`);
        * ``Algorithm.PARTIAL`` — partial tuple matches, Sec. 6.3; knobs on
          :class:`PartialOptions`;
        * ``Algorithm.ANYTIME`` — the graceful-degradation ladder signature
          → refine → assignment → exact (:class:`AnytimeOptions`; see
          :func:`repro.runtime.compare_anytime`).

        String names (``algorithm="exact"``) raise ``TypeError``;
        ``Algorithm("exact")`` converts one.
    options:
        Structural constraints and λ; defaults to
        :meth:`MatchOptions.general`.
    prepare:
        When ``True`` (default), tuple ids and labeled nulls are made
        disjoint automatically (semantics-preserving re-identification); the
        returned match then refers to the prepared copies.  Pass ``False``
        if the inputs already satisfy the preconditions and you need the
        match to reference your exact tuple objects.
    deadline:
        Wall-clock allowance in seconds.  Supported by signature, exact,
        and anytime; when the deadline trips, the result carries a
        non-complete ``outcome`` and its score is a lower bound.
    token:
        A :class:`~repro.runtime.CancellationToken` for cooperative
        cancellation (same algorithm support as ``deadline``).
    executor:
        An :class:`~repro.runtime.Executor` providing fault-tolerant
        execution (worker isolation, memory caps, retry/backoff).
        Supported for exact and anytime.  A hard death of the exponential
        stage — OOM, wall kill, crash — then *degrades* to the signature
        tier instead of propagating: the result carries the approximate
        score, the failure outcome (``oom``/``killed``/``crashed``), and
        the structured attempt log in ``stats["fault_log"]``.

    Returns
    -------
    ComparisonResult
        ``result.similarity`` is the score; ``result.match`` explains it;
        ``result.outcome`` says whether the algorithm completed.

    Examples
    --------
    >>> from repro import Algorithm, ExactOptions
    >>> result = compare(I, J)                                # doctest: +SKIP
    >>> result = compare(I, J, Algorithm.EXACT)               # doctest: +SKIP
    >>> result = compare(I, J, ExactOptions(node_budget=10))  # doctest: +SKIP

    This is a thin wrapper over :meth:`Comparator.compare_one`; hold a
    :class:`Comparator` instead when comparing more than once with the
    same configuration.
    """
    return Comparator(algorithm, options, deadline=deadline).compare_one(
        left,
        right,
        prepare=prepare,
        align_schemas=align_schemas,
        token=token,
        executor=executor,
    )


def similarity(
    left: Instance,
    right: Instance,
    algorithm: Algorithm | AlgorithmOptions | None = None,
    options: MatchOptions | None = None,
    **kwargs,
) -> float:
    """The similarity score of two instances (Def. 3.2), in ``[0, 1]``.

    A convenience wrapper around :func:`compare` returning only the score.
    """
    return compare(
        left, right, algorithm=algorithm, options=options, **kwargs
    ).similarity


def compare_many(
    pairs,
    algorithm: Algorithm | AlgorithmOptions | None = None,
    options: MatchOptions | None = None,
    *,
    jobs: int = 1,
    cache: SignatureCache | None = None,
    deadline: float | None = None,
    limits: WorkerLimits | None = None,
    retry: RetryPolicy | None = None,
    fault_plan: FaultPlan | None = None,
    fault_pairs=None,
    out=None,
) -> list[ComparisonResult]:
    """Compare every ``(left, right)`` pair; results in input order.

    A thin wrapper over :meth:`Comparator.compare_many` — see
    :func:`repro.parallel.compare_many` for the full parameter reference.
    Hold a :class:`Comparator` instead to keep the signature cache warm
    across batches.
    """
    return Comparator(
        algorithm,
        options,
        jobs=jobs,
        cache=cache,
        deadline=deadline,
        limits=limits,
        retry=retry,
        fault_plan=fault_plan,
        out=out,
    ).compare_many(pairs, fault_pairs=fault_pairs)


def compare_anytime(
    left: Instance,
    right: Instance,
    deadline: float | None = None,
    options: MatchOptions | None = None,
    token: CancellationToken | None = None,
    prepare: bool = True,
    node_budget: int = DEFAULT_ANYTIME_NODE_BUDGET,
    check_interval: int = DEFAULT_CHECK_INTERVAL,
    executor: Executor | None = None,
) -> ComparisonResult:
    """Best similarity obtainable within ``deadline`` seconds.

    A thin wrapper over :meth:`Comparator.compare_anytime` — see
    :func:`repro.runtime.compare_anytime` for the full parameter
    reference and the ladder semantics.
    """
    return Comparator(
        AnytimeOptions(node_budget=node_budget, check_interval=check_interval),
        options,
        deadline=deadline,
    ).compare_anytime(
        left, right, token=token, prepare=prepare, executor=executor
    )


__all__ = [
    "Algorithm",
    "AlgorithmOptions",
    "AnytimeOptions",
    "AssignmentOptions",
    "Budget",
    "CancellationToken",
    "Cell",
    "Comparator",
    "ComparisonResult",
    "DEFAULT_LAMBDA",
    "DEFAULT_NODE_BUDGET",
    "DeltaBatch",
    "DeltaSession",
    "ExactOptions",
    "Executor",
    "FaultPlan",
    "GroundOptions",
    "IndexParams",
    "Instance",
    "MetricsRegistry",
    "Outcome",
    "PartialOptions",
    "ProfileCollector",
    "RefinePolicy",
    "RetryPolicy",
    "SimilarityIndex",
    "SignatureIndex",
    "SignatureOptions",
    "SketchMaintainer",
    "Tracer",
    "TupleOp",
    "UpdateReport",
    "WorkerLimits",
    "collect_metrics",
    "collect_profile",
    "collect_trace",
    "compare_anytime",
    "render_report",
    "InstanceMatch",
    "LabeledNull",
    "MatchOptions",
    "NullFactory",
    "RelationSchema",
    "ReproError",
    "Schema",
    "SignatureCache",
    "Tuple",
    "TupleMapping",
    "ValueMapping",
    "__version__",
    "assignment_bounds",
    "assignment_compare",
    "compare",
    "compare_many",
    "exact_compare",
    "ground_compare",
    "instance_fingerprint",
    "is_constant",
    "is_null",
    "partial_signature_compare",
    "prepare_for_comparison",
    "refine_match",
    "score_match",
    "signature_compare",
    "similarity",
    "solve_assignment",
    "symmetric_difference_similarity",
]
