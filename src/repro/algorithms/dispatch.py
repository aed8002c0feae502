"""Single dispatch point from typed algorithm options to implementations.

:func:`run_algorithm` takes *prepared* instances (disjoint ids and nulls) and
a typed options object (:mod:`repro.algorithms.options`) and runs the right
implementation with the right execution controls.  Both the public
:func:`repro.compare` and the parallel batch engine
(:mod:`repro.parallel.engine`) funnel through here, which is what guarantees
serial and parallel runs compute identical results.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.instance import Instance
from ..mappings.constraints import MatchOptions
from ..runtime.budget import Budget
from ..runtime.cancellation import CancellationToken
from .assignment import assignment_compare
from .exact import exact_compare
from .ground import ground_compare
from .options import (
    Algorithm,
    AlgorithmOptions,
    AnytimeOptions,
    ExactOptions,
    GroundOptions,
    PartialOptions,
    SignatureOptions,
)
from .partial import partial_signature_compare
from .result import ComparisonResult
from .signature import signature_compare

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.retry import Executor

#: Algorithms that accept deadline/cancellation control.
CONTROLLABLE = (
    Algorithm.SIGNATURE,
    Algorithm.ASSIGNMENT,
    Algorithm.EXACT,
    Algorithm.ANYTIME,
)

#: Algorithms that accept a fault-tolerant :class:`Executor`.
EXECUTABLE = (Algorithm.EXACT, Algorithm.ANYTIME)


def validate_controls(
    spec: AlgorithmOptions,
    *,
    deadline: float | None = None,
    token: CancellationToken | None = None,
    executor: "Executor | None" = None,
) -> None:
    """Reject control arguments the selected algorithm cannot honor.

    Mirrors the historical ``compare()`` checks: deadlines and cancellation
    are only meaningful for signature/exact/anytime, executors only for
    exact/anytime.
    """
    algorithm = spec.algorithm
    if (deadline is not None or token is not None) and (
        algorithm not in CONTROLLABLE
    ):
        names = tuple(a.value for a in CONTROLLABLE)
        raise ValueError(
            f"deadline/cancellation control is not supported for algorithm "
            f"{algorithm.value!r}; choose one of {names}"
        )
    if executor is not None and algorithm not in EXECUTABLE:
        raise ValueError(
            f"fault-tolerant execution is not supported for algorithm "
            f"{algorithm.value!r}; choose 'exact' or 'anytime'"
        )


def run_algorithm(
    left: Instance,
    right: Instance,
    spec: AlgorithmOptions,
    options: MatchOptions | None = None,
    *,
    control: Budget | None = None,
    deadline: float | None = None,
    token: CancellationToken | None = None,
    executor: "Executor | None" = None,
    left_index=None,
    right_index=None,
) -> ComparisonResult:
    """Run the algorithm selected by ``spec`` on prepared instances.

    ``left``/``right`` must already have disjoint tuple ids and nulls (see
    :func:`repro.core.instance.prepare_for_comparison`).  ``left_index`` /
    ``right_index`` are optional precomputed
    :class:`~repro.algorithms.signature.SignatureIndex` objects reused by
    the signature-based algorithms (the parallel engine's cache supplies
    them); algorithms that cannot exploit them ignore them.
    """
    validate_controls(spec, deadline=deadline, token=token, executor=executor)
    algorithm = spec.algorithm
    if (
        control is None
        and executor is None
        and (deadline is not None or token is not None)
        and algorithm
        in (Algorithm.SIGNATURE, Algorithm.ASSIGNMENT, Algorithm.EXACT)
    ):
        node_limit = spec.node_budget if algorithm is Algorithm.EXACT else None
        control = Budget(node_limit=node_limit, deadline=deadline, token=token)

    if algorithm is Algorithm.SIGNATURE:
        return signature_compare(
            left,
            right,
            options=options,
            align_preference=spec.align_preference,
            control=control,
            left_index=left_index,
            right_index=right_index,
        )
    elif algorithm is Algorithm.ASSIGNMENT:
        return assignment_compare(
            left,
            right,
            options=options,
            align_preference=spec.align_preference,
            max_block_size=spec.max_block_size,
            dense_threshold=spec.dense_threshold,
            control=control,
            left_index=left_index,
            right_index=right_index,
        )
    elif algorithm is Algorithm.EXACT:
        if executor is not None:
            return _exact_with_executor(
                left, right, spec, options, control, executor,
                deadline=deadline, token=token,
            )
        else:
            return exact_compare(
                left,
                right,
                options=options,
                node_budget=spec.node_budget,
                prune=spec.prune,
                control=control,
            )
    elif algorithm is Algorithm.GROUND:
        return ground_compare(left, right, options=options)
    elif algorithm is Algorithm.PARTIAL:
        return partial_signature_compare(
            left,
            right,
            options=options,
            min_agreeing_cells=spec.min_agreeing_cells,
            max_signature_width=spec.max_signature_width,
            constant_similarity=spec.constant_similarity,
            similarity_threshold=spec.similarity_threshold,
        )
    elif algorithm is Algorithm.ANYTIME:
        from ..runtime.anytime import compare_anytime

        return compare_anytime(
            left,
            right,
            deadline=deadline,
            options=options,
            token=token,
            prepare=False,
            node_budget=spec.node_budget,
            check_interval=spec.check_interval,
            executor=executor,
        )
    else:  # pragma: no cover - exhaustive over Algorithm
        raise AssertionError(f"unhandled algorithm {algorithm!r}")


def _exact_with_executor(
    left: Instance,
    right: Instance,
    spec: ExactOptions,
    options: MatchOptions | None,
    control: Budget | None,
    executor: "Executor",
    deadline: float | None = None,
    token: CancellationToken | None = None,
) -> ComparisonResult:
    """Exact comparison under the fault-tolerance policy.

    Each retry attempt gets a fresh budget (a dead attempt must not pass
    its spent nodes to its successor); once retries are exhausted on a
    resource death or crash, the comparison degrades to the signature tier
    — the result then carries the approximate score, the failure outcome,
    and the structured attempt log.
    """

    def attempt() -> ComparisonResult:
        if control is not None:
            return exact_compare(
                left,
                right,
                options=options,
                prune=spec.prune,
                control=control,
            )
        return exact_compare(
            left,
            right,
            options=options,
            node_budget=spec.node_budget,
            prune=spec.prune,
            deadline=deadline,
            token=token,
        )

    report = executor.run(attempt, degrade=lambda: None, label="exact")
    if not report.degraded and report.value is not None:
        result = report.value
        if report.attempts and len(report.attempts) > 1:
            result.stats["fault_log"] = report.log_dicts()
        return result

    floor = signature_compare(left, right, options=options)
    return ComparisonResult(
        similarity=floor.similarity,
        match=floor.match,
        options=floor.options,
        algorithm="exact→signature(degraded)",
        outcome=report.outcome,
        stats={
            **floor.stats,
            "degraded_from": "exact",
            "fault_log": report.log_dicts(),
            "outcome": report.outcome.value,
        },
        elapsed_seconds=floor.elapsed_seconds,
    )


__all__ = ["CONTROLLABLE", "EXECUTABLE", "run_algorithm", "validate_controls"]
