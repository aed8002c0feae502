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
from ..runtime.outcome import Outcome
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
from .pair import PreparedPair
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
    pair: PreparedPair | None = None,
) -> ComparisonResult:
    """Run the algorithm selected by ``spec`` on prepared instances.

    ``left``/``right`` must already have disjoint tuple ids and nulls (see
    :func:`repro.core.instance.prepare_for_comparison`).  ``pair`` is
    their :class:`~repro.algorithms.pair.PreparedPair`, e.g. one sharing
    the parallel engine's cached signature indexes; the signature,
    assignment and exact algorithms read it, the others ignore it.
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
            pair=pair,
        )
    elif algorithm is Algorithm.ASSIGNMENT:
        return assignment_compare(
            left,
            right,
            options=options,
            align_preference=spec.align_preference,
            control=control,
            pair=pair,
        )
    elif algorithm is Algorithm.EXACT:
        pair = PreparedPair.of(pair, left, right, options)
        if executor is not None:
            return _exact_with_executor(
                pair, spec, control, executor, deadline=deadline, token=token
            )
        return exact_compare(
            left,
            right,
            node_budget=spec.node_budget,
            prune=spec.prune,
            control=control,
            pair=pair,
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
    pair: PreparedPair,
    spec: ExactOptions,
    control: Budget | None,
    executor: "Executor",
    deadline: float | None = None,
    token: CancellationToken | None = None,
) -> ComparisonResult:
    """Exact comparison under the fault-tolerance policy.

    Each retry attempt gets a fresh budget (a dead attempt must not pass
    its spent nodes to its successor); once retries are exhausted on a
    resource death or crash, the comparison degrades to the signature tier
    (:func:`degraded_floor`).
    """

    def attempt() -> ComparisonResult:
        # A given ``control`` supersedes the per-attempt budget knobs.
        return exact_compare(
            pair.left,
            pair.right,
            node_budget=spec.node_budget,
            prune=spec.prune,
            deadline=deadline,
            token=token,
            control=control,
            pair=pair,
        )

    report = executor.run(attempt, degrade=lambda: None, label="exact")
    if not report.degraded and report.value is not None:
        result = report.value
        if report.attempts and len(report.attempts) > 1:
            result.stats["fault_log"] = report.log_dicts()
        return result
    return degraded_floor(pair, "exact", report.outcome, report.log_dicts())


def degraded_floor(
    pair: PreparedPair,
    algorithm: str,
    outcome: Outcome,
    fault_log: list[dict],
) -> ComparisonResult:
    """The signature floor standing in for an ``algorithm`` run that died.

    The result carries the approximate score under the label
    ``"<algorithm>→signature(degraded)"``, the failure ``outcome`` and the
    structured attempt log.
    """
    floor = signature_compare(pair.left, pair.right, pair=pair)
    return ComparisonResult(
        similarity=floor.similarity,
        match=floor.match,
        options=floor.options,
        algorithm=f"{algorithm}→signature(degraded)",
        outcome=outcome,
        stats={
            **floor.stats,
            "degraded_from": algorithm,
            "fault_log": fault_log,
            "outcome": outcome.value,
        },
        elapsed_seconds=floor.elapsed_seconds,
    )


__all__ = [
    "CONTROLLABLE",
    "EXECUTABLE",
    "degraded_floor",
    "run_algorithm",
    "validate_controls",
]
