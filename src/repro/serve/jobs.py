"""Worker-side job functions for the similarity server.

Each endpoint's CPU-bound work is one module-level function here, executed
in a fork worker by the :class:`~repro.serve.supervisor.WorkerSupervisor`.
Fork semantics are what make the warm-index story work: the child gets a
copy-on-write snapshot of the parent's :class:`~repro.index.SimilarityIndex`
and its :class:`~repro.parallel.SignatureCache`, so cache entries warmed in
the parent (at ingest time) are hits in every worker, while nothing the
worker computes can corrupt the parent's state — a crashed search dies
alone.

Every job takes an explicit :class:`~repro.serve.admission.DegradationLevel`
and walks only as much of the anytime ladder as that level allows; the
payload reports which rung actually answered.  Jobs return JSON-ready
dicts (never rich objects) so the result pickle crossing the worker pipe
stays small and version-stable, wrapped as ``{"payload": ..., "metrics":
...}`` — the same snapshot-shipping scheme as
:func:`~repro.parallel.engine.compare_pair_job`, so ``/metrics`` aggregates
worker-side counters exactly.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable

from ..core.instance import Instance, prepare_for_comparison
from ..index.refine import (
    RefinePolicy,
    RefineReport,
    bound_pairs,
    bound_tables,
    refine_dedup,
    refine_search,
)
from ..mappings.constraints import MatchOptions
from ..obs.metrics import MetricsRegistry, set_metrics
from ..runtime.anytime import DEFAULT_ANYTIME_NODE_BUDGET, compare_anytime
from ..runtime.anytime import polynomial_rungs
from ..runtime.budget import Budget
from ..runtime.isolation import register_job
from .admission import DegradationLevel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..index.core import SimilarityIndex


def _collected(fn: Callable[[], dict]) -> dict:
    """Run ``fn`` under a scoped metrics registry; ship the snapshot."""
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        payload = fn()
    finally:
        set_metrics(previous)
    return {"payload": payload, "metrics": registry.snapshot().as_dict()}


def _result_payload(result, rung: str, score_is_exact: bool) -> dict:
    return {
        "similarity": result.similarity,
        "algorithm": result.algorithm,
        "outcome": result.outcome.value,
        "rung": rung,
        "score_is_exact": score_is_exact,
        "matched_tuples": len(result.match.m),
        "elapsed_seconds": result.elapsed_seconds,
    }


def compare_job(
    left: Instance,
    right: Instance,
    level: DegradationLevel = DegradationLevel.FULL,
    deadline: float | None = None,
    options: MatchOptions | None = None,
    node_budget: int = DEFAULT_ANYTIME_NODE_BUDGET,
) -> dict:
    """One pairwise comparison, capped at ``level`` on the anytime ladder."""

    def run() -> dict:
        # Imported lazily for the same circularity reason as the anytime
        # ladder itself: algorithms/ imports the runtime primitives.
        from ..algorithms.pair import PreparedPair
        from ..algorithms.signature import signature_compare

        if level is DegradationLevel.FULL:
            result = compare_anytime(
                left,
                right,
                deadline=deadline,
                options=options,
                node_budget=node_budget,
            )
            return _result_payload(
                result,
                rung=result.stats.get("anytime_rung", "signature"),
                score_is_exact=bool(
                    result.stats.get("anytime_score_is_exact", False)
                ),
            )

        pair = PreparedPair(*prepare_for_comparison(left, right), options)
        if level is DegradationLevel.NO_EXACT:
            # The ladder's own rungs, minus the exact search this level
            # forbids.
            best, rung, _ = polynomial_rungs(
                pair, Budget(), Budget(deadline=deadline).start()
            )
        else:
            best = signature_compare(pair.left, pair.right, pair=pair)
            rung = "signature"
        return _result_payload(best, rung=rung, score_is_exact=False)

    return _collected(run)


def search_job(
    index: "SimilarityIndex",
    query: Instance,
    top_k: int = 5,
    level: DegradationLevel = DegradationLevel.FULL,
    deadline: float | None = None,
) -> dict:
    """Top-k search at the requested degradation level.

    ``FULL`` is brute-force-identical exact top-k; ``NO_EXACT`` refines
    only the LSH shortlist (sub-linear, may miss an out-of-bucket match);
    ``SIGNATURE_ONLY`` ranks the shortlist by the admissible bound alone.
    """

    def run() -> dict:
        started = time.perf_counter()
        if level is DegradationLevel.SIGNATURE_ONLY:
            # The LSH shortlist ranked by admissible bound, never refined:
            # the scores are upper bounds.
            bound_report = RefineReport()
            bounds = bound_tables(index, query, bound_report, exact=False)
            order = sorted(bounds, key=lambda name: (-bounds[name], name))
            hits = [
                dict(name=name, similarity=bounds[name], matched_tuples=None)
                for name in order[:top_k]
            ]
            report = {
                "lsh_candidates": bound_report.lsh_candidates,
                "bound_evaluations": bound_report.bound_evaluations,
                "incomparable": bound_report.incomparable,
                "refined": 0,
            }
        else:
            policy = RefinePolicy(deadline=deadline)
            ranked, refine_report = refine_search(
                index,
                query,
                top_k,
                policy=policy,
                exact=level is DegradationLevel.FULL,
            )
            hits = [
                {
                    "name": hit.name,
                    "similarity": hit.similarity,
                    "matched_tuples": hit.matched_tuples,
                }
                for hit in ranked
            ]
            report = refine_report.as_dict()
        return {
            "hits": hits,
            "approximate": level is not DegradationLevel.FULL,
            "report": report,
            "elapsed_seconds": time.perf_counter() - started,
        }

    return _collected(run)


def dedup_job(
    index: "SimilarityIndex",
    threshold: float = 0.8,
    level: DegradationLevel = DegradationLevel.FULL,
    deadline: float | None = None,
) -> dict:
    """Near-duplicate pairs at the requested degradation level."""

    def run() -> dict:
        started = time.perf_counter()
        if level is DegradationLevel.SIGNATURE_ONLY:
            # The LSH pairs whose bound reaches the threshold, in
            # candidate-pair order, never refined: the scores are upper
            # bounds.
            bound_report = RefineReport()
            pairs = [
                {"first": first, "second": second, "similarity": bound}
                for first, second, bound in bound_pairs(
                    index, threshold, bound_report, exact=False
                )
            ]
            report = {
                "bound_evaluations": bound_report.bound_evaluations,
                "refined": 0,
            }
        else:
            policy = RefinePolicy(deadline=deadline)
            found, refine_report = refine_dedup(
                index,
                threshold,
                policy=policy,
                exact=level is DegradationLevel.FULL,
            )
            pairs = [
                {
                    "first": pair.first,
                    "second": pair.second,
                    "similarity": pair.similarity,
                }
                for pair in found
            ]
            report = refine_report.as_dict()
        return {
            "pairs": pairs,
            "approximate": level is not DegradationLevel.FULL,
            "report": report,
            "elapsed_seconds": time.perf_counter() - started,
        }

    return _collected(run)


# By-name registration keeps the serving jobs submittable across process
# boundaries, the same contract every exponential entry point honours.
register_job("serve_compare", "repro.serve.jobs:compare_job")
register_job("serve_search", "repro.serve.jobs:search_job")
register_job("serve_dedup", "repro.serve.jobs:dedup_job")

__all__ = ["compare_job", "dedup_job", "search_job"]
