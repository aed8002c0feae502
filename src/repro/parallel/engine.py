"""Batch comparison: many pairs, one cache, optional worker parallelism.

:func:`compare_many` is the engine behind ``Comparator.compare_many``, the
``repro compare-many`` CLI command, and the experiment grids.  It

1. prepares each distinct instance **once** through the content-addressed
   :class:`~repro.parallel.cache.SignatureCache` (canonical per-side ids
   and null labels, plus the Alg. 4 signature index);
2. runs every pair through :func:`~repro.algorithms.dispatch.run_algorithm`
   — in-process when ``jobs=1``, or fanned over fork workers via
   :class:`~repro.parallel.pool.WorkerPool` when ``jobs>1``;
3. applies the fault-tolerance policy per pair: worker deaths retry with
   backoff, exhausted retries degrade to the in-parent signature floor with
   the failure :class:`~repro.runtime.Outcome` and attempt log attached —
   one poisoned pair never takes down the batch.

Serial and parallel runs execute the *same* job function on the *same*
prepared instances, so ``jobs=1`` and ``jobs=N`` produce identical scores,
matches, and outcomes (CI enforces this).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import Callable, Iterable, Sequence

from ..algorithms.dispatch import degraded_floor, run_algorithm
from ..algorithms.options import Algorithm, AlgorithmOptions, resolve_algorithm
from ..algorithms.pair import PreparedPair
from ..algorithms.result import ComparisonResult
from ..core.instance import Instance
from ..mappings.constraints import MatchOptions
from ..obs.metrics import MetricsSnapshot, active_metrics, collect_metrics
from ..obs.trace import span
from ..runtime.faults import FaultPlan
from ..runtime.isolation import STATUS_OUTCOMES, WorkerLimits
from ..runtime.outcome import Outcome
from ..runtime.retry import RetryPolicy
from .cache import SignatureCache
from .pool import PoolTask, WorkerPool


def compare_pair_job(
    pair: PreparedPair,
    spec: AlgorithmOptions,
    options: MatchOptions | None = None,
    deadline: float | None = None,
    collect: bool = False,
) -> ComparisonResult:
    """Compare one prepared pair; the unit of work shipped to workers.

    Registered in :data:`~repro.runtime.isolation.JOB_REGISTRY` as
    ``"compare_pair"``.  ``pair`` holds the two prepared instances (the
    cache's canonical per-side form, or ``prepare_for_comparison``
    output) and, when the cache supplied them, both signature indexes.
    ``options`` are the ones ``pair`` was built with, as the caller gave
    them: ``None`` keeps the ground and partial algorithms' own default.

    With ``collect=True`` the comparison runs under a fresh per-pair
    :class:`~repro.obs.MetricsRegistry` and its snapshot is attached to
    ``result.stats["metrics"]``.  This is how metrics cross the worker
    pipe: the snapshot rides the result through the existing connection
    protocol and the parent merges it.  ``compare_many`` uses the same
    path for serial (``jobs=1``) runs, so serial and parallel batches
    aggregate identically — the differential property CI gates on.
    """
    with collect_metrics() if collect else nullcontext() as registry:
        result = run_algorithm(
            pair.left, pair.right, spec, options, deadline=deadline, pair=pair
        )
    if registry is not None:
        result.stats["metrics"] = registry.snapshot().as_dict()
    return result


def compare_many(
    pairs: Iterable[tuple[Instance, Instance]],
    algorithm: Algorithm | AlgorithmOptions | None = None,
    options: MatchOptions | None = None,
    *,
    jobs: int = 1,
    cache: SignatureCache | None = None,
    deadline: float | None = None,
    limits: WorkerLimits | None = None,
    retry: RetryPolicy | None = None,
    fault_plan: FaultPlan | None = None,
    fault_pairs: Sequence[int] | None = None,
    out: Callable[[str], None] | None = None,
) -> list[ComparisonResult]:
    """Compare every ``(left, right)`` pair; results in input order.

    Parameters
    ----------
    pairs:
        The comparisons to run.  Instances are fingerprinted by content, so
        repeating an instance across pairs (the common grid shape) prepares
        and indexes it only once.
    algorithm:
        Anything :func:`repro.compare` accepts: an :class:`Algorithm`
        member, a typed options instance, or ``None`` (signature
        defaults).
    options:
        Match constraints and λ, shared by every pair.
    jobs:
        ``1`` runs every pair in-process (the serial baseline — no worker
        overhead); ``N > 1`` fans pairs over at most ``N`` fork workers.
    cache:
        A :class:`SignatureCache` to (re)use across calls; one is created
        per call when omitted.  Its running stats are attached to every
        result under ``stats["cache"]``.
    deadline:
        Per-pair cooperative deadline in seconds (signature/exact/anytime).
    limits:
        Hard per-worker caps (memory / wall clock / recursion) — applied
        only when ``jobs > 1`` or a ``fault_plan`` forces the worker path.
    retry / fault_plan / fault_pairs:
        Worker-path fault tolerance: ``retry`` is the backoff schedule
        (default :class:`RetryPolicy`), ``fault_plan`` a deterministic
        fault-injection plan, ``fault_pairs`` the pair indexes the plan
        applies to (all pairs when ``None``).  A pair whose retries
        exhaust degrades to the signature floor with the failure outcome
        and attempt log in its result — other pairs are unaffected.
    out:
        Optional sink for human-readable retry/progress lines.

    Examples
    --------
    >>> import repro
    >>> a = repro.Instance.from_rows("R", ("A",), [("x",)])
    >>> b = repro.Instance.from_rows("R", ("A",), [("x",)])
    >>> [result] = repro.compare_many([(a, b)], repro.Algorithm.EXACT)
    >>> result.similarity
    1.0
    """
    pair_list = list(pairs)
    spec = resolve_algorithm(algorithm)
    cache = cache if cache is not None else SignatureCache()
    use_workers = jobs > 1 or fault_plan is not None or limits is not None
    # When the parent has metrics enabled, per-pair counters are collected
    # in a scoped registry inside compare_pair_job and shipped back as a
    # snapshot on result.stats["metrics"] — the identical code path in
    # serial and worker mode, which is what makes jobs=1 and jobs=N
    # aggregate to byte-identical counter totals.
    parent_registry = active_metrics()
    collecting = parent_registry is not None

    with span(
        "parallel.compare_many",
        pairs=len(pair_list),
        jobs=jobs,
        algorithm=spec.algorithm.value,
    ) as batch_span:
        prepared = [
            PreparedPair.from_sides(
                cache.get(left, "left"), cache.get(right, "right"), options
            )
            for left, right in pair_list
        ]

        results: list[ComparisonResult] = []
        if not use_workers:
            for pair in prepared:
                results.append(
                    compare_pair_job(
                        pair, spec, options, deadline, collect=collecting
                    )
                )
        else:
            fault_set = (
                None if fault_pairs is None else {int(i) for i in fault_pairs}
            )
            tasks = []
            for i, pair in enumerate(prepared):
                plan = fault_plan
                if (
                    plan is not None
                    and fault_set is not None
                    and i not in fault_set
                ):
                    plan = None
                tasks.append(
                    PoolTask(
                        index=i,
                        args=(pair, spec, options),
                        kwargs={"deadline": deadline, "collect": collecting},
                        plan=plan,
                    )
                )
            pool = WorkerPool(
                jobs=jobs,
                limits=limits,
                retry=retry,
                validate=lambda value: isinstance(value, ComparisonResult),
                out=out,
            )
            started = time.perf_counter()
            outcomes = pool.run(compare_pair_job, tasks)
            elapsed = time.perf_counter() - started
            if out is not None:
                out(
                    f"compared {len(tasks)} pairs with jobs={jobs} "
                    f"in {elapsed:.2f}s"
                )
            for outcome, pair in zip(outcomes, prepared):
                fault_log = [record.as_dict() for record in outcome.records]
                if outcome.status == "ok":
                    result = outcome.payload
                    if len(outcome.records) > 1:
                        result.stats["fault_log"] = fault_log
                else:
                    # Workers kept dying: the in-parent signature floor.
                    result = degraded_floor(
                        pair,
                        spec.algorithm.value,
                        STATUS_OUTCOMES.get(outcome.status, Outcome.CRASHED),
                        fault_log,
                    )
                results.append(result)

        if collecting:
            # Fold per-pair snapshots into the parent registry — shipped
            # over the worker pipe in parallel mode, attached in-process in
            # serial mode; either way the merge is exact integer addition.
            for result in results:
                shipped = result.stats.get("metrics")
                if shipped is not None:
                    parent_registry.merge_snapshot(
                        MetricsSnapshot.from_dict(shipped)
                    )
            parent_registry.counter("parallel.batch.runs")
            parent_registry.counter("parallel.batch.pairs", len(pair_list))

        cache_stats = cache.stats()
        for result in results:
            result.stats["cache"] = dict(cache_stats)
        batch_span.set(
            degraded=sum(
                1 for r in results if "degraded_from" in r.stats
            ),
        )
    return results


__all__ = ["compare_many", "compare_pair_job"]
