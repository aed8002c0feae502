"""The anytime comparison ladder: signature → refine → assignment → exact.

The exact comparison algorithm is NP-hard (Theorem 5.11), so any caller
with a latency requirement faces the choice the paper resolves with an
8-hour timeout and starred table entries.  :func:`compare_anytime`
systematizes that: it always produces *some* valid score, spends whatever
budget remains improving it, and reports which rung of the ladder the
returned score came from and whether it is exact or a lower bound.

Rungs, cheapest first:

1. **signature** — the scalable greedy algorithm; near-instant, provides
   the floor.  Runs even under a 0-second deadline (it still honors the
   cancellation token).
2. **refine** — hill-climbing over the signature match; never lowers the
   score, stops at the shared deadline.  Moves that provably cannot win
   (conflicting adds, drops whose bounded gain cannot repay their loss)
   are settled without a full re-score.
3. **assignment** — globally-optimal 1:1 completion over the candidate
   matrix (polynomial); never lowers the score, degrades back to the
   floor under the shared budget.
4. **exact** — the optimal search with the remaining wall clock (and a
   node cap); if it completes, the returned score is provably optimal.

Every rung's result is a complete, scoreable instance match, so whichever
rung the budget cuts, the caller holds a usable explanation — the anytime
property.
"""

from __future__ import annotations

import time

from ..core.instance import Instance, prepare_for_comparison
from ..mappings.constraints import MatchOptions
from ..obs.metrics import active_metrics
from ..obs.trace import span
from .budget import DEFAULT_CHECK_INTERVAL, Budget
from .cancellation import CancellationToken
from .outcome import Outcome

#: Default node cap for the exact rung (matches ``exact_compare``'s default).
DEFAULT_ANYTIME_NODE_BUDGET = 2_000_000


def compare_anytime(
    left: Instance,
    right: Instance,
    deadline: float | None = None,
    options: MatchOptions | None = None,
    token: CancellationToken | None = None,
    prepare: bool = True,
    node_budget: int = DEFAULT_ANYTIME_NODE_BUDGET,
    check_interval: int = DEFAULT_CHECK_INTERVAL,
    executor=None,
):
    """Best similarity obtainable within ``deadline`` seconds.

    Parameters
    ----------
    left, right:
        The instances to compare (prepared automatically unless
        ``prepare=False``).
    deadline:
        Wall-clock allowance in seconds for the whole ladder; ``None``
        runs every rung to completion.  ``deadline=0`` returns the
        signature floor immediately.
    options:
        Match constraints and λ; defaults to :meth:`MatchOptions.general`.
    token:
        Cooperative cancellation; trips every rung within one check
        interval.
    node_budget:
        Node cap for the exact rung (composes with the deadline).
    check_interval:
        How many search steps between deadline/cancellation checks.
    executor:
        Optional :class:`~repro.runtime.retry.Executor`.  When given, the
        exact rung runs under its fault-tolerance policy — optionally in a
        memory-capped worker subprocess, with retry/backoff — and a rung
        that dies hard (``oom`` / ``killed`` / ``crashed``) *degrades*: the
        signature/refine floor stands, the result's outcome reports the
        death, and ``stats["fault_log"]`` carries the structured attempt
        log.  Each retry attempt gets a fresh child budget, so a partly
        spent node cap never leaks across attempts.

    Returns
    -------
    ComparisonResult
        ``result.similarity`` is the best score found (≥ the signature
        floor).  ``result.outcome`` says whether the ladder completed;
        ``result.stats["anytime_rung"]`` names the rung that produced the
        score and ``result.stats["anytime_score_is_exact"]`` is ``True``
        exactly when the exact rung finished, i.e. the score is provably
        optimal rather than a lower bound.

    Examples
    --------
    >>> from repro.core.instance import Instance
    >>> I = Instance.from_rows("R", ("A",), [("x",)], id_prefix="l")
    >>> J = Instance.from_rows("R", ("A",), [("x",)], id_prefix="r")
    >>> result = compare_anytime(I, J, deadline=5.0)
    >>> result.similarity
    1.0
    >>> result.stats["anytime_score_is_exact"]
    True
    """
    # Imported here, not at module top: algorithms/ itself imports the
    # runtime primitives, and a top-level import would be circular.
    from ..algorithms.assignment import assignment_compare
    from ..algorithms.exact import exact_compare
    from ..algorithms.refine import refine_match
    from ..algorithms.result import ComparisonResult
    from ..algorithms.signature import signature_compare

    if options is None:
        options = MatchOptions.general()
    if prepare:
        left, right = prepare_for_comparison(left, right)
    started = time.perf_counter()
    control = Budget(
        deadline=deadline, token=token, check_interval=check_interval
    ).start()

    with span("anytime.ladder", deadline=deadline) as ladder_span:
        # Rung 1 — signature floor.  Deliberately *not* under the deadline
        # (it must run even with deadline=0 so there is always a result),
        # but under the token so cancellation still stops it.
        floor_control = Budget(token=token, check_interval=check_interval)
        best = signature_compare(
            left, right, options=options, control=floor_control
        )
        best_rung = "signature"
        rungs_run = ["signature"]
        score_is_exact = False

        # Rung 2 — refinement under the shared budget.
        if control.check():
            rungs_run.append("refine")
            refined = refine_match(best, control=control)
            if refined.similarity > best.similarity:
                best, best_rung = refined, "refine"

        # Rung 3 — globally-optimal assignment completion.  Seeded with
        # the current best so the greedy floor is not recomputed; under a
        # tripped budget it returns the seed unchanged (degrade-to-greedy),
        # so the ladder's floor guarantee is preserved.
        if control.check():
            rungs_run.append("assignment")
            assigned = assignment_compare(
                left,
                right,
                options=options,
                control=control,
                seed_result=best,
            )
            if assigned.similarity > best.similarity:
                best, best_rung = assigned, "assignment"

        # Rung 4 — exact search with the remaining wall clock and a node cap.
        exact_outcome: Outcome | None = None
        fault_log: list[dict] | None = None
        if control.check():
            rungs_run.append("exact")

            def attempt_exact() -> "ComparisonResult":
                # Fresh child budget per attempt: a retried attempt must not
                # inherit the nodes its dead predecessor already spent.
                return exact_compare(
                    left,
                    right,
                    options=options,
                    control=control.child(node_limit=node_budget),
                )

            if executor is not None:
                report = executor.run(
                    attempt_exact, degrade=lambda: None, label="exact-rung"
                )
                fault_log = report.log_dicts()
                exact = report.value
                if report.degraded or exact is None:
                    # The exact rung died hard; the signature/refine floor
                    # stands and the death is the ladder's outcome.
                    exact_outcome = report.outcome
                    exact = None
            else:
                exact = attempt_exact()
            if exact is not None:
                exact_outcome = exact.outcome
                if exact.outcome.is_complete:
                    # Completed exact search dominates: its score is the
                    # optimum.
                    best, best_rung, score_is_exact = exact, "exact", True
                elif exact.similarity > best.similarity:
                    best, best_rung = exact, "exact"

        if exact_outcome is not None:
            overall = exact_outcome
        else:
            control.check()  # classify why the ladder stopped early
            overall = control.outcome
        ladder_span.set(
            rung=best_rung,
            rungs_run=",".join(rungs_run),
            score_is_exact=score_is_exact,
        )
        ladder_span.set_status(overall.value)

    registry = active_metrics()
    if registry is not None:
        registry.counter("anytime.ladders")
        registry.counter("anytime.rung", 1, rung=best_rung)
        registry.counter("anytime.outcome", 1, outcome=overall.value)

    stats = {
        **best.stats,
        "anytime_rung": best_rung,
        "anytime_rungs_run": ",".join(rungs_run),
        "anytime_score_is_exact": score_is_exact,
        "outcome": overall.value,
    }
    if fault_log is not None:
        stats["fault_log"] = fault_log
        stats["anytime_degraded"] = overall.value in (
            "oom", "killed", "crashed"
        )
    return ComparisonResult(
        similarity=best.similarity,
        match=best.match,
        options=options,
        algorithm=f"anytime({best_rung})",
        outcome=overall,
        stats=stats,
        elapsed_seconds=time.perf_counter() - started,
    )
