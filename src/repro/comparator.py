"""The :class:`Comparator` session object — the library's main entry point.

A :class:`Comparator` fixes the algorithm, match options, and execution
policy **once**, and keeps a content-addressed
:class:`~repro.parallel.SignatureCache` alive across calls, so comparing
one base instance against hundreds of variants (the paper's experiment
shape) prepares and indexes each distinct instance a single time.  All
comparison shapes hang off the one object:

    comparator = repro.Comparator(
        algorithm=repro.ExactOptions(node_budget=50_000),
        options=repro.MatchOptions.paper_default(),
        jobs=4,
    )
    results = comparator.compare_many(pairs)   # batch, cached, parallel
    one = comparator.compare(left, right)      # one pair, cached
    raw = comparator.compare_one(left, right)  # one pair, full knobs
    best = comparator.compare_anytime(left, right, deadline=2.0)

The module-level helpers :func:`repro.compare`,
:func:`repro.compare_many`, and :func:`repro.compare_anytime` are thin
wrappers that build a throwaway ``Comparator`` per call — convenient for
scripts, but sessions that compare more than once should hold a
``Comparator`` to keep its cache warm.
"""

from __future__ import annotations

import weakref
from typing import Callable, Iterable, Sequence

from .algorithms.dispatch import run_algorithm
from .algorithms.options import (
    Algorithm,
    AlgorithmOptions,
    AnytimeOptions,
    resolve_algorithm,
)
from .algorithms.result import ComparisonResult
from .core.instance import Instance, prepare_for_comparison
from .mappings.constraints import MatchOptions
from .parallel.cache import SignatureCache
from .parallel.engine import compare_many
from .runtime.budget import CancellationToken
from .runtime.faults import FaultPlan
from .runtime.isolation import WorkerLimits
from .runtime.retry import Executor, RetryPolicy


class Comparator:
    """A configured comparison session with a shared signature cache.

    Parameters
    ----------
    algorithm:
        An :class:`~repro.Algorithm` member, a typed options instance
        (e.g. :class:`~repro.ExactOptions`), or ``None`` for signature
        defaults.
    options:
        Match constraints and λ applied to every comparison.
    jobs:
        Worker fan-out for :meth:`compare_many` (``1`` = in-process
        serial); :meth:`compare` always runs in-process.
    cache:
        A cache to share with other sessions; a private
        :class:`SignatureCache` is created when omitted.
    deadline:
        Per-pair cooperative deadline in seconds.
    limits / retry / fault_plan:
        Worker-path execution policy, as in
        :func:`repro.parallel.compare_many`.
    out:
        Optional sink for retry/progress lines.

    Examples
    --------
    >>> import repro
    >>> comparator = repro.Comparator(algorithm=repro.Algorithm.EXACT)
    >>> a = repro.Instance.from_rows("R", ("A",), [("x",)])
    >>> b = repro.Instance.from_rows("R", ("A",), [("y",)])
    >>> comparator.compare(a, b).similarity
    0.0
    >>> comparator.cache.misses
    2
    """

    def __init__(
        self,
        algorithm: Algorithm | AlgorithmOptions | None = None,
        options: MatchOptions | None = None,
        *,
        jobs: int = 1,
        cache: SignatureCache | None = None,
        deadline: float | None = None,
        limits: WorkerLimits | None = None,
        retry: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        out: Callable[[str], None] | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.spec = resolve_algorithm(algorithm)
        self.options = options
        self.jobs = jobs
        self.cache = cache if cache is not None else SignatureCache()
        self.deadline = deadline
        self.limits = limits
        self.retry = retry
        self.fault_plan = fault_plan
        self.out = out
        # Live delta sessions keyed by id() of their latest result; the
        # weakref lets a session die with the result chain it serves.
        self._delta_sessions: dict[
            int, tuple["weakref.ref[ComparisonResult]", object]
        ] = {}

    def compare(self, left: Instance, right: Instance) -> ComparisonResult:
        """Compare one pair in-process, through the session cache."""
        [result] = self.compare_many([(left, right)], jobs=1)
        return result

    def compare_one(
        self,
        left: Instance,
        right: Instance,
        *,
        options: MatchOptions | None = None,
        prepare: bool = True,
        align_schemas: bool = False,
        deadline: float | None = None,
        token: CancellationToken | None = None,
        executor: Executor | None = None,
        control=None,
    ) -> ComparisonResult:
        """One comparison with every per-call knob exposed (no cache).

        This is the session form of :func:`repro.compare`: the algorithm
        comes from the session, everything else can be overridden per
        call.  Unlike :meth:`compare` it does **not** go through the
        signature cache — use it when you need ``prepare=False`` (the
        match must reference your exact tuple objects), schema alignment,
        cancellation, or a fault-tolerant executor for a single pair.

        Parameters mirror :func:`repro.compare`; ``options`` and
        ``deadline`` default to the session's settings.
        """
        if align_schemas:
            from .versioning.operations import align_schemas as _align

            left, right = _align(left, right)
        if prepare:
            left, right = prepare_for_comparison(left, right)
        return run_algorithm(
            left,
            right,
            self.spec,
            self.options if options is None else options,
            control=control,
            deadline=self.deadline if deadline is None else deadline,
            token=token,
            executor=executor,
        )

    def compare_anytime(
        self,
        left: Instance,
        right: Instance,
        *,
        deadline: float | None = None,
        options: MatchOptions | None = None,
        token: CancellationToken | None = None,
        prepare: bool = True,
        executor: Executor | None = None,
    ) -> ComparisonResult:
        """Best similarity obtainable within ``deadline`` seconds.

        Runs the anytime ladder (signature → refine → assignment → exact)
        regardless of the session algorithm.  When the session was
        configured with :class:`~repro.AnytimeOptions`, its knobs (node
        budget, check interval) shape the ladder, so the result equals
        :meth:`compare_one`'s.  ``deadline`` defaults to the session
        deadline.
        """
        spec = (
            self.spec
            if isinstance(self.spec, AnytimeOptions)
            else AnytimeOptions()
        )
        if prepare:
            left, right = prepare_for_comparison(left, right)
        return run_algorithm(
            left,
            right,
            spec,
            self.options if options is None else options,
            deadline=self.deadline if deadline is None else deadline,
            token=token,
            executor=executor,
        )

    def compare_many(
        self,
        pairs: Iterable[tuple[Instance, Instance]],
        *,
        jobs: int | None = None,
        fault_pairs: Sequence[int] | None = None,
    ) -> list[ComparisonResult]:
        """Compare every pair with the session configuration; input order.

        ``jobs`` overrides the session fan-out for this batch.
        """
        return compare_many(
            pairs,
            self.spec,
            self.options,
            jobs=self.jobs if jobs is None else jobs,
            cache=self.cache,
            deadline=self.deadline,
            limits=self.limits,
            retry=self.retry,
            fault_plan=self.fault_plan,
            fault_pairs=fault_pairs,
            out=self.out,
        )

    # -- delta-aware comparison ------------------------------------------

    def delta_session(
        self,
        left: Instance,
        right: Instance,
        *,
        options: MatchOptions | None = None,
        align_preference: bool = True,
        params=None,
        fallback_fraction: float | None = None,
    ):
        """Open a warm :class:`~repro.delta.DeltaSession` for this pair.

        The instances are used **as-is** (no preparation): delta batches
        reference the caller's tuple ids, so the ids must stay stable.
        The instances must already be comparable (disjoint tuple ids and
        null labels) — prepare them once with
        :func:`repro.core.instance.prepare_for_comparison` if needed and
        keep expressing batches against the prepared right instance.

        The session's initial result is registered with this comparator,
        so ``compare_delta(session.last_result, batch)`` continues it.
        """
        from .delta.engine import DEFAULT_FALLBACK_FRACTION, DeltaSession

        session = DeltaSession(
            left,
            right,
            self.options if options is None else options,
            align_preference=align_preference,
            params=params,
            fallback_fraction=(
                DEFAULT_FALLBACK_FRACTION
                if fallback_fraction is None
                else fallback_fraction
            ),
        )
        self._register_delta(session.last_result, session)
        return session

    def compare_delta(self, prev_result: ComparisonResult, batch):
        """Re-compare after a :class:`~repro.delta.DeltaBatch` warm.

        ``batch`` mutates the *right* instance of ``prev_result``'s match
        (ops reference that instance's tuple ids).  When ``prev_result``
        came from this comparator's delta machinery the live session is
        reused; otherwise the match is replayed into a fresh session
        first (no greedy re-run either way).

        Returns a result with ``algorithm == "signature-delta"`` whose
        ``stats["staleness_bound"]`` certifies how far the warm answer
        can trail a cold re-comparison; ``stats["certified_exact"]``
        flags a zero bound.
        """
        from .delta.engine import DeltaSession

        session = self._live_delta_session(prev_result)
        if session is None:
            session = DeltaSession.from_result(prev_result)
        result = session.advance(batch)
        self._register_delta(result, session)
        return result

    def _register_delta(self, result: ComparisonResult, session) -> None:
        self._purge_delta_sessions()
        self._delta_sessions[id(result)] = (weakref.ref(result), session)

    def _live_delta_session(self, result: ComparisonResult):
        entry = self._delta_sessions.get(id(result))
        if entry is None:
            return None
        ref, session = entry
        if ref() is not result or session.last_result is not result:
            # id() reuse after GC, or the session moved past this result.
            del self._delta_sessions[id(result)]
            return None
        return session

    def _purge_delta_sessions(self) -> None:
        dead = [key for key, (ref, _) in self._delta_sessions.items()
                if ref() is None]
        for key in dead:
            del self._delta_sessions[key]

    def cache_stats(self) -> dict:
        """The session cache's counters (entries/hits/misses/hit_rate)."""
        return self.cache.stats()

    def __repr__(self) -> str:
        return (
            f"Comparator(algorithm={self.spec.algorithm.value!r}, "
            f"jobs={self.jobs}, cache={self.cache.stats()})"
        )


__all__ = ["Comparator"]
