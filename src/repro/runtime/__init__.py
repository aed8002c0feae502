"""Unified execution control for the exponential searches.

The comparison problem is NP-hard (Theorem 5.11), and so are the
homomorphism, isomorphism, and core computations the substrates rely on.
This package gives all of them one resource-control vocabulary:

* :class:`Budget` — node limit + wall-clock deadline + cancellation token,
  polled cheaply (amortized every ``check_interval`` nodes) inside every
  search loop;
* :class:`Outcome` — why a computation stopped (``COMPLETED`` /
  ``BUDGET_EXHAUSTED`` / ``DEADLINE_EXCEEDED`` / ``CANCELLED``, plus the
  hard-failure classes ``OOM`` / ``KILLED`` / ``CRASHED``), carried on
  :class:`~repro.algorithms.result.ComparisonResult` and the search objects
  so "proved optimal" is distinguishable from "gave up";
* :class:`CancellationToken` — cooperative external kill switch;
* :func:`compare_anytime` — the graceful-degradation ladder
  (signature → refine → assignment → exact) returning the best result the
  budget allows.

On top of the cooperative layer sits the **fault-tolerant execution
layer** (see ``docs/ROBUSTNESS.md``):

* :class:`Executor` / :class:`RetryPolicy` — retry with exponential
  backoff + jitter and a per-failure-class decision table (retry
  transient, degrade on resource death, fail fast on
  :class:`~repro.core.errors.ReproError`);
* :func:`run_isolated` / :class:`WorkerLimits` — worker-subprocess
  execution under hard ``setrlimit`` memory caps, a recursion guard, and a
  wall-clock kill; deaths come back as structured outcomes, never as a
  dead caller;
* :class:`FaultPlan` — deterministic, replayable fault injection
  (``MemoryError`` / ``TimeoutError`` / crash / garbage at the Nth budget
  checkpoint, chase step, or IO row) so every degradation path is
  exercised by tests rather than trusted.

See ``docs/RUNTIME.md`` for the budget design.
"""

from .budget import DEFAULT_CHECK_INTERVAL, Budget, resolve_control
from .cancellation import CancellationToken, OperationCancelled
from .crashfs import (
    CRASH_MODES,
    CrashFS,
    PowerCut,
    RealIO,
    count_io_steps,
)
from .faults import (
    FAULT_KINDS,
    FAULT_SITES,
    GARBAGE_RESULT,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    InjectedFault,
    fault_checkpoint,
)
from .isolation import (
    JOB_REGISTRY,
    STATUS_OUTCOMES,
    WorkerFailure,
    WorkerHandle,
    WorkerLimits,
    reap_worker,
    register_job,
    resolve_job,
    run_guarded,
    run_isolated,
    start_worker,
)
from .outcome import Outcome
from .retry import (
    DEFAULT_DECISIONS,
    AttemptRecord,
    Decision,
    ExecutionReport,
    Executor,
    FailureClass,
    RetryPolicy,
    classify_failure,
)
from .anytime import DEFAULT_ANYTIME_NODE_BUDGET, compare_anytime

__all__ = [
    "AttemptRecord",
    "Budget",
    "CRASH_MODES",
    "CancellationToken",
    "CrashFS",
    "DEFAULT_ANYTIME_NODE_BUDGET",
    "DEFAULT_CHECK_INTERVAL",
    "DEFAULT_DECISIONS",
    "Decision",
    "ExecutionReport",
    "Executor",
    "FAULT_KINDS",
    "FAULT_SITES",
    "FailureClass",
    "FaultPlan",
    "FaultSpec",
    "GARBAGE_RESULT",
    "InjectedCrash",
    "InjectedFault",
    "JOB_REGISTRY",
    "OperationCancelled",
    "Outcome",
    "PowerCut",
    "RealIO",
    "RetryPolicy",
    "STATUS_OUTCOMES",
    "WorkerFailure",
    "WorkerHandle",
    "WorkerLimits",
    "classify_failure",
    "compare_anytime",
    "count_io_steps",
    "fault_checkpoint",
    "reap_worker",
    "register_job",
    "resolve_control",
    "resolve_job",
    "run_guarded",
    "run_isolated",
    "start_worker",
]
