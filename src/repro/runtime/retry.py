"""Retry with exponential backoff and a per-failure-class decision table.

When a job dies in a worker (:mod:`repro.runtime.isolation`), three things
can reasonably happen, and which one is correct depends on *how* it died:

=============  ==========================================  ==============
failure class  examples                                    policy
=============  ==========================================  ==============
``transient``  worker crash, garbage result, ``OSError``   retry with
               flaky infrastructure                        backoff, then
                                                           degrade
``resource``   memory-cap ``MemoryError``, recursion       retry with
               blowup, wall-clock kill                     backoff, then
                                                           degrade
``fatal``      any :class:`~repro.core.errors.ReproError`  fail fast —
               (bad input, schema mismatch)                retrying cannot
                                                           help
``interrupt``  ``KeyboardInterrupt``, ``SystemExit``,      re-raise
               cooperative cancellation                    immediately
=============  ==========================================  ==============

Resource deaths are retried (bounded) before degrading because in a shared
serving environment they are frequently co-tenancy artifacts, not intrinsic
to the input; the bound keeps a genuinely-too-big input from looping.
Degrading means returning the caller-supplied ``degrade()`` fallback — for
comparisons, the signature-tier score, realizing the paper's approximate
floor as the answer of last resort.

Backoff is exponential with multiplicative seeded jitter, so retry storms
decorrelate across workers while individual schedules stay replayable.
:class:`Executor` bundles the whole stack — isolation on/off, limits,
retry policy, optional fault plan — behind one ``run()`` call and keeps a
structured per-attempt log.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

from ..core.errors import ReproError
from .cancellation import OperationCancelled
from .faults import GARBAGE_RESULT, FaultPlan
from .isolation import (
    STATUS_OUTCOMES,
    WorkerFailure,
    WorkerLimits,
    run_guarded,
    run_isolated,
)
from .outcome import Outcome


class FailureClass(str, Enum):
    """How a failure should be treated by the decision table."""

    TRANSIENT = "transient"
    RESOURCE = "resource"
    FATAL = "fatal"
    INTERRUPT = "interrupt"


_STATUS_CLASSES = {
    "oom": FailureClass.RESOURCE,
    "killed": FailureClass.RESOURCE,
    "crashed": FailureClass.TRANSIENT,
    "garbage": FailureClass.TRANSIENT,
}


def classify_failure(error: BaseException) -> FailureClass:
    """Classify a raised exception for the decision table.

    Examples
    --------
    >>> classify_failure(MemoryError())
    <FailureClass.RESOURCE: 'resource'>
    >>> from repro.core.errors import SchemaError
    >>> classify_failure(SchemaError("bad"))
    <FailureClass.FATAL: 'fatal'>
    >>> classify_failure(KeyboardInterrupt())
    <FailureClass.INTERRUPT: 'interrupt'>
    """
    if isinstance(error, (KeyboardInterrupt, SystemExit, OperationCancelled)):
        return FailureClass.INTERRUPT
    if isinstance(error, (MemoryError, RecursionError, TimeoutError)):
        return FailureClass.RESOURCE
    if isinstance(error, ReproError):
        return FailureClass.FATAL
    return FailureClass.TRANSIENT


@dataclass(frozen=True)
class Decision:
    """What to do with one failure class."""

    retry: bool
    on_exhausted: str  # "degrade" | "fail"


DEFAULT_DECISIONS: dict[FailureClass, Decision] = {
    FailureClass.TRANSIENT: Decision(retry=True, on_exhausted="degrade"),
    FailureClass.RESOURCE: Decision(retry=True, on_exhausted="degrade"),
    FailureClass.FATAL: Decision(retry=False, on_exhausted="fail"),
    FailureClass.INTERRUPT: Decision(retry=False, on_exhausted="fail"),
}
"""The decision table every executor and worker pool follows (fixed; see
the module docstring's rationale)."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with seeded jitter.

    ``delay(attempt)`` for attempts 1, 2, 3… is ``base_delay *
    multiplier**(attempt-1)``, capped at ``max_delay``, then scaled by a
    uniform jitter factor in ``[1-jitter, 1+jitter]`` drawn from a seeded
    RNG — decorrelated across workers (different seeds) yet replayable.

    Examples
    --------
    >>> policy = RetryPolicy(retries=2, base_delay=0.1, jitter=0.0)
    >>> policy.delay(1, random.Random(0)), policy.delay(2, random.Random(0))
    (0.1, 0.2)
    """

    retries: int = 0
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("backoff delays must be >= 0")
        if not 0 <= self.jitter < 1:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        raw = min(
            self.base_delay * self.multiplier ** (attempt - 1), self.max_delay
        )
        if self.jitter:
            raw *= rng.uniform(1 - self.jitter, 1 + self.jitter)
        return raw

    def delay_for(self, attempt: int, salt: object = None) -> float:
        """Decorrelated backoff: deterministic per ``(seed, salt, attempt)``.

        :meth:`delay` draws jitter from a caller-owned RNG, which makes the
        sequence depend on *draw order* — and synchronized clients sharing
        the default seed retry in lockstep, the thundering-herd pattern
        jitter exists to break.  This variant instead derives the jitter
        factor from a stable hash of ``(seed, salt, attempt)`` (stable
        across processes — not Python's randomized ``hash``), so:

        * two callers with different salts (task index, request id,
          worker slot) are decorrelated;
        * the same caller replays the identical schedule on every run;
        * completion order cannot change anyone's delay.

        The result stays within ``[raw * (1 - jitter), raw * (1 + jitter)]``
        of the un-jittered exponential ``raw``.
        """
        raw = min(
            self.base_delay * self.multiplier ** (attempt - 1), self.max_delay
        )
        if not self.jitter:
            return raw
        digest = hashlib.blake2b(
            f"{self.seed}|{salt}|{attempt}".encode(), digest_size=8
        ).digest()
        rng = random.Random(int.from_bytes(digest, "big"))
        return raw * rng.uniform(1 - self.jitter, 1 + self.jitter)


@dataclass
class AttemptRecord:
    """One line of the executor's structured log."""

    attempt: int
    status: str  # "ok" | "oom" | "killed" | "crashed" | "garbage"
    failure_class: str | None = None
    error: str | None = None
    backoff_seconds: float | None = None
    elapsed_seconds: float = 0.0

    def as_dict(self) -> dict:
        return {
            "attempt": self.attempt,
            "status": self.status,
            "failure_class": self.failure_class,
            "error": self.error,
            "backoff_seconds": self.backoff_seconds,
            "elapsed_seconds": self.elapsed_seconds,
        }


@dataclass
class ExecutionReport:
    """The result of :meth:`Executor.run`: value + provenance.

    ``outcome`` is ``COMPLETED`` when an attempt succeeded, otherwise the
    structured failure outcome of the *last* attempt (``oom`` / ``killed``
    / ``crashed``).  ``degraded`` is true when ``value`` came from the
    caller's fallback rather than the job.
    """

    outcome: Outcome
    value: Any
    attempts: list[AttemptRecord] = field(default_factory=list)
    degraded: bool = False
    error: str | None = None

    @property
    def completed(self) -> bool:
        return self.outcome.is_complete

    def log_dicts(self) -> list[dict]:
        """The attempt log as JSON-ready dictionaries."""
        return [record.as_dict() for record in self.attempts]


class Executor:
    """Fault-tolerant job runner: isolation + retry/backoff + degradation.

    Parameters
    ----------
    isolate:
        Run jobs in worker subprocesses (hard memory cap and wall kill).
        When false, jobs run in-process with soft guards only.
    limits:
        Resource caps applied to every job.
    retry:
        Backoff schedule and retry count.
    fault_plan:
        Optional :class:`~repro.runtime.faults.FaultPlan` installed around
        every attempt (deterministic fault injection; the plan's
        ``attempt`` field is set to the 1-based attempt number so specs can
        target "first attempt only").
    sleep:
        Injectable sleep (tests pass a recorder to avoid real waiting).
    out:
        Optional sink for human-readable retry/degradation log lines.

    Examples
    --------
    >>> executor = Executor(retry=RetryPolicy(retries=1, base_delay=0.0))
    >>> report = executor.run(lambda: 42)
    >>> report.value, report.outcome.value, report.degraded
    (42, 'completed', False)
    """

    def __init__(
        self,
        isolate: bool = False,
        limits: WorkerLimits | None = None,
        retry: RetryPolicy | None = None,
        fault_plan: FaultPlan | None = None,
        sleep: Callable[[float], None] = time.sleep,
        out: Callable[[str], None] | None = None,
    ) -> None:
        self.isolate = isolate
        self.limits = limits or WorkerLimits()
        self.retry = retry or RetryPolicy()
        self.fault_plan = fault_plan
        self.sleep = sleep
        self.out = out or (lambda _line: None)

    def run(
        self,
        job: str | Callable,
        *args: Any,
        degrade: Callable[[], Any] | None = None,
        validate: Callable[[Any], bool] | None = None,
        label: str = "job",
        **kwargs: Any,
    ) -> ExecutionReport:
        """Run ``job`` under the full policy; return an :class:`ExecutionReport`.

        ``degrade`` supplies the fallback value once retries are exhausted
        on a degradable failure; without it the failure raises
        :class:`~repro.runtime.isolation.WorkerFailure`.  ``validate``
        (when given) must return truthy for a result to count as success —
        a falsy validation is treated as a transient ``garbage`` failure,
        which also catches injected garbage results.
        """
        attempts: list[AttemptRecord] = []
        total_attempts = 1 + self.retry.retries
        last_status = "crashed"
        last_detail = "no attempt ran"

        for attempt in range(1, total_attempts + 1):
            if self.fault_plan is not None:
                self.fault_plan.attempt = attempt
            started = time.perf_counter()
            runner = run_isolated if self.isolate else run_guarded
            status, payload = runner(
                job, args=args, kwargs=kwargs,
                limits=self.limits, plan=self.fault_plan,
            )
            elapsed = time.perf_counter() - started

            if status == "interrupt":
                raise KeyboardInterrupt(
                    f"{label} interrupted in worker ({payload})"
                )
            if status == "fatal":
                attempts.append(AttemptRecord(
                    attempt, "fatal", FailureClass.FATAL.value,
                    f"{type(payload).__name__}: {payload}",
                    elapsed_seconds=elapsed,
                ))
                self._log_attempts(label, attempts[-1:])
                raise payload
            if status == "ok":
                garbage = payload is GARBAGE_RESULT or (
                    validate is not None and not validate(payload)
                )
                if not garbage:
                    attempts.append(AttemptRecord(
                        attempt, "ok", elapsed_seconds=elapsed
                    ))
                    return ExecutionReport(
                        Outcome.COMPLETED, payload, attempts
                    )
                status, payload = "garbage", "result failed validation"

            failure_class = _STATUS_CLASSES[status]
            decision = DEFAULT_DECISIONS[failure_class]
            record = AttemptRecord(
                attempt, status, failure_class.value, str(payload),
                elapsed_seconds=elapsed,
            )
            attempts.append(record)
            last_status, last_detail = status, str(payload)

            if decision.retry and attempt < total_attempts:
                record.backoff_seconds = self.retry.delay_for(
                    attempt, salt=label
                )
                self.out(
                    f"[{label}] attempt {attempt}/{total_attempts} "
                    f"{status} ({payload}); backing off "
                    f"{record.backoff_seconds:.3f}s"
                )
                self.sleep(record.backoff_seconds)
                continue
            break

        outcome = STATUS_OUTCOMES.get(last_status, Outcome.CRASHED)
        decision = DEFAULT_DECISIONS[_STATUS_CLASSES[last_status]]
        if decision.on_exhausted == "degrade" and degrade is not None:
            self.out(
                f"[{label}] {last_status} after {len(attempts)} attempt(s); "
                f"degrading to fallback"
            )
            return ExecutionReport(
                outcome, degrade(), attempts, degraded=True,
                error=last_detail,
            )
        raise WorkerFailure(outcome, f"{label}: {last_detail}")

    def _log_attempts(self, label: str, records: list[AttemptRecord]) -> None:
        for record in records:
            self.out(
                f"[{label}] attempt {record.attempt} {record.status}: "
                f"{record.error}"
            )
