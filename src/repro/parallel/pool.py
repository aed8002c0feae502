"""A fork-worker pool scheduler for the batch-comparison engine.

``multiprocessing.Pool`` and ``concurrent.futures`` bring their own worker
lifecycle, which would bypass everything PR 2 built: per-task memory caps,
wall kills, exit-code classification, deterministic fault injection, and
the retry decision table.  This pool instead schedules **one fork worker
per task attempt** through the primitives of
:mod:`repro.runtime.isolation` (:func:`start_worker` / :func:`reap_worker`)
so every attempt gets exactly the semantics of ``run_isolated`` — and
every death comes back as a classified ``(status, payload)`` pair, never
as a dead batch.

The scheduler is single-threaded: it multiplexes worker pipes with
``multiprocessing.connection.wait`` (a worker's report *and* its death
both make the pipe readable), enforces per-worker wall deadlines, and
implements retry backoff by re-enqueueing failed tasks with a
``not_before`` timestamp instead of sleeping.  Forking from a thread-free
parent also sidesteps the classic fork-with-threads hazards.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from typing import Any, Callable

from ..obs.metrics import counter_inc
from ..runtime.faults import GARBAGE_RESULT, FaultPlan
from ..runtime.isolation import WorkerHandle, WorkerLimits, reap_worker, start_worker
from ..runtime.retry import (
    DEFAULT_DECISIONS,
    AttemptRecord,
    FailureClass,
    RetryPolicy,
    _STATUS_CLASSES,
)


@dataclass
class PoolTask:
    """One unit of work: a job invocation plus its retry bookkeeping."""

    index: int
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    plan: FaultPlan | None = None
    attempt: int = 0  # attempts started so far
    not_before: float = 0.0  # monotonic time before which not to launch
    records: list[AttemptRecord] = field(default_factory=list)
    started_at: float = 0.0


@dataclass
class TaskOutcome:
    """Final status of one task after all attempts."""

    index: int
    status: str  # "ok" | "oom" | "killed" | "crashed" | "garbage"
    payload: Any
    records: list[AttemptRecord]


class WorkerPool:
    """Run many job invocations over at most ``jobs`` concurrent workers.

    Parameters
    ----------
    jobs:
        Maximum concurrent worker subprocesses (>= 1).
    limits:
        Per-attempt resource caps (memory cap, wall timeout, recursion
        guard) — the same :class:`WorkerLimits` semantics as
        :func:`~repro.runtime.isolation.run_isolated`.
    retry:
        Backoff schedule; a task's attempt ``n`` failure re-enqueues it no
        earlier than ``delay(n)`` from now, without blocking other tasks.
    validate:
        Optional predicate on an ``ok`` payload; a falsy validation is
        treated as a transient ``garbage`` failure (this also catches the
        injected :data:`GARBAGE_RESULT`).
    out:
        Optional sink for human-readable retry log lines.
    """

    def __init__(
        self,
        jobs: int,
        limits: WorkerLimits | None = None,
        retry: RetryPolicy | None = None,
        validate: Callable[[Any], bool] | None = None,
        out: Callable[[str], None] | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.limits = limits or WorkerLimits()
        self.retry = retry or RetryPolicy()
        self.validate = validate
        self.out = out or (lambda _line: None)

    def run(self, job: str | Callable, tasks: list[PoolTask]) -> list[TaskOutcome]:
        """Run every task to a final status; returns outcomes in task order.

        ``fatal`` payloads (a :class:`~repro.core.errors.ReproError` raised
        by the job) and worker interrupts propagate as exceptions after all
        running workers have been terminated — a bad input fails the batch
        fast rather than burning the remaining grid.
        """
        pending: list[PoolTask] = sorted(tasks, key=lambda t: t.index)
        running: dict[Any, tuple[WorkerHandle, PoolTask]] = {}
        outcomes: dict[int, TaskOutcome] = {}
        total_attempts = 1 + self.retry.retries

        try:
            while pending or running:
                now = time.monotonic()
                # Launch ready tasks up to the concurrency cap.
                launchable = [
                    t for t in pending if t.not_before <= now
                ][: max(0, self.jobs - len(running))]
                for task in launchable:
                    pending.remove(task)
                    handle = self._launch(job, task)
                    running[handle.receiver] = (handle, task)
                if not running:
                    # Only delayed retries remain: sleep until the earliest.
                    wake = min(t.not_before for t in pending)
                    time.sleep(max(0.0, wake - time.monotonic()))
                    continue

                timeout = self._wait_timeout(pending, running)
                ready = connection_wait(list(running), timeout=timeout)

                finished: list[tuple[WorkerHandle, PoolTask, bool]] = []
                for receiver in ready:
                    handle, task = running.pop(receiver)
                    finished.append((handle, task, False))
                now = time.monotonic()
                for receiver in [
                    r
                    for r, (h, _) in running.items()
                    if h.deadline is not None and h.deadline <= now
                ]:
                    handle, task = running.pop(receiver)
                    finished.append((handle, task, True))

                for handle, task, timed_out in finished:
                    self._finish(
                        handle, task, timed_out, pending, outcomes,
                        total_attempts,
                    )
        except BaseException:
            self._terminate_all(running)
            raise
        return [outcomes[task.index] for task in sorted(tasks, key=lambda t: t.index)]

    # -- internals ----------------------------------------------------------

    def _launch(self, job: str | Callable, task: PoolTask) -> WorkerHandle:
        task.attempt += 1
        task.started_at = time.perf_counter()
        # Parent-side scheduling counter.  Everything under parallel.pool.*
        # exists only on the worker path, so the serial-vs-parallel
        # differential tests exclude this namespace.
        counter_inc("parallel.pool.attempts")
        if task.plan is not None:
            # Attempt pinning: the plan object is snapshotted into the
            # child at fork time, so setting the attribute here targets
            # exactly this attempt.
            task.plan.attempt = task.attempt
        return start_worker(
            job,
            args=task.args,
            kwargs=task.kwargs,
            limits=self.limits,
            plan=task.plan,
        )

    def _wait_timeout(
        self,
        pending: list[PoolTask],
        running: dict[Any, tuple[WorkerHandle, PoolTask]],
    ) -> float | None:
        """How long ``connection.wait`` may block without missing an event."""
        now = time.monotonic()
        bounds: list[float] = []
        for handle, _ in running.values():
            if handle.deadline is not None:
                bounds.append(max(0.0, handle.deadline - now))
        if pending and len(running) < self.jobs:
            wake = min(t.not_before for t in pending)
            bounds.append(max(0.0, wake - now))
        return min(bounds) if bounds else None

    def _finish(
        self,
        handle: WorkerHandle,
        task: PoolTask,
        timed_out: bool,
        pending: list[PoolTask],
        outcomes: dict[int, TaskOutcome],
        total_attempts: int,
    ) -> None:
        status, payload = reap_worker(handle, timed_out=timed_out)
        elapsed = time.perf_counter() - task.started_at

        if status == "interrupt":
            raise KeyboardInterrupt(
                f"task #{task.index} interrupted in worker ({payload})"
            )
        if status == "fatal":
            task.records.append(AttemptRecord(
                task.attempt, "fatal", FailureClass.FATAL.value,
                f"{type(payload).__name__}: {payload}",
                elapsed_seconds=elapsed,
            ))
            raise payload
        if status == "ok":
            garbage = payload is GARBAGE_RESULT or (
                self.validate is not None and not self.validate(payload)
            )
            if not garbage:
                task.records.append(AttemptRecord(
                    task.attempt, "ok", elapsed_seconds=elapsed
                ))
                outcomes[task.index] = TaskOutcome(
                    task.index, "ok", payload, task.records
                )
                counter_inc("parallel.pool.tasks", 1, status="ok")
                return
            status, payload = "garbage", "result failed validation"

        failure_class = _STATUS_CLASSES[status]
        decision = DEFAULT_DECISIONS[failure_class]
        record = AttemptRecord(
            task.attempt, status, failure_class.value, str(payload),
            elapsed_seconds=elapsed,
        )
        task.records.append(record)

        if decision.retry and task.attempt < total_attempts:
            # Salted by task index: every task gets its own deterministic
            # jitter schedule, decorrelated from its neighbours and immune
            # to completion-order nondeterminism (a shared RNG would hand
            # out delays in whatever order workers happened to die).
            record.backoff_seconds = self.retry.delay_for(
                task.attempt, salt=task.index
            )
            task.not_before = time.monotonic() + record.backoff_seconds
            self.out(
                f"[pair {task.index}] attempt {task.attempt}/{total_attempts} "
                f"{status} ({payload}); backing off "
                f"{record.backoff_seconds:.3f}s"
            )
            counter_inc("parallel.pool.retries", 1, status=status)
            pending.append(task)
            return
        outcomes[task.index] = TaskOutcome(
            task.index, status, payload, task.records
        )
        counter_inc("parallel.pool.tasks", 1, status=status)

    def _terminate_all(
        self, running: dict[Any, tuple[WorkerHandle, PoolTask]]
    ) -> None:
        for handle, _ in running.values():
            try:
                handle.receiver.close()
            except Exception:  # pragma: no cover
                pass
            handle.process.terminate()
        for handle, _ in running.values():
            handle.process.join(1.0)
            if handle.process.is_alive():  # pragma: no cover
                handle.process.kill()
                handle.process.join(1.0)
        running.clear()


__all__ = ["PoolTask", "TaskOutcome", "WorkerPool"]
