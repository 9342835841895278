"""The job-kind table and the content-addressed job scheduler.

* **One table of job kinds.**  :data:`JOB_TABLE` holds, for every shape of
  work the service accepts, how a submission is validated, keyed, run and
  retried (:class:`JobKind`).  Admission, the scheduler, the executor and
  ``repro doctor`` all read it, so adding a job kind is one table entry.

* **Dedup by content address.**  Every job gets a key derived from the
  runtime's content-addressed task keys (callable identity + the package's
  code version + numpy's version + parameter fingerprint -- see
  :func:`repro.runtime.tasks.task_key`).  While a job with a given key is
  queued or running, identical submissions attach to it as *followers*: the
  underlying work executes once and every submission observes the same
  result.  Because the code version participates in the keys, a service
  started on edited source never dedups against work keyed by the old code.

* **Answers at admission.**  A finished job of a kind whose entry says
  ``record`` leaves its payload in the executor's task cache under its job
  key.  A later submission with that key is *answered*: it is created
  already done with the stored payload, and no queue slot, worker or store
  ingest is spent on it.  The key is the content address of the payload,
  so an answer is the original run's result, its ``run_id`` and timings
  included.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.analysis.sweep import normalize_memory_sizes
from repro.exceptions import ConfigurationError, QueueSaturatedError
from repro.kernels.base import Kernel
from repro.obs import spans as obs_spans
from repro.obs.metrics import REGISTRY, Counts
from repro.obs.spans import new_trace_id, normalize_trace_id
from repro.runtime.cache import MISS, TaskCache
from repro.runtime.suites import (
    ExperimentScenario,
    build_kernel,
    get_suite,
    run_experiments,
    run_suite,
    sweep_payload,
)
from repro.runtime.tasks import task_key
from repro.runtime.vectorized import analytic_sweep_payload
from repro.service.jobs import RUNNING, Job, JobStore
from repro.service.retry import RetryPolicy

if TYPE_CHECKING:
    from repro.service.workers import JobExecutor

__all__ = [
    "JOB_TABLE",
    "JobKind",
    "JobScheduler",
    "job_kind",
    "job_key",
    "normalize_job_params",
    "retry_policy",
    "experiment_scenario",
    "analytic_sweep_payload",
]

# Scheduler instrumentation for ``GET /metrics``.  The gauge reports the
# last-written queue depth of whichever scheduler updated it most recently;
# with the service's one-scheduler-per-process layout that is *the* queue.
_METRIC_QUEUE_DEPTH = REGISTRY.gauge(
    "repro_scheduler_queue_depth", "Jobs waiting in the scheduler queue."
)
# A scheduler's counted events over its lifetime (its ``stats``), and the
# family each also feeds.
_EVENTS = {
    "submitted": REGISTRY.counter(
        "repro_jobs_submitted_total", "Jobs accepted for execution.",
        labelnames=("kind",),
    ),
    "deduped": REGISTRY.counter(
        "repro_scheduler_dedup_attaches_total",
        "Submissions attached to an identical in-flight job instead of running.",
    ),
    "answered": REGISTRY.counter(
        "repro_scheduler_answered_total",
        "Submissions answered at admission with a finished job's stored payload.",
    ),
    "completed": REGISTRY.counter(
        "repro_jobs_completed_total", "Jobs finished successfully, by kind.",
        labelnames=("kind",),
    ),
    "failed": REGISTRY.counter(
        "repro_jobs_failed_total", "Jobs finished with an error, by kind.",
        labelnames=("kind",),
    ),
    "retried": REGISTRY.counter(
        "repro_job_retries_total",
        "Jobs requeued for another attempt, by kind and reason.",
        labelnames=("kind", "reason"),
    ),
    "rejected": REGISTRY.counter(
        "repro_jobs_rejected_total",
        "Submissions refused by admission control, by reason.",
        labelnames=("reason",),
    ),
}

# ---------------------------------------------------------------------------
# Each kind's normalize, key and run functions.
# ---------------------------------------------------------------------------


def _normalize_suite(params: Mapping[str, Any]) -> dict[str, Any]:
    name = params.get("suite")
    if not isinstance(name, str):
        raise ConfigurationError("suite jobs need a 'suite' name")
    get_suite(name)  # raises on unknown suites
    return {"suite": name}


def _suite_key(params: Mapping[str, Any]) -> str:
    return task_key(get_suite, {"name": params["suite"]})


def _run_suite(executor: JobExecutor, params: Mapping[str, Any]) -> dict[str, Any]:
    # The executor records the payload, as it does for every kind.
    suite = get_suite(params["suite"])
    result = run_suite(
        suite, executor.sweep_runner(), task_runner=executor.task_runner, record=False
    )
    return result.as_dict()


def experiment_scenario(experiment: str, params: Mapping[str, Any]) -> ExperimentScenario:
    return ExperimentScenario(
        name=f"job-{experiment}", experiment=experiment, params=dict(params)
    )


def _normalize_experiment(params: Mapping[str, Any]) -> dict[str, Any]:
    experiment = params.get("experiment")
    if not isinstance(experiment, str):
        raise ConfigurationError("experiment jobs need an 'experiment' kind")
    extra = params.get("params") or {}
    if not isinstance(extra, Mapping):
        raise ConfigurationError(
            f"experiment 'params' must be a mapping, got {extra!r}"
        )
    # Constructing the scenario validates the kind; building its tasks
    # (in the key) validates the driver parameters.
    experiment_scenario(experiment, extra)
    return {"experiment": experiment, "params": dict(extra)}


def _experiment_key(params: Mapping[str, Any]) -> str:
    scenario = experiment_scenario(params["experiment"], params["params"])
    keys = sorted(task.key() for task in scenario.tasks())
    return task_key(_run_experiment, {"task_keys": keys})


def _run_experiment(executor: JobExecutor, params: Mapping[str, Any]) -> dict[str, Any]:
    scenario = experiment_scenario(params["experiment"], params["params"])
    (result,) = run_experiments([scenario], executor.task_runner)
    return scenario.as_payload(result.results, result.task_keys)


def _int_param(value: Any, label: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"sweep {label!r} must be an integer, got {value!r}"
        ) from exc


def _sweep_grid(params: Mapping[str, Any]) -> tuple[Kernel, list[int]]:
    """The validated kernel and memory grid every sweep submission carries."""
    name = params.get("kernel")
    if not isinstance(name, str):
        raise ConfigurationError("sweep jobs need a 'kernel' name")
    kernel = build_kernel(name)  # raises on unknown kernels
    memory_sizes = params.get("memory_sizes")
    if memory_sizes is None:
        raise ConfigurationError("sweep jobs need 'memory_sizes'")
    if isinstance(memory_sizes, (str, bytes)) or not isinstance(
        memory_sizes, Sequence
    ):
        # A bare string would be iterated character by character and silently
        # accepted as a grid the caller never asked for.
        raise ConfigurationError(
            f"'memory_sizes' must be a list of integers, got {memory_sizes!r}"
        )
    try:
        sizes = [int(size) for size in normalize_memory_sizes(memory_sizes)]
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"'memory_sizes' must be a list of integers, got {memory_sizes!r}"
        ) from exc
    return kernel, sizes


def _normalize_measured_sweep(params: Mapping[str, Any]) -> dict[str, Any]:
    kernel, sizes = _sweep_grid(params)
    scale = params.get("scale")
    if scale is None:
        raise ConfigurationError("measured sweep jobs need a 'scale'")
    scale = _int_param(scale, "scale")
    if scale < 0:
        # The scale seeds the kernel's problem generator, which rejects
        # negative seeds; 0 is fine (kernels clamp the order to 2).
        raise ConfigurationError(f"sweep 'scale' must be >= 0, got {scale!r}")
    for size in sizes:
        kernel.validate_memory(size)
    return {
        "kernel": params["kernel"],
        "memory_sizes": sizes,
        "scale": scale,
        "analytic": False,
    }


def _measured_sweep_key(params: Mapping[str, Any]) -> str:
    # The code version and numpy's version cover the seeded problem
    # generator, so the key never needs the generated problem arrays.
    return task_key(_run_measured_sweep, params)


def _run_measured_sweep(executor: JobExecutor, params: Mapping[str, Any]) -> dict[str, Any]:
    return sweep_payload(
        executor.sweep_runner(), params["kernel"], params["memory_sizes"], params["scale"]
    )


def _normalize_analytic_sweep(params: Mapping[str, Any]) -> dict[str, Any]:
    _, sizes = _sweep_grid(params)
    problem_size = _int_param(params.get("problem_size", 4096), "problem_size")
    if problem_size < 1:
        raise ConfigurationError(f"problem_size must be >= 1, got {problem_size!r}")
    return {
        "kernel": params["kernel"],
        "memory_sizes": sizes,
        "problem_size": problem_size,
        "analytic": True,
    }


def _analytic_sweep_key(params: Mapping[str, Any]) -> str:
    return task_key(analytic_sweep_payload, params)


def _run_analytic_sweep(_: JobExecutor, params: Mapping[str, Any]) -> dict[str, Any]:
    return analytic_sweep_payload(
        params["kernel"], params["memory_sizes"], params["problem_size"]
    )


# ---------------------------------------------------------------------------
# The table.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JobKind:
    """How the service validates, keys, runs and retries one kind of job.

    ``normalize`` reduces submitted params to canonical JSON-native params
    and raises :class:`~repro.exceptions.ConfigurationError` (a 400) on
    anything ``run`` could not execute.  ``key`` maps canonical params to the
    job's content address; ``run`` executes them on a
    :class:`~repro.service.workers.JobExecutor` and returns the payload.
    ``retry`` is the default policy a job is admitted under; ``record`` says
    whether a finished payload is kept: ingested into the result store and
    stored under the job key, where it answers later submissions.
    ``analytic``, when set, is the entry for this kind's submissions with
    ``"analytic": true``.
    """

    normalize: Callable[[Mapping[str, Any]], dict[str, Any]]
    key: Callable[[Mapping[str, Any]], str]
    run: Callable[[JobExecutor, Mapping[str, Any]], dict[str, Any]]
    retry: RetryPolicy
    record: bool = True
    analytic: JobKind | None = None


_SWEEP_RETRY = RetryPolicy(
    max_attempts=3, base_delay=0.05, max_delay=2.0, deadline_seconds=300.0
)

#: Every job kind the service accepts, by wire name.  Retry defaults: the
#: heavier the job, the fewer attempts and the wider the deadline.  Suites
#: take minutes, so one retry is all a crashed suite gets before a human
#: should look at the worker logs.
JOB_TABLE: dict[str, JobKind] = {
    "sweep": JobKind(
        normalize=_normalize_measured_sweep,
        key=_measured_sweep_key,
        run=_run_measured_sweep,
        retry=_SWEEP_RETRY,
        analytic=JobKind(
            normalize=_normalize_analytic_sweep,
            key=_analytic_sweep_key,
            run=_run_analytic_sweep,
            retry=_SWEEP_RETRY,
            # No store reader accepts the analytic payload, and computing it
            # takes less time than storing it under the job key would.
            record=False,
        ),
    ),
    "experiment": JobKind(
        normalize=_normalize_experiment,
        key=_experiment_key,
        run=_run_experiment,
        retry=RetryPolicy(
            max_attempts=3, base_delay=0.1, max_delay=5.0, deadline_seconds=600.0
        ),
    ),
    "suite": JobKind(
        normalize=_normalize_suite,
        key=_suite_key,
        run=_run_suite,
        retry=RetryPolicy(
            max_attempts=2, base_delay=0.25, max_delay=10.0, deadline_seconds=1800.0
        ),
    ),
}


def job_kind(kind: str, params: Mapping[str, Any]) -> JobKind:
    """The table entry that handles one submission of ``kind``."""
    entry = JOB_TABLE.get(kind)
    if entry is None:
        known = ", ".join(JOB_TABLE)
        raise ConfigurationError(f"unknown job kind {kind!r}; known kinds: {known}")
    if entry.analytic is not None and params.get("analytic"):
        return entry.analytic
    return entry


def normalize_job_params(kind: str, params: Mapping[str, Any]) -> dict[str, Any]:
    """Validate a submission and reduce it to canonical JSON-native params."""
    return job_kind(kind, params).normalize(params)


def job_key(kind: str, params: Mapping[str, Any]) -> str:
    """Content address of one job; ``params`` must already be canonical."""
    return job_kind(kind, params).key(params)


def retry_policy(job: Job) -> RetryPolicy:
    """The policy a job was admitted under, else its kind's default.

    A kind missing from the table (a journal from another build) gets the
    :class:`RetryPolicy` defaults.
    """
    if job.retry:
        return RetryPolicy.from_dict(job.retry)
    entry = JOB_TABLE.get(job.kind)
    return entry.retry if entry is not None else RetryPolicy()


# ---------------------------------------------------------------------------
# The scheduler proper.
# ---------------------------------------------------------------------------


class JobScheduler:
    """FIFO job queue with dedup, retry backoff and admission control.

    All state transitions happen under one condition variable, so a follower
    can never attach to a primary after its result has been fanned out.

    ``max_queue_depth`` bounds the number of *waiting* jobs: a submission
    that would exceed it is shed with :class:`QueueSaturatedError` (HTTP
    429) and a ``retry_after`` estimate -- unless it deduplicates against
    in-flight work, which is always admitted (a follower consumes no queue
    slot or compute, so shedding it would only waste the work already
    underway).  Retried jobs re-enter the queue with a per-job ``not
    before`` stamp from their :class:`~repro.service.retry.RetryPolicy`
    backoff; :meth:`claim` skips held-back jobs until their delay elapses.

    ``answers`` is the cache finished payloads are kept in under their job
    keys (the executor's task cache), or ``None`` for a service without
    one.  A submission whose key it holds is answered at admission, before
    dedup and admission control, since it consumes nothing.
    """

    def __init__(
        self,
        store: JobStore,
        *,
        answers: TaskCache | None = None,
        max_queue_depth: int | None = None,
        workers_hint: int = 2,
    ) -> None:
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ConfigurationError(
                f"max_queue_depth must be >= 1, got {max_queue_depth!r}"
            )
        self.store = store
        self.answers = answers
        self.max_queue_depth = max_queue_depth
        self.workers_hint = max(1, workers_hint)
        self._cond = threading.Condition()
        self._queue: deque[str] = deque()
        self._not_before: dict[str, float] = {}  # job id -> monotonic stamp
        self._inflight: dict[str, str] = {}  # job key -> primary job id
        self._followers: dict[str, list[str]] = {}  # primary id -> follower ids
        self._closed = False
        self._avg_run_seconds: float | None = None
        self.stats = Counts(_EVENTS)

    @property
    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    def retry_after_estimate(self) -> float:
        """Seconds a shed client should wait before resubmitting."""
        with self._cond:
            return self._retry_after_locked()

    def _retry_after_locked(self) -> float:
        # Queue depth divided by worker parallelism, scaled by the EWMA of
        # recent job run times; clamped to something a client can act on.
        average = self._avg_run_seconds or 1.0
        estimate = (len(self._queue) + 1) * average / self.workers_hint
        return round(min(60.0, max(1.0, estimate)), 1)

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        kind: str,
        params: Mapping[str, Any],
        *,
        trace_id: str | None = None,
    ) -> Job:
        """Create a job: answered from a stored payload, attached to an
        identical in-flight job, or queued.

        Every submission carries a trace ID from here on: the caller's
        (validated) if one was supplied, a freshly minted one otherwise.
        Followers keep their own trace -- dedup shares the *work*, not the
        identity of the request that asked for it.
        """
        trace_id = normalize_trace_id(trace_id) if trace_id else new_trace_id()
        submit_wall = time.time()
        submit_mono = time.monotonic()
        entry = job_kind(kind, params)
        params = entry.normalize(params)
        key = entry.key(params)  # may be slow; computed outside the lock
        if entry.record and self.answers is not None:
            payload = self.answers.load(key)
            if payload is not MISS:
                # An answer takes no queue slot and no worker, so it needs
                # neither the lock nor the depth check.
                self.stats.add("submitted", kind=kind)
                job = self.store.create(kind, params, key=key, trace_id=trace_id)
                self.store.mark_done(job, payload)
                self.stats.add("answered")
                self.stats.add("completed", kind=kind)
                self._record_admission(
                    job, "scheduler.answer", submit_wall, submit_mono
                )
                self._record_root(job)
                return job
        with self._cond:
            primary_id = self._inflight.get(key)
            if primary_id is not None:
                # Load shedding prefers attaching duplicates over admitting
                # new keys: a follower is free, so it bypasses the depth
                # check even when the queue is saturated.
                self.stats.add("submitted", kind=kind)
                job = self.store.create(
                    kind, params, key=key, deduped_into=primary_id,
                    trace_id=trace_id,
                )
                self._followers.setdefault(primary_id, []).append(job.id)
                self.stats.add("deduped")
                self._record_admission(
                    job, "scheduler.dedup-attach", submit_wall, submit_mono,
                    primary_id=primary_id,
                )
                return job
            if (
                self.max_queue_depth is not None
                and len(self._queue) >= self.max_queue_depth
            ):
                self.stats.add("rejected", reason="saturated")
                raise QueueSaturatedError(
                    f"queue is saturated ({len(self._queue)} jobs waiting, "
                    f"limit {self.max_queue_depth}); retry later",
                    retry_after=self._retry_after_locked(),
                )
            self.stats.add("submitted", kind=kind)
            job = self.store.create(
                kind, params, key=key, trace_id=trace_id,
                retry=entry.retry.as_dict(),
            )
            self._inflight[key] = job.id
            self._queue.append(job.id)
            _METRIC_QUEUE_DEPTH.set(len(self._queue))
            self._cond.notify()
            self._record_admission(
                job, "scheduler.enqueue", submit_wall, submit_mono
            )
            return job

    @staticmethod
    def _record_admission(
        job: Job,
        event: str,
        submit_wall: float,
        submit_mono: float,
        *,
        primary_id: str | None = None,
    ) -> None:
        """Record the validate/key/enqueue work as a child of the job's root.

        Every submission owns a root on its own trace, named by its job id
        -- followers included, since dedup shares the *work* but not the
        request identity.  :meth:`_record_root` records that root once the
        job is terminal; this already-measured child shows admission cost
        next to queue wait.
        """
        obs_spans.record_span(
            event,
            "scheduler",
            trace_id=job.trace_id,
            parent_id=job.id,
            start_wall=submit_wall,
            duration=max(0.0, time.monotonic() - submit_mono),
            attributes={"primary_id": primary_id} if primary_id else None,
        )

    def requeue(self, job: Job) -> bool:
        """Re-enqueue a recovered job under its existing id (restart path).

        A job the journal shows ``running`` was interrupted mid-attempt, so
        it takes the worker-crash rule through :meth:`retry` (attempt
        budget, deadline, backoff) with reason ``restart-recovery``; the
        result is ``False`` once its policy is spent, and the caller fails
        it.  Queued jobs requeue as they are.  Recovered duplicates are not
        re-deduplicated against each other: each runs as its own primary
        (the caches make the repeats cheap), which keeps recovery
        independent of replay order.  The key is recomputed, which validates
        the params: a journaled one hashes the code of the admitting build.
        """
        job.key = job_key(job.kind, normalize_job_params(job.kind, job.params))
        if job.state == RUNNING:
            return self.retry(job, reason="restart-recovery")
        with self._cond:
            self.store.requeue(job, reason="restart-recovery")
            self._inflight.setdefault(job.key, job.id)
            self._queue.append(job.id)
            _METRIC_QUEUE_DEPTH.set(len(self._queue))
            self._cond.notify()
        return True

    def retry(self, job: Job, *, reason: str) -> bool:
        """Requeue a failed attempt if the job's retry policy allows it.

        Returns ``False`` (caller should fail the job instead) once the
        attempt budget or deadline is exhausted.  The job keeps its id, its
        key (so followers stay attached and new duplicates keep attaching)
        and its incremented attempt count; it becomes claimable only after
        the policy's deterministic backoff delay.
        """
        policy = retry_policy(job)
        age = time.time() - job.created_at
        if not policy.allows_retry(job.attempts, age):
            return False
        delay = policy.backoff_delay(job.attempts, token=job.id)
        with self._cond:
            self.store.requeue(job, reason=reason)
            if job.key is not None:
                self._inflight.setdefault(job.key, job.id)
            self._not_before[job.id] = time.monotonic() + delay
            self._queue.append(job.id)
            self.stats.add("retried", kind=job.kind, reason=reason)
            _METRIC_QUEUE_DEPTH.set(len(self._queue))
            self._cond.notify()
        return True

    # -- the worker side -----------------------------------------------------

    def _pop_ready(self) -> str | None:
        """Remove and return the first claimable job id (holds the lock)."""
        now = time.monotonic()
        for index, job_id in enumerate(self._queue):
            if self._not_before.get(job_id, 0.0) <= now:
                del self._queue[index]
                self._not_before.pop(job_id, None)
                return job_id
        return None

    def claim(self, timeout: float | None = None) -> Job | None:
        """Pop the next claimable job and mark it running.

        Jobs still inside their retry-backoff window stay queued.  Returns
        ``None`` on timeout or shutdown.
        """
        with self._cond:
            end = None if timeout is None else time.monotonic() + timeout
            while True:
                job_id = self._pop_ready()
                if job_id is not None:
                    break
                if self._closed:
                    return None
                now = time.monotonic()
                if end is not None and now >= end:
                    return None
                wait = None if end is None else end - now
                held = [
                    self._not_before[queued] - now
                    for queued in self._queue
                    if self._not_before.get(queued, 0.0) > now
                ]
                if held:
                    soonest = max(0.001, min(held))
                    wait = soonest if wait is None else min(wait, soonest)
                self._cond.wait(wait)
            _METRIC_QUEUE_DEPTH.set(len(self._queue))
            job = self.store.get(job_id)
            self.store.mark_running(job)
            return job

    def finish(self, job: Job, result: Any) -> None:
        """Complete a job; its followers observe the same result."""
        self._complete(job, result=result, error=None)

    def fail(self, job: Job, error: str) -> None:
        """Fail a job; its followers observe the same error."""
        self._complete(job, result=None, error=error)

    def _complete(self, job: Job, *, result: Any, error: str | None) -> None:
        # Detach the followers and release the key under the lock -- no new
        # follower can attach once the key is gone -- but persist the (large)
        # result records outside it, so submit/claim never stall behind
        # journal writes.
        with self._cond:
            follower_ids = self._followers.pop(job.id, [])
            if job.key is not None and self._inflight.get(job.key) == job.id:
                del self._inflight[job.key]
            if job.started_at is not None:
                # EWMA of run times feeds the 429 Retry-After estimate.
                elapsed = max(0.0, time.time() - job.started_at)
                self._avg_run_seconds = (
                    elapsed
                    if self._avg_run_seconds is None
                    else 0.8 * self._avg_run_seconds + 0.2 * elapsed
                )
            outcome = "completed" if error is None else "failed"
            self.stats.add(outcome, 1 + len(follower_ids), kind=job.kind)
        for target in (job, *(self.store.get(fid) for fid in follower_ids)):
            if error is None:
                self.store.mark_done(target, result)
            else:
                self.store.mark_failed(target, error)
            self._record_root(target)

    @staticmethod
    def _record_root(job: Job) -> None:
        """Record a terminal job's root span.

        Every submission owns one (primary, follower and answered job
        alike), named by the job id its children hang under: the
        client-visible latency, submit to terminal state, for a recovered
        job too.
        """
        attributes = {
            "job_id": job.id,
            "job_kind": job.kind,
            "state": job.state,
            "attempts": job.attempts,
        }
        if job.error is not None:
            attributes["error"] = job.error
        obs_spans.record_span(
            "service.submit",
            "api",
            trace_id=job.trace_id,
            parent_id=None,
            span_id=job.id,
            start_wall=job.created_at,
            duration=job.elapsed_seconds,
            attributes=attributes,
        )

    def close(self) -> None:
        """Wake every waiting worker so it can observe shutdown."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def reopen(self) -> None:
        """Allow ``claim`` to block again after a close (pool restart)."""
        with self._cond:
            self._closed = False
