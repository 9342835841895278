"""Workers: bridging the job queue onto the existing task runtime.

A :class:`JobExecutor` owns the shared runtime state -- one
:class:`~repro.runtime.cache.ResultCache` / :class:`~repro.runtime.cache.TaskCache`
pair, one :class:`~repro.runtime.tasks.TaskRunner` and one
:class:`~repro.runtime.tasks.TaskPool` that the task runner and every sweep
runner share -- so every job served by the process shares the warm caches,
the dedup/stat counters and one set of pool processes, forked at the first
pooled job, exactly as a long-lived front end should (the point of the
service layer is to stop paying one-shot CLI costs per request).
Determinism carries over unchanged: jobs lower onto the same task builders
and sweep plans the CLI uses, and the runtime guarantees serial == parallel
bitwise.

A :class:`WorkerPool` runs N daemon threads that claim work from the
:class:`~repro.service.scheduler.JobScheduler` and execute it; the
:class:`JobService` facade wires store, scheduler, executor and pool
together (plus restart recovery) for the HTTP layer and the CLI.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

from repro.exceptions import ReproError, ServiceError
from repro.faults.injector import InjectedWorkerCrash, maybe_inject
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.service.retry import is_transient, transient_reason
from repro.runtime.cache import ResultCache, TaskCache, cache_layout
from repro.runtime.engine import SweepRunner
from repro.runtime.tasks import TaskRunner, default_worker_count, task_pool
from repro.service.jobs import Job, JobStore
from repro.service.scheduler import JobScheduler, job_kind
from repro.store.core import ResultStore
from repro.store.query import report
from repro.store.readers import ingest_payload

__all__ = ["ExecutorStats", "JobExecutor", "WorkerPool", "JobService"]

#: Per-kind job execution latency for ``GET /metrics``.  Observed around the
#: executor's work only -- queueing delay is visible separately, as the gap
#: between the ``queued`` and ``running`` timeline events on the job.
_METRIC_JOB_SECONDS = obs_metrics.REGISTRY.histogram(
    "repro_job_seconds",
    "Execution wall time of one job, by kind.",
    labelnames=("kind",),
)
_METRIC_WORKER_RESTARTS = obs_metrics.REGISTRY.counter(
    "repro_worker_restarts_total",
    "Dead worker threads detected and respawned by the supervisor.",
)
_METRIC_WORKER_STOP_HUNG = obs_metrics.REGISTRY.counter(
    "repro_worker_stop_hung_total",
    "Worker threads still alive after a pool stop timeout.",
)

_LOG = logging.getLogger("repro.service")


@dataclass
class ExecutorStats:
    """Counters accumulated over the lifetime of a :class:`JobExecutor`."""

    jobs_executed: int = 0
    results_recorded: int = 0
    record_failures: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


class JobExecutor:
    """Executes claimed jobs on one long-lived slice of the task runtime."""

    def __init__(
        self,
        *,
        cache_dir: str | Path | None = None,
        parallel: bool = True,
        max_workers: int | None = None,
    ) -> None:
        layout = cache_layout(cache_dir) if cache_dir else None
        self.result_cache = ResultCache(layout.results) if layout else None
        self.task_cache = TaskCache(layout.tasks) if layout else None
        self.result_store = ResultStore(layout.store) if layout else None
        self.parallel = parallel
        self.max_workers = max_workers
        self.task_pool = task_pool(parallel, max_workers or default_worker_count())
        self.task_runner = TaskRunner(
            parallel=parallel,
            max_workers=max_workers,
            cache=self.task_cache,
            pool=self.task_pool,
        )
        self.stats = ExecutorStats()
        self._stats_lock = threading.Lock()

    def sweep_runner(self) -> SweepRunner:
        return SweepRunner(
            parallel=self.parallel,
            max_workers=self.max_workers,
            cache=self.result_cache,
            pool=self.task_pool,
        )

    def close(self, *, wait: bool = True) -> None:
        """Shut the task pool's children down; the next pooled job forks again."""
        if self.task_pool is not None:
            self.task_pool.close(wait=wait)

    # -- job execution -------------------------------------------------------

    def execute(self, job: Job) -> dict[str, Any]:
        """Run one claimed job through its table entry; returns the payload."""
        run = job_kind(job.kind, job.params).run
        with self._stats_lock:
            self.stats.jobs_executed += 1
        start = time.perf_counter()
        # Each attempt hangs under the job's root, whose span id is the job
        # id (the scheduler records it once the job is terminal), so the
        # trace tree separates queue wait from run time -- for a job
        # recovered from the journal too.
        with obs_spans.span(
            "job.execute",
            kind="worker",
            attributes={
                "job_id": job.id,
                "job_kind": job.kind,
                "attempt": job.attempts,
            },
            parent=(job.trace_id, job.id),
        ):
            payload = run(self, job.params)
        _METRIC_JOB_SECONDS.labels(kind=job.kind).observe(
            time.perf_counter() - start
        )
        return payload

    def record_payload(self, job: Job, payload: dict[str, Any]) -> None:
        """Ingest one finished job's result into the result store.

        The one place a job's result is recorded, stamped with the job's
        trace.  Best-effort by design: recording history must never fail or
        retry a job that already finished.  Kinds whose table entry says
        ``record=False`` are not ingested.
        """
        if self.result_store is None or not job_kind(job.kind, job.params).record:
            return
        try:
            receipt = ingest_payload(
                self.result_store,
                payload,
                run_id=payload.get("run_id") or job.id,
                trace_id=job.trace_id,
            )
        except Exception:  # noqa: BLE001 - history is best-effort
            with self._stats_lock:
                self.stats.record_failures += 1
            return
        if receipt.added:
            with self._stats_lock:
                self.stats.results_recorded += 1

    def record_trace(self, job: Job) -> None:
        """Ingest one terminal job's span tree into the result store.

        Runs *after* the scheduler recorded the job's root span, so the
        snapshot includes the full submit-to-terminal tree.  Best-effort
        like :meth:`record_payload`: spans are diagnostics, never worth
        failing a finished job over.  The ``repro-spans/v1`` records make
        per-phase hotspots queryable across runs (``span-hotspots``).
        """
        if self.result_store is None or job.trace_id is None:
            return
        sink = obs_spans.collector()
        if sink is None:
            return
        spans = sink.spans(job.trace_id)
        if not spans:
            return
        try:
            ingest_payload(
                self.result_store,
                obs_spans.spans_payload(job.trace_id, spans),
                run_id=job.trace_id,
                trace_id=job.trace_id,
            )
        except Exception:  # noqa: BLE001 - history is best-effort
            with self._stats_lock:
                self.stats.record_failures += 1

    def cache_stats(self) -> dict[str, Any]:
        """Live stats for both caches, including size on disk."""
        payload: dict[str, Any] = {"cache_dir": None, "results": None, "tasks": None}
        if self.result_cache is not None:
            payload["cache_dir"] = str(self.result_cache.root)
            payload["results"] = {
                **self.result_cache.stats.as_dict(),
                "entries": len(self.result_cache),
                "disk_usage_bytes": self.result_cache.disk_usage_bytes(),
            }
        if self.task_cache is not None:
            payload["tasks"] = {
                **self.task_cache.stats.as_dict(),
                "entries": len(self.task_cache),
                "disk_usage_bytes": self.task_cache.disk_usage_bytes(),
            }
        payload["store"] = None
        if self.result_store is not None:
            payload["store"] = {
                **self.result_store.stats.as_dict(),
                "runs": self.result_store.run_count(),
                "records": len(self.result_store),
                "disk_usage_bytes": self.result_store.disk_usage_bytes(),
            }
        payload["task_runner"] = self.task_runner.stats.as_dict()
        return payload


class WorkerPool:
    """N supervised daemon threads draining the scheduler into the executor.

    Every claimed job is registered in an in-flight map before execution
    begins.  A *supervisor* thread watches the workers: when one dies --
    the chaos suite's ``task-crash`` fault, or any real bug that escapes
    the per-job guard -- the supervisor requeues its in-flight jobs through
    the scheduler's retry path (attempt count incremented, backoff applied)
    and respawns a replacement worker, counted by
    ``repro_worker_restarts_total``.  A crashed worker therefore costs one
    retry delay, never a stranded job.

    :meth:`stop` reports honesty instead of silence: a worker still alive
    after its join timeout is logged, counted by
    ``repro_worker_stop_hung_total``, recorded in :attr:`hung_workers`, and
    makes ``stop`` return ``False`` so callers know the shutdown was
    unclean (the stop flag stays set, so a hung worker exits as soon as it
    unblocks).
    """

    def __init__(
        self,
        scheduler: JobScheduler,
        executor: JobExecutor,
        *,
        count: int = 2,
        supervise_interval: float = 0.2,
    ) -> None:
        if count < 1:
            raise ReproError(f"worker count must be >= 1, got {count!r}")
        self.scheduler = scheduler
        self.executor = executor
        self.count = count
        self.supervise_interval = supervise_interval
        self._lock = threading.Lock()
        self._workers: dict[str, threading.Thread] = {}
        self._inflight: dict[str, str] = {}  # thread name -> job id
        self._supervisor: threading.Thread | None = None
        self._next_index = 0
        self._stop = threading.Event()
        self.restarts = 0
        self.hung_workers: list[str] = []

    @property
    def running(self) -> bool:
        with self._lock:
            return any(thread.is_alive() for thread in self._workers.values())

    def as_dict(self) -> dict[str, Any]:
        with self._lock:
            return {
                "count": self.count,
                "alive": sum(
                    1 for t in self._workers.values() if t.is_alive()
                ),
                "restarts": self.restarts,
                "hung_workers": list(self.hung_workers),
            }

    def start(self) -> None:
        with self._lock:
            if self._workers:
                return
            self._stop.clear()
            self.scheduler.reopen()  # a stop/start cycle must not leave claim() hot
            self.hung_workers = []
            for _ in range(self.count):
                self._spawn_locked()
            self._supervisor = threading.Thread(
                target=self._supervise, name="repro-supervisor", daemon=True
            )
            self._supervisor.start()

    def _spawn_locked(self) -> None:
        name = f"repro-worker-{self._next_index}"
        self._next_index += 1
        thread = threading.Thread(
            target=self._run_worker, name=name, daemon=True
        )
        self._workers[name] = thread
        thread.start()

    def stop(self, timeout: float = 5.0) -> bool:
        """Stop workers and supervisor; ``False`` when any worker hung.

        ``thread.join(timeout)`` returning says nothing about success, so
        each worker is re-checked with ``is_alive`` afterwards: survivors
        are logged, counted and reported to the caller instead of being
        silently abandoned.  The stop flag is left set on an unclean stop,
        so a hung worker that eventually unblocks exits instead of claiming
        new work.
        """
        self._stop.set()
        self.scheduler.close()
        supervisor = self._supervisor
        if supervisor is not None:
            supervisor.join(max(timeout, self.supervise_interval * 5))
            self._supervisor = None
        with self._lock:
            workers = dict(self._workers)
        deadline = time.monotonic() + timeout
        hung = []
        for name, thread in workers.items():
            thread.join(max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                hung.append(name)
        if hung:
            _METRIC_WORKER_STOP_HUNG.inc(len(hung))
            _LOG.warning(
                "worker pool stop was unclean: %d worker(s) still alive "
                "after %.1fs: %s", len(hung), timeout, ", ".join(hung),
            )
        with self._lock:
            self.hung_workers = hung
            self._workers = {}
            self._inflight = {
                name: job_id
                for name, job_id in self._inflight.items()
                if name in hung
            }
        return not hung

    # -- the worker threads --------------------------------------------------

    def _run_worker(self) -> None:
        try:
            self._loop()
        except InjectedWorkerCrash:
            # A chaos-injected death: return quietly (no threading
            # excepthook noise).  The in-flight registration survives, so
            # the supervisor requeues this worker's jobs and respawns it.
            return

    def _loop(self) -> None:
        name = threading.current_thread().name
        while not self._stop.is_set():
            job = self.scheduler.claim(timeout=0.1)
            if job is None:
                continue
            with self._lock:
                self._inflight[name] = job.id
            try:
                # The task-crash injection point sits between claim and
                # execute -- the job is marked running and registered
                # in-flight, exactly the window a real crash strands work.
                # slow-task stalls here too, simulating a wedged job.
                maybe_inject("task-crash", site=f"{name}:{job.kind}")
                maybe_inject("slow-task", site=f"{name}:{job.kind}")
                payload = self.executor.execute(job)
            except Exception as exc:  # noqa: BLE001 - jobs must never kill a worker
                with self._lock:
                    self._inflight.pop(name, None)
                self._resolve_failure(job, exc)
                continue
            with self._lock:
                self._inflight.pop(name, None)
            self.executor.record_payload(job, payload)
            self.scheduler.finish(job, payload)
            self.executor.record_trace(job)

    def _resolve_failure(self, job: Job, exc: Exception) -> None:
        """Retry a transient failure within policy; fail everything else."""
        message = f"{type(exc).__name__}: {exc}"
        if is_transient(exc) and self.scheduler.retry(
            job, reason=transient_reason(exc)
        ):
            return
        self.scheduler.fail(job, message)
        self.executor.record_trace(job)

    # -- supervision ---------------------------------------------------------

    def _supervise(self) -> None:
        while not self._stop.wait(self.supervise_interval):
            self.reap_dead_workers()

    def reap_dead_workers(self) -> int:
        """Requeue dead workers' jobs and respawn replacements.

        Normally driven by the supervisor thread; public so tests (and a
        paranoid caller) can force a supervision pass synchronously.
        Returns the number of dead workers handled.
        """
        with self._lock:
            dead = [
                name
                for name, thread in self._workers.items()
                if not thread.is_alive()
            ]
            orphans: list[str] = []
            for name in dead:
                job_id = self._inflight.pop(name, None)
                if job_id is not None:
                    orphans.append(job_id)
                del self._workers[name]
            respawned = 0
            if not self._stop.is_set():
                for _ in dead:
                    self._spawn_locked()
                    respawned += 1
                self.restarts += respawned
        if respawned:
            _METRIC_WORKER_RESTARTS.inc(respawned)
            _LOG.warning(
                "supervisor: %d dead worker(s) respawned, %d job(s) requeued",
                respawned, len(orphans),
            )
        for job_id in orphans:
            job = self.scheduler.store.get(job_id)
            if job.terminal:
                continue
            if not self.scheduler.retry(job, reason="worker-crash"):
                self.scheduler.fail(
                    job,
                    "worker crashed mid-job and the retry policy is "
                    f"exhausted after {job.attempts} attempt(s)",
                )
        return len(dead)


class JobService:
    """Store + scheduler + executor + worker pool, wired together.

    The one long-lived object behind both the HTTP API and in-process tests.
    Construction recovers persisted state (``state_path``); :meth:`start`
    spins the workers up -- kept separate so tests and benchmarks can queue
    submissions deterministically before execution begins.
    """

    def __init__(
        self,
        *,
        cache_dir: str | Path | None = None,
        state_path: str | Path | None = None,
        parallel: bool = True,
        max_workers: int | None = None,
        workers: int = 2,
        max_queue_depth: int | None = None,
        spans: bool = True,
    ) -> None:
        self.spans = spans
        self.store = JobStore(state_path)
        self.scheduler = JobScheduler(
            self.store, max_queue_depth=max_queue_depth, workers_hint=workers
        )
        self.executor = JobExecutor(
            cache_dir=cache_dir, parallel=parallel, max_workers=max_workers
        )
        self.pool = WorkerPool(self.scheduler, self.executor, count=workers)
        self.started_at = time.time()
        self._draining = threading.Event()
        for job in self.store.interrupted():
            try:
                requeued = self.scheduler.requeue(job)
            except ReproError as exc:
                # A stale journal entry (e.g. a suite renamed between
                # versions) must not stop the service from booting.
                self.store.mark_failed(job, f"unrecoverable after restart: {exc}")
                continue
            if not requeued:
                self.store.mark_failed(
                    job,
                    "interrupted by a restart and the retry policy is "
                    f"exhausted after {job.attempts} attempt(s)",
                )

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "JobService":
        # Build identity is always published on /metrics; span collection is
        # on by default (cheap: bounded buffer, aggregated phases) but can be
        # opted out (``repro serve --no-spans``), dropping every hook back to
        # its branch-predictable no-op.
        obs_metrics.record_build_info()
        if self.spans and not obs_spans.enabled():
            obs_spans.enable()
        self._draining.clear()
        self.pool.start()
        return self

    def stop(self, timeout: float = 5.0) -> bool:
        """Stop the workers, the task pool and the journal; ``False`` when
        the stop was unclean.

        The task pool's children are joined after a clean stop; a hung
        worker may still wait on them, so an unclean stop does not wait.
        """
        clean = self.pool.stop(timeout)
        self.executor.close(wait=clean)
        self.store.close()
        return clean

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def drain(self, timeout: float = 30.0) -> bool:
        """Graceful shutdown: refuse new jobs, finish in-flight, stop.

        Submissions after this point get 503 + ``Retry-After``.  Queued and
        running work is given ``timeout`` seconds to reach a terminal state
        (every transition is journaled as usual, so anything unfinished is
        requeued by the next boot's restart recovery).  Returns ``True``
        when the queue fully drained and the pool stopped cleanly.
        """
        self._draining.set()
        deadline = time.monotonic() + timeout
        drained = self.store.wait_idle(timeout)
        clean = self.pool.stop(max(1.0, deadline - time.monotonic()))
        self.executor.close(wait=clean)
        if not drained:
            counts = self.store.state_counts()
            _LOG.warning(
                "drain timed out with %d queued and %d running job(s); "
                "they stay journaled for restart recovery",
                counts.get("queued", 0), counts.get("running", 0),
            )
        return drained and clean

    # -- the API surface -----------------------------------------------------

    def submit(
        self,
        kind: str,
        params: dict[str, Any],
        *,
        trace_id: str | None = None,
    ) -> Job:
        if self._draining.is_set():
            raise ServiceError(
                "service is draining and not accepting new jobs",
                status=503,
                retry_after=max(5.0, self.scheduler.retry_after_estimate()),
            )
        return self.scheduler.submit(kind, params, trace_id=trace_id)

    def job(self, job_id: str) -> Job:
        return self.store.get(job_id)

    def wait(self, job_id: str, timeout: float) -> Job:
        """The job once it is done or failed, or after ``timeout`` seconds."""
        job = self.store.get(job_id)
        if timeout > 0:
            self.store.wait_terminal(job, timeout)
        return job

    def trace(self, trace_id: str) -> dict[str, Any]:
        """The rooted span tree for one trace (``GET /trace/{id}``).

        404s when no spans are buffered for the trace -- collection may be
        disabled, the trace may be unknown, or its spans may have been
        evicted from the ring (``repro_spans_dropped_total`` says which).
        """
        sink = obs_spans.collector()
        spans = sink.spans(trace_id) if sink is not None else []
        if not spans:
            detail = (
                "span collection is disabled"
                if sink is None
                else "unknown trace, or its spans were evicted from the buffer"
            )
            raise ServiceError(
                f"no spans recorded for trace {trace_id!r} ({detail})",
                status=404,
            )
        return obs_spans.trace_document(trace_id, spans)

    def jobs(self) -> list[Job]:
        return self.store.jobs()

    def health(self) -> dict[str, Any]:
        return {
            "ok": True,
            "uptime_seconds": time.time() - self.started_at,
            "workers": self.pool.count,
            "workers_running": self.pool.running,
            "draining": self.draining,
            "queue_depth": self.scheduler.queue_depth,
            "max_queue_depth": self.scheduler.max_queue_depth,
            "jobs": self.store.state_counts(),
            "scheduler": self.scheduler.stats.as_dict(),
            "executor": self.executor.stats.as_dict(),
            "pool": self.pool.as_dict(),
        }

    def cache_stats(self) -> dict[str, Any]:
        return self.executor.cache_stats()

    def results(
        self,
        *,
        experiment: str | None = None,
        scenario: str | None = None,
        kernel: str | None = None,
        suite: str | None = None,
        run_id: str | None = None,
        transform: str | None = None,
        limit: int | None = None,
    ) -> dict[str, Any]:
        """The report document over recorded results (``GET /results``).

        See :func:`repro.store.query.report`; an uncached service has no
        store and reports zero records.
        """
        return report(
            self.executor.result_store,
            experiment=experiment,
            scenario=scenario,
            kernel=kernel,
            suite=suite,
            run_id=run_id,
            transform=transform,
            limit=limit,
        )

    def metrics_text(self) -> str:
        """The process metrics in Prometheus text format (``GET /metrics``)."""
        return obs_metrics.REGISTRY.render_prometheus()

    def metrics_json(self) -> dict[str, Any]:
        """The process metrics as JSON (``GET /metrics?format=json``)."""
        return obs_metrics.REGISTRY.render_json()
