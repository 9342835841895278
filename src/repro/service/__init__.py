"""``repro.service`` -- the async job-queue service layer over the runtime.

Kung's balance principle asks for an I/O front end matched to the compute
engine.  The repo's compute engine (vectorized analytic paths, pooled
content-addressed tasks, on-disk result caches) was previously fronted only
by one-shot CLI processes; this package is the long-lived front end:

* :mod:`repro.service.jobs` -- the :class:`Job` state machine and the
  thread-safe :class:`JobStore` with JSON-lines restart recovery;
* :mod:`repro.service.scheduler` -- the :data:`JOB_TABLE` of job kinds
  (how each kind is validated, keyed, run and retried) and the queue with
  content-addressed dedup (identical in-flight submissions run once);
* :mod:`repro.service.workers` -- the executor/worker-pool bridge onto
  :class:`~repro.runtime.tasks.TaskRunner` and
  :class:`~repro.runtime.engine.SweepRunner`, plus the :class:`JobService`
  facade;
* :mod:`repro.service.api` -- stdlib JSON-over-HTTP endpoints
  (``POST /jobs``, ``GET /jobs/{id}``, ``GET /jobs/{id}/result`` with its
  ``?wait=S`` long-poll, ``GET /healthz``, ``GET /cache/stats``,
  ``GET /metrics``);
* :mod:`repro.service.client` -- the blocking Python client, with
  transient-connection retries, backpressure-aware submission and
  long-poll result waits;
* :mod:`repro.service.retry` -- :class:`RetryPolicy` budgets (bounded
  attempts, deterministic-jitter backoff, deadlines) that the scheduler and
  the supervising :class:`WorkerPool` enforce.

Resilience is part of the contract: the scheduler's queue can be bounded
(saturated submissions shed with 429 + ``Retry-After``), crashed worker
threads are reaped and their jobs retried, and the deterministic fault
injector in :mod:`repro.faults` can rehearse all of it reproducibly.

Observability rides on :mod:`repro.obs`: every submission carries a trace
ID (minted or taken from ``X-Repro-Trace``) through the scheduler, the
journal and the job's spans; the journal holds one record per state
transition, and ``GET /jobs/{id}`` exposes those records' events as the
job's timeline; ``GET /metrics`` exposes the process metrics registry;
``repro doctor`` diagnoses cache/journal/worker health.
See ``docs/operations.md``.

Everything is stdlib-only (``threading`` + ``http.server``): no web
framework is required to run ``repro serve``.
"""

from repro.exceptions import QueueSaturatedError
from repro.service.api import ServiceHTTPServer, serve
from repro.service.client import ServiceClient
from repro.service.jobs import (
    DONE,
    FAILED,
    JOB_STATES,
    QUEUED,
    RUNNING,
    Job,
    JobStore,
)
from repro.service.retry import (
    RetryPolicy,
    is_transient,
    transient_reason,
)
from repro.service.scheduler import (
    JOB_TABLE,
    JobKind,
    JobScheduler,
    analytic_sweep_payload,
    job_key,
    normalize_job_params,
)
from repro.service.workers import (
    JobExecutor,
    JobService,
    WorkerPool,
)

__all__ = [
    "DONE",
    "FAILED",
    "JOB_STATES",
    "JOB_TABLE",
    "QUEUED",
    "RUNNING",
    "Job",
    "JobExecutor",
    "JobKind",
    "JobScheduler",
    "JobService",
    "JobStore",
    "QueueSaturatedError",
    "RetryPolicy",
    "ServiceClient",
    "ServiceHTTPServer",
    "WorkerPool",
    "analytic_sweep_payload",
    "is_transient",
    "job_key",
    "normalize_job_params",
    "serve",
    "transient_reason",
]
