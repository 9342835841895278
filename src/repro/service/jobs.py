"""The job model and store behind the ``repro.service`` layer.

A :class:`Job` is one unit of service work -- a kernel sweep, an experiment
driver, or a whole scenario suite -- moving through the state machine

    queued -> running -> done | failed

with one extra edge, ``queued -> done``/``queued -> failed``: a submission
that the scheduler deduplicated against an identical in-flight job, or
answered from a stored payload, never runs itself, it observes the outcome
directly.

Every transition is one *record*: the job's identity and attempt count, the
event it entered -- the state, stamped twice (wall clock ``time.time`` for
humans and cross-process ordering, ``time.monotonic`` for durations immune
to clock steps), plus ``attempt`` on ``running`` and ``reason`` on a
requeue -- and, on a terminal record, the result or error.
:meth:`Job.apply` is the one way a job changes: a live transition builds its
record and applies it, and a restart applies the journaled records in
order, so a replayed job is built by the code that built it live.  The
job's ``timeline`` is its records' events.  It answers "why was this job
slow" from ``GET /jobs/{id}``: how long it sat queued, how long it ran,
when it was requeued and why.

The :class:`JobStore` is a thread-safe in-memory map with optional JSON-lines
persistence: every transition appends its record as one line to the state
file, and a restarted service replays the file to recover terminal jobs
(results included) and requeue the ones that were interrupted.  Appends are
single ``write`` calls of one line, so a crash can at worst leave one
truncated line at the tail, which replay skips; since every record repeats
the job's identity, a lost line costs at most its own event.  Every terminal
transition notifies one condition variable, so a caller can block until a
job settles (:meth:`JobStore.wait_terminal`, behind the result long-poll)
or until nothing is open (:meth:`JobStore.wait_idle`, behind drain).
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO

from repro.exceptions import ConfigurationError, ServiceError
from repro.faults.injector import torn_write_armed
from repro.obs.metrics import REGISTRY

__all__ = [
    "Job",
    "JobStore",
    "JOB_STATES",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "parse_record",
]

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
JOB_STATES = (QUEUED, RUNNING, DONE, FAILED)

#: Legal state-machine edges; anything else is a programming error.  An
#: open job may also requeue (``-> queued``), and a new job enters ``queued``.
_TRANSITIONS = {
    QUEUED: {QUEUED, RUNNING, DONE, FAILED},
    RUNNING: {QUEUED, DONE, FAILED},
    DONE: set(),
    FAILED: set(),
}

RECORD_SCHEMA = "repro-service-job/v2"

#: The job fields every record repeats, so any one record rebuilds its job.
_IDENTITY = ("id", "kind", "params", "key", "deduped_into", "trace_id", "retry", "attempts")
#: The record fields that make up its timeline event.
_EVENT = ("state", "wall_time", "monotonic", "attempt", "reason")

#: Journal appends that could not be written (disk full, permissions).  The
#: journal is best-effort durable: a failed append degrades recovery, never
#: a live job, and the metric is how operators find out.
_METRIC_JOURNAL_WRITE_FAILURES = REGISTRY.counter(
    "repro_journal_write_failures_total",
    "Journal record appends that failed with an I/O error.",
)
_METRIC_JOURNAL_TORN_REPAIRS = REGISTRY.counter(
    "repro_journal_torn_tail_repairs_total",
    "Torn journal tail lines terminated before appending new records.",
)


def _new_job_id() -> str:
    return uuid.uuid4().hex[:12]


def _seconds_between(earlier: dict[str, Any], later: dict[str, Any]) -> float | None:
    """Duration between two timeline events, preferring monotonic stamps.

    Monotonic differences are only meaningful within one process; a requeue
    after a restart pairs an old process's stamp with a new one, which can
    even be negative.  Such pairs fall back to wall-clock differences, and
    to ``None`` when even those run backwards.
    """
    for clock in ("monotonic", "wall_time"):
        if later[clock] >= earlier[clock]:
            return later[clock] - earlier[clock]
    return None


@dataclass
class Job:
    """One service job: its identity and the state its records built."""

    id: str
    kind: str
    params: dict[str, Any]
    key: str | None = None
    deduped_into: str | None = None
    trace_id: str | None = None
    #: The retry policy the job was admitted under, as a plain dict so it
    #: journals verbatim (see :mod:`repro.service.retry`).
    retry: dict[str, Any] | None = None
    #: Execution attempts started (each ``queued -> running`` transition).
    attempts: int = 0
    state: str = QUEUED
    result: Any = None
    error: str | None = None
    #: The event of each record applied, oldest first.
    timeline: list[dict[str, Any]] = field(default_factory=list)

    def apply(self, record: dict[str, Any]) -> None:
        """Enter the state one transition record names.

        The one way a job changes, live and at replay: the identity and the
        attempt count become the record's, its event joins the timeline, and
        a terminal record sets the outcome.
        """
        for name in _IDENTITY:
            setattr(self, name, record.get(name))
        self.state = record["state"]
        self.timeline.append({name: record[name] for name in _EVENT if name in record})
        if self.terminal:
            self.result, self.error = record.get("result"), record.get("error")

    @property
    def terminal(self) -> bool:
        return self.state in (DONE, FAILED)

    @property
    def created_at(self) -> float:
        """Wall clock of the job's first event: its submission."""
        return self.timeline[0]["wall_time"]

    @property
    def started_at(self) -> float | None:
        """Wall clock the latest attempt started (``None`` while queued)."""
        events = self.timeline[:-1] if self.terminal else self.timeline
        return events[-1]["wall_time"] if events and events[-1]["state"] == RUNNING else None

    @property
    def finished_at(self) -> float | None:
        return self.timeline[-1]["wall_time"] if self.terminal else None

    @property
    def elapsed_seconds(self) -> float | None:
        """Wall-clock from submission to completion (``None`` while open)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.created_at

    def timeline_payload(self) -> list[dict[str, Any]]:
        """The timeline with per-state durations, for API consumers.

        Each event reports ``seconds_in_state``: the time until the *next*
        event (``None`` for the last event -- the job is either still in
        that state or it is terminal).
        """
        payload = []
        for i, event in enumerate(self.timeline):
            entry = dict(event)
            entry["seconds_in_state"] = (
                _seconds_between(event, self.timeline[i + 1])
                if i + 1 < len(self.timeline)
                else None
            )
            payload.append(entry)
        return payload

    def as_dict(self, *, include_result: bool = False) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "id": self.id,
            "kind": self.kind,
            "params": self.params,
            "state": self.state,
            "key": self.key,
            "deduped_into": self.deduped_into,
            "trace_id": self.trace_id,
            "error": self.error,
            "attempts": self.attempts,
            "retry": self.retry,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "elapsed_seconds": self.elapsed_seconds,
            "timeline": self.timeline_payload(),
            "has_result": self.result is not None,
        }
        if include_result:
            payload["result"] = self.result
        return payload


class JobStore:
    """Thread-safe job map with an optional JSON-lines journal of records."""

    def __init__(self, state_path: str | Path | None = None) -> None:
        self._jobs: dict[str, Job] = {}
        self._lock = threading.RLock()
        # Notified on every transition into done or failed.
        self._settled = threading.Condition(self._lock)
        self.state_path = Path(state_path).expanduser() if state_path else None
        # A crash mid-append leaves a torn (newline-less) tail line.  Detect
        # it now so the next append terminates it first -- otherwise the new
        # record would concatenate onto the torn prefix, turning one
        # harmless crash artifact into an unparseable mid-file line.
        self._tail_torn = False
        # One unbuffered append handle, opened at the first write and closed
        # by close().
        self._journal: BinaryIO | None = None
        if self.state_path is not None and self.state_path.exists():
            self._tail_torn = self._detect_torn_tail()
            self._replay()

    def _detect_torn_tail(self) -> bool:
        try:
            with self.state_path.open("rb") as handle:
                handle.seek(0, 2)
                size = handle.tell()
                if size == 0:
                    return False
                handle.seek(size - 1)
                return handle.read(1) != b"\n"
        except OSError:
            return False

    # -- queries -------------------------------------------------------------

    def get(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise ServiceError(f"unknown job {job_id!r}", status=404) from None

    def __contains__(self, job_id: str) -> bool:
        with self._lock:
            return job_id in self._jobs

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

    def jobs(self) -> list[Job]:
        """Every job, oldest submission first."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda job: job.created_at)

    def state_counts(self) -> dict[str, int]:
        counts = dict.fromkeys(JOB_STATES, 0)
        with self._lock:
            for job in self._jobs.values():
                counts[job.state] += 1
        return counts

    def wait_terminal(self, job: Job, timeout: float) -> bool:
        """Block until ``job`` is done or failed, at most ``timeout`` seconds.

        Returns whether it is terminal.  The wait ends as soon as the
        transition lands; on expiry at least ``timeout`` seconds have passed.
        """
        with self._settled:
            return self._settled.wait_for(lambda: job.terminal, timeout)

    def wait_idle(self, timeout: float) -> bool:
        """Block until no job is queued or running, at most ``timeout`` seconds."""
        with self._settled:
            return self._settled.wait_for(
                lambda: all(job.terminal for job in self._jobs.values()), timeout
            )

    def interrupted(self) -> list[Job]:
        """Jobs a previous process left open (to be requeued on recovery)."""
        return [job for job in self.jobs() if not job.terminal]

    # -- transitions ---------------------------------------------------------

    def create(
        self,
        kind: str,
        params: dict[str, Any],
        *,
        key: str | None = None,
        deduped_into: str | None = None,
        trace_id: str | None = None,
        retry: dict[str, Any] | None = None,
    ) -> Job:
        job = Job(
            id=_new_job_id(),
            kind=kind,
            params=dict(params),
            key=key,
            deduped_into=deduped_into,
            trace_id=trace_id,
            retry=dict(retry) if retry else None,
        )
        with self._lock:
            self._jobs[job.id] = job
            self._transition(job, QUEUED)
        return job

    def mark_running(self, job: Job) -> None:
        self._transition(job, RUNNING)

    def mark_done(self, job: Job, result: Any) -> None:
        self._transition(job, DONE, result=result)

    def mark_failed(self, job: Job, error: str) -> None:
        self._transition(job, FAILED, error=error)

    def requeue(self, job: Job, *, reason: str | None = None) -> None:
        """Reset an open job to ``queued`` (restart recovery, crash retry).

        ``reason`` names why -- ``worker-crash``, ``restart-recovery``, a
        transient error class -- and rides on the requeue's record, so the
        journal and the timeline name every requeue's cause.  A requeued
        follower runs as its own primary.
        """
        self._transition(job, QUEUED, reason=reason, deduped_into=None)

    def _transition(
        self, job: Job, state: str, *, reason: str | None = None, **change: Any
    ) -> None:
        """Apply the record of ``job`` entering ``state`` and journal it.

        ``change`` overrides identity fields or carries the terminal outcome
        (``result`` or ``error``).
        """
        with self._lock:
            if state not in _TRANSITIONS[job.state]:
                raise ConfigurationError(
                    f"job {job.id} cannot move {job.state!r} -> {state!r}"
                )
            record = {name: getattr(job, name) for name in _IDENTITY}
            record.update(
                change, schema=RECORD_SCHEMA, state=state,
                wall_time=time.time(), monotonic=time.monotonic(),
            )
            if state == RUNNING:
                record["attempts"] = record["attempt"] = job.attempts + 1
            if reason is not None:
                record["reason"] = reason
            job.apply(record)
            self._persist(record)
            if job.terminal:
                self._settled.notify_all()

    # -- persistence ---------------------------------------------------------

    def _persist(self, record: dict[str, Any]) -> None:
        if self.state_path is None:
            return
        data = (json.dumps(record, sort_keys=True, default=str) + "\n").encode()
        try:
            if self._journal is None:
                self.state_path.parent.mkdir(parents=True, exist_ok=True)
                self._journal = self.state_path.open("ab", buffering=0)
            handle = self._journal
            if self._tail_torn:
                # Terminate the torn line a crash (or injected torn
                # write) left, so it stays one skippable bad line
                # instead of corrupting this record.
                handle.write(b"\n")
                self._tail_torn = False
                _METRIC_JOURNAL_TORN_REPAIRS.inc()
            if torn_write_armed(site=f"journal:{record['id']}"):
                # Chaos mode: emulate a crash mid-append by persisting
                # only a prefix of the line and "losing" the rest.
                handle.write(data[: max(1, len(data) // 2)])
                self._tail_torn = True
                return
            handle.write(data)
        except OSError:
            # Best-effort durability: an unwritable journal must not take
            # down live jobs.  Recovery for this transition is lost; the
            # metric (and repro doctor) is how anyone finds out.
            _METRIC_JOURNAL_WRITE_FAILURES.inc()

    def close(self) -> None:
        """Close the journal's append handle; a later transition reopens it."""
        with self._lock:
            if self._journal is not None:
                self._journal.close()
                self._journal = None

    def _replay(self) -> None:
        for line in self.state_path.read_text().splitlines():
            try:
                record = parse_record(line)
            except ValueError:
                continue  # a torn line, or not a job record
            job = self._jobs.get(record["id"])
            if job is None:
                job = Job(record["id"], record["kind"], record["params"])
                self._jobs[job.id] = job
            job.apply(record)


_NONE = type(None)

#: Each record field and the types the validator accepts for it; a field
#: that may be absent or null accepts ``None``.
_RECORD_TYPES: dict[str, tuple[type, ...]] = {
    "id": (str,),
    "kind": (str,),
    "params": (dict,),
    "attempts": (int,),
    "wall_time": (int, float),
    "monotonic": (int, float),
    "key": (str, _NONE),
    "deduped_into": (str, _NONE),
    "trace_id": (str, _NONE),
    "retry": (dict, _NONE),
    "attempt": (int, _NONE),
    "reason": (str, _NONE),
    "error": (str, _NONE),
}


def parse_record(line: str) -> dict[str, Any]:
    """The transition record one journal line holds.

    The one validator behind journal replay and ``repro doctor``.  Raises
    :class:`json.JSONDecodeError` for a line that is not JSON (a torn write)
    and :class:`ValueError` for JSON that is not a job record: another
    schema (a ``repro-service-job/v1`` snapshot too), an unknown state, or
    a field missing or of the wrong type.
    """
    record = json.loads(line)
    if (
        not isinstance(record, dict)
        or record.get("schema") != RECORD_SCHEMA
        or record.get("state") not in JOB_STATES
        or not all(
            isinstance(record.get(name), types)
            for name, types in _RECORD_TYPES.items()
        )
    ):
        raise ValueError("not a job record")
    return record
