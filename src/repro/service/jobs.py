"""The job model and store behind the ``repro.service`` layer.

A :class:`Job` is one unit of service work -- a kernel sweep, an experiment
driver, or a whole scenario suite -- moving through the state machine

    queued -> running -> done | failed

with one extra edge, ``queued -> done``/``queued -> failed``: a submission
that the scheduler deduplicated against an identical in-flight job never
runs itself, it observes the primary's outcome directly.

The :class:`JobStore` is a thread-safe in-memory map with optional JSON-lines
persistence: every state transition appends one self-contained snapshot line
to the state file, and a restarted service replays the file to recover
terminal jobs (results included) and requeue the ones that were interrupted.
Appends are single ``write`` calls of one line, so a crash can at worst leave
one truncated line at the tail, which replay skips.  Every terminal
transition notifies one condition variable, so a caller can block until a
job settles (:meth:`JobStore.wait_terminal`, behind the result long-poll)
or until nothing is open (:meth:`JobStore.wait_idle`, behind drain).

Every state transition is stamped twice -- wall clock (``time.time``, for
humans and cross-process ordering) and monotonic (``time.monotonic``, for
durations immune to clock steps) -- into the job's ``timeline``.  The
timeline answers "why was this job slow" from ``GET /jobs/{id}``: how long
it sat queued, how long it ran, when it was requeued after a crash.  Old
journals written before timelines existed replay gracefully: a best-effort
timeline is reconstructed from the persisted ``created_at`` /
``started_at`` / ``finished_at`` wall stamps with ``monotonic=None``, and
duration computation falls back accordingly.
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
    "MAX_TIMELINE_EVENTS",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "parse_snapshot",
]

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
JOB_STATES = (QUEUED, RUNNING, DONE, FAILED)

#: Legal state-machine edges; anything else is a programming error.
_TRANSITIONS = {
    QUEUED: {RUNNING, DONE, FAILED},
    RUNNING: {DONE, FAILED},
    DONE: set(),
    FAILED: set(),
}

STATE_SCHEMA = "repro-service-job/v1"

#: Upper bound on per-job timeline events.  A job riding the retry path for
#: hours would otherwise grow its timeline (and every journal snapshot, which
#: embeds it whole) without bound; older transitions are compacted away and
#: counted in ``Job.truncated_transitions`` instead.
MAX_TIMELINE_EVENTS = 40

#: Journal appends that could not be written (disk full, permissions).  The
#: journal is best-effort durable: a failed append degrades recovery, never
#: a live job, and the metric is how operators find out.
_METRIC_JOURNAL_WRITE_FAILURES = REGISTRY.counter(
    "repro_journal_write_failures_total",
    "Journal snapshot appends that failed with an I/O error.",
)
_METRIC_JOURNAL_TORN_REPAIRS = REGISTRY.counter(
    "repro_journal_torn_tail_repairs_total",
    "Torn journal tail lines terminated before appending new snapshots.",
)


def _new_job_id() -> str:
    return uuid.uuid4().hex[:12]


def _timeline_event(state: str, **extra: Any) -> dict[str, Any]:
    """One timeline entry: the state entered plus both clock stamps.

    ``extra`` carries transition context -- ``attempt`` on ``running``
    events, ``reason`` on requeues -- and rides along in the journal.
    """
    event = {
        "state": state,
        "wall_time": time.time(),
        "monotonic": time.monotonic(),
    }
    event.update({key: value for key, value in extra.items() if value is not None})
    return event


def _seconds_between(earlier: dict[str, Any], later: dict[str, Any]) -> float | None:
    """Duration between two timeline events, preferring monotonic stamps.

    Monotonic differences are only meaningful within one process; a requeue
    after a restart pairs an old process's stamp with a new one, which can
    even be negative.  Such pairs (and events replayed from pre-timeline
    journals with ``monotonic=None``) fall back to wall-clock differences,
    and to ``None`` when not even those are available.
    """
    for clock in ("monotonic", "wall_time"):
        first, second = earlier.get(clock), later.get(clock)
        if first is not None and second is not None and second >= first:
            return second - first
    return None


def _replayed_timeline(fields: dict[str, Any]) -> list[dict[str, Any]]:
    """Reconstruct raw timeline events from one persisted snapshot.

    Persisted timelines carry the derived ``seconds_in_state`` field, which
    must not survive replay (it is recomputed from whatever events follow).
    Journals written before timelines existed have no ``timeline`` at all;
    for those, synthesize events from the coarse per-job wall stamps with
    ``monotonic=None`` -- the backfill path the duration computation
    degrades around.
    """
    persisted = fields.get("timeline")
    if isinstance(persisted, list) and persisted:
        events = []
        for event in persisted:
            if isinstance(event, dict) and "state" in event:
                replayed = {
                    "state": event["state"],
                    "wall_time": event.get("wall_time"),
                    "monotonic": event.get("monotonic"),
                }
                for extra in ("attempt", "reason"):
                    if event.get(extra) is not None:
                        replayed[extra] = event[extra]
                events.append(replayed)
        if events:
            return events
    events = []
    state = fields.get("state", QUEUED)
    created, started = fields.get("created_at"), fields.get("started_at")
    finished = fields.get("finished_at")
    if created is not None:
        events.append({"state": QUEUED, "wall_time": created, "monotonic": None})
    if started is not None:
        events.append({"state": RUNNING, "wall_time": started, "monotonic": None})
    if finished is not None and state in (DONE, FAILED):
        events.append({"state": state, "wall_time": finished, "monotonic": None})
    return events


@dataclass
class Job:
    """One service job and its full observable history."""

    id: str
    kind: str
    params: dict[str, Any]
    state: str = QUEUED
    key: str | None = None
    deduped_into: str | None = None
    trace_id: str | None = None
    result: Any = None
    error: str | None = None
    created_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    timeline: list[dict[str, Any]] = field(default_factory=list)
    #: Timeline events dropped by compaction (see ``MAX_TIMELINE_EVENTS``).
    truncated_transitions: int = 0
    #: Execution attempts started (each ``queued -> running`` transition).
    attempts: int = 0
    #: The retry policy the job was admitted under, as a plain dict so it
    #: journals verbatim (see :mod:`repro.service.retry`).
    retry: dict[str, Any] | None = None

    @property
    def terminal(self) -> bool:
        return self.state in (DONE, FAILED)

    @property
    def elapsed_seconds(self) -> float | None:
        """Wall-clock from submission to completion (``None`` while open)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.created_at

    def record_event(self, state: str, **extra: Any) -> None:
        """Append one stamped state-transition event to the timeline.

        The timeline is compacted to the most recent
        :data:`MAX_TIMELINE_EVENTS` entries -- the recent history is what
        answers "why is this job slow", while a long-retrying job's full
        churn would bloat every journal snapshot.  Dropped events are
        counted in :attr:`truncated_transitions` (journaled, so the count
        survives replay).
        """
        self.timeline.append(_timeline_event(state, **extra))
        overflow = len(self.timeline) - MAX_TIMELINE_EVENTS
        if overflow > 0:
            del self.timeline[:overflow]
            self.truncated_transitions += overflow

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
            "truncated_transitions": self.truncated_transitions,
            "has_result": self.result is not None,
        }
        if include_result:
            payload["result"] = self.result
        return payload


class JobStore:
    """Thread-safe job map with optional JSON-lines snapshot persistence."""

    def __init__(self, state_path: str | Path | None = None) -> None:
        self._jobs: dict[str, Job] = {}
        self._lock = threading.RLock()
        # Notified on every transition into done or failed.
        self._settled = threading.Condition(self._lock)
        self.state_path = Path(state_path).expanduser() if state_path else None
        # A crash mid-append leaves a torn (newline-less) tail line.  Detect
        # it now so the next append terminates it first -- otherwise the new
        # snapshot would concatenate onto the torn prefix, turning one
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
        job.record_event(QUEUED)
        with self._lock:
            self._jobs[job.id] = job
            self._persist(job)
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
        transient error class -- and is stamped on the timeline event, so
        the journal records every requeue with its cause.
        """
        with self._lock:
            if job.terminal:
                raise ConfigurationError(
                    f"job {job.id} is {job.state}; only open jobs requeue"
                )
            job.state = QUEUED
            job.started_at = None
            job.deduped_into = None
            job.record_event(QUEUED, reason=reason)
            self._persist(job)

    def _transition(
        self, job: Job, state: str, *, result: Any = None, error: str | None = None
    ) -> None:
        with self._lock:
            if state not in _TRANSITIONS[job.state]:
                raise ConfigurationError(
                    f"job {job.id} cannot move {job.state!r} -> {state!r}"
                )
            job.state = state
            extra: dict[str, Any] = {}
            if state == RUNNING:
                job.started_at = time.time()
                job.attempts += 1
                extra["attempt"] = job.attempts
            else:
                job.finished_at = time.time()
                job.result = result
                job.error = error
            job.record_event(state, **extra)
            self._persist(job)
            if job.terminal:
                self._settled.notify_all()

    # -- persistence ---------------------------------------------------------

    def _persist(self, job: Job) -> None:
        if self.state_path is None:
            return
        snapshot = {"schema": STATE_SCHEMA, "job": job.as_dict(include_result=True)}
        line = json.dumps(snapshot, sort_keys=True, default=str) + "\n"
        data = line.encode()
        try:
            if self._journal is None:
                self.state_path.parent.mkdir(parents=True, exist_ok=True)
                self._journal = self.state_path.open("ab", buffering=0)
            handle = self._journal
            if self._tail_torn:
                # Terminate the torn line a crash (or injected torn
                # write) left, so it stays one skippable bad line
                # instead of corrupting this snapshot.
                handle.write(b"\n")
                self._tail_torn = False
                _METRIC_JOURNAL_TORN_REPAIRS.inc()
            if torn_write_armed(site=f"journal:{job.id}"):
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
            if not line.strip():
                continue
            try:
                job = parse_snapshot(line)
            except ValueError:
                continue  # a torn tail line, or not a replayable snapshot
            self._jobs[job.id] = job  # later snapshots win


#: Optional snapshot fields and the types replay accepts for them.
_SNAPSHOT_FIELD_TYPES: dict[str, type | tuple[type, ...]] = {
    "params": dict,
    "retry": dict,
    "attempts": int,
    "truncated_transitions": int,
    "created_at": (int, float),
    "started_at": (int, float),
    "finished_at": (int, float),
}


def parse_snapshot(line: str) -> Job:
    """The job one journal line snapshots.

    The one validator behind journal replay and ``repro doctor``.  Raises
    :class:`json.JSONDecodeError` for a line that is not JSON (a torn write)
    and :class:`ValueError` for JSON that is not a replayable job snapshot:
    another schema, no job object, no string ``id``/``kind``, an unknown
    state, or a field of the wrong type.
    """
    snapshot = json.loads(line)
    fields = snapshot.get("job") if isinstance(snapshot, dict) else None
    if (
        not isinstance(fields, dict)
        or snapshot.get("schema") != STATE_SCHEMA
        or not isinstance(fields.get("id"), str)
        or not isinstance(fields.get("kind"), str)
        or fields.get("state", QUEUED) not in JOB_STATES
        or any(
            fields.get(name) is not None and not isinstance(fields[name], types)
            for name, types in _SNAPSHOT_FIELD_TYPES.items()
        )
    ):
        raise ValueError("not a job snapshot")
    return Job(
        id=fields["id"],
        kind=fields["kind"],
        params=fields.get("params") or {},
        state=fields.get("state", QUEUED),
        key=fields.get("key"),
        deduped_into=fields.get("deduped_into"),
        trace_id=fields.get("trace_id"),
        result=fields.get("result"),
        error=fields.get("error"),
        created_at=fields.get("created_at") or time.time(),
        started_at=fields.get("started_at"),
        finished_at=fields.get("finished_at"),
        timeline=_replayed_timeline(fields),
        truncated_transitions=fields.get("truncated_transitions") or 0,
        attempts=fields.get("attempts") or 0,
        retry=fields.get("retry") or None,
    )
