"""``repro doctor`` -- structured diagnostics for the service stack.

Four check groups, each producing pass/warn/fail :class:`Finding` records:

* **cache integrity** -- walk both on-disk caches (sweep-point JSON entries,
  task pickle entries) and the result store, decoding every entry with that
  cache's own ``read_entry`` (the store's ``read_segment``), so an entry
  the cache would drop as a miss fails here: truncated (zero-byte) or
  undecodable entries are failures, leftover temp files,
  misplaced/unaccounted bytes and a store manifest that disagrees with the
  segments (segments without lines, lines without segments, torn lines)
  are warnings.  The check only reads; it constructs no cache or store.
* **journal replayability** -- parse every line of the JSON-lines job
  journal with :func:`~repro.service.jobs.parse_snapshot`, the validator
  replay uses, so every line replay skips is reported: a bad *tail* line
  is a warning (the documented crash artifact a single torn append can
  leave); a mid-file line that is a truncated JSON prefix is also a
  warning (a repaired torn write -- the store terminates the torn tail
  with a newline before its next append, leaving exactly one skippable
  bad line); any other mid-file garbage is a failure.  The check
  also replays the journal through :class:`~repro.service.jobs.JobStore`
  and reports terminal vs. interrupted jobs.
* **job progress** -- replay the journal and flag open jobs that look
  stuck: queued/running for longer than ``--max-job-age`` is a warning
  (the service may just be busy), an attempt count past the job's recorded
  retry budget without a terminal state is a failure (the retry machinery
  lost track of it).
* **worker liveness** -- against a running service (``host``/``port``),
  check ``GET /healthz`` answers, reports ``ok`` and has its worker threads
  alive.
* **span buffer** -- when span collection is enabled in this process, the
  ring buffer's dropped-span counter: any evictions are a warning, because
  ``GET /trace/{id}`` may then return partial trees for older jobs.
* **environment sanity** -- numpy importable (with version), the CPU
  affinity mask vs. ``os.cpu_count()`` and the requested ``--jobs``
  (oversubscribing an affinity-restricted container is the classic silent
  slow-job cause), and each loaded OpenBLAS with its thread count here,
  against the one thread a pool child runs.

This module sits *above* the runtime and service layers (it imports both),
so it is intentionally **not** re-exported from ``repro.obs``; import it as
``from repro.obs import doctor``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.analysis.report import Table

__all__ = [
    "Finding",
    "DoctorReport",
    "run_doctor",
    "check_cache_integrity",
    "check_journal",
    "check_jobs",
    "check_service",
    "check_spans",
    "check_environment",
    "PASS",
    "WARN",
    "FAIL",
]

#: Default age (seconds) past which an open job counts as stuck.
DEFAULT_MAX_JOB_AGE = 300.0

DOCTOR_SCHEMA = "repro-doctor/v1"

PASS = "pass"
WARN = "warn"
FAIL = "fail"
_SEVERITY = {PASS: 0, WARN: 1, FAIL: 2}


@dataclass(frozen=True)
class Finding:
    """One diagnostic observation: a check name, a verdict and the evidence."""

    check: str
    status: str
    detail: str
    data: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "check": self.check,
            "status": self.status,
            "detail": self.detail,
            "data": self.data,
        }


@dataclass
class DoctorReport:
    """Every finding from one doctor run, plus the aggregate verdict."""

    findings: list[Finding]

    @property
    def status(self) -> str:
        worst = PASS
        for finding in self.findings:
            if _SEVERITY[finding.status] > _SEVERITY[worst]:
                worst = finding.status
        return worst

    @property
    def ok(self) -> bool:
        """True when no finding failed (warnings are tolerated)."""
        return self.status != FAIL

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def as_dict(self) -> dict[str, Any]:
        counts = {status: 0 for status in (PASS, WARN, FAIL)}
        for finding in self.findings:
            counts[finding.status] += 1
        return {
            "schema": DOCTOR_SCHEMA,
            "status": self.status,
            "counts": counts,
            "findings": [finding.as_dict() for finding in self.findings],
        }

    def table(self) -> Table:
        table = Table(
            columns=("check", "status", "detail"),
            title=f"repro doctor: {self.status}",
        )
        for finding in self.findings:
            table.add_row(finding.check, finding.status.upper(), finding.detail)
        return table


# ---------------------------------------------------------------------------
# Cache integrity.
# ---------------------------------------------------------------------------


def _scan_entries(root: Path, suffix: str, loader) -> dict[str, Any]:
    """Walk one cache store's shard layout; classify every entry."""
    entries = corrupt = truncated = misplaced = 0
    accounted_bytes = 0
    bad_paths: list[str] = []
    for path in sorted(root.glob(f"*/*{suffix}")):
        entries += 1
        try:
            size = path.stat().st_size
        except OSError:  # racing a concurrent clear
            continue
        accounted_bytes += size
        if path.stem[:2] != path.parent.name:
            misplaced += 1
            bad_paths.append(str(path))
            continue
        if size == 0:
            truncated += 1
            bad_paths.append(str(path))
            continue
        try:
            loader(path)
        except Exception:  # noqa: BLE001 - any unreadable entry is corrupt
            corrupt += 1
            bad_paths.append(str(path))
    return {
        "entries": entries,
        "corrupt": corrupt,
        "truncated": truncated,
        "misplaced": misplaced,
        "accounted_bytes": accounted_bytes,
        "bad_paths": bad_paths[:20],  # enough to act on, bounded in --json
    }


def _load_store_segment(path: Path) -> None:
    """Flag every segment the store's reads skip, and count mismatches."""
    from repro.store.core import read_segment

    info, records = read_segment(path)
    if info.record_count != len(records):
        raise ValueError(
            f"store segment {path} declares {info.record_count} records, "
            f"holds {len(records)}"
        )


def check_cache_integrity(cache_dir: str | Path | None) -> list[Finding]:
    """Integrity findings for both stores under one cache root."""
    if cache_dir is None:
        return [
            Finding(
                "cache", WARN, "no cache directory configured; skipping",
            )
        ]
    root = Path(cache_dir).expanduser()
    if not root.exists():
        return [
            Finding(
                "cache",
                WARN,
                f"cache directory {root} does not exist yet",
                {"cache_dir": str(root)},
            )
        ]

    from repro.runtime.cache import ResultCache, TaskCache, cache_layout
    from repro.store.core import MANIFEST_NAME, manifest_drift

    # Each cache's own decoder: an entry the cache would drop as a miss
    # fails here too.  Nothing is constructed, so the doctor only reads.
    findings = []
    accounted = 0
    layout = cache_layout(root)
    stores = (
        (
            "cache.results", layout.results, ResultCache.suffix,
            ResultCache.read_entry, (layout.tasks, layout.store),
        ),
        ("cache.tasks", layout.tasks, TaskCache.suffix, TaskCache.read_entry, ()),
        ("cache.store", layout.store / "runs", ".json", _load_store_segment, ()),
    )
    for check, store_root, suffix, loader, exclude in stores:
        if not store_root.exists():
            label = {"cache.store": "result"}.get(check, store_root.name or "results")
            findings.append(Finding(check, PASS, f"no {label} store yet"))
            continue
        scan = _scan_entries(store_root, suffix, loader)
        accounted += scan["accounted_bytes"]
        broken = scan["corrupt"] + scan["truncated"]
        drift = 0
        if check == "cache.store":
            scan.update(manifest_drift(layout.store))
            drift = sum(
                scan[name]
                for name in ("segments_without_lines", "lines_without_segments", "torn_lines")
            )
        if broken:
            findings.append(
                Finding(
                    check,
                    FAIL,
                    f"{broken} of {scan['entries']} entries unreadable "
                    f"({scan['corrupt']} corrupt, {scan['truncated']} "
                    "truncated); the cache treats these as misses and drops "
                    "them on next lookup, or `repro cache clear` resets",
                    scan,
                )
            )
        elif scan["misplaced"]:
            findings.append(
                Finding(
                    check,
                    WARN,
                    f"{scan['misplaced']} entries outside their shard "
                    "directory (never looked up; wasted disk)",
                    scan,
                )
            )
        elif drift:
            findings.append(
                Finding(
                    check,
                    WARN,
                    f"manifest disagrees with the segments: "
                    f"{scan['segments_without_lines']} segments without lines, "
                    f"{scan['lines_without_segments']} lines without segments, "
                    f"{scan['torn_lines']} torn lines; the next store read "
                    "rebuilds it from the segments",
                    scan,
                )
            )
        else:
            findings.append(
                Finding(
                    check,
                    PASS,
                    f"{scan['entries']} entries readable "
                    f"({scan['accounted_bytes']} bytes)",
                    scan,
                )
            )
        # Orphaned temp files: a crashed writer's leftovers.  Scoped per
        # store so results/ does not double-report tasks/ leftovers.
        tmp_files = [
            path
            for path in store_root.rglob("*.tmp")
            if not any(path.is_relative_to(nested) for nested in exclude)
        ]
        if tmp_files:
            findings.append(
                Finding(
                    f"{check}.orphans",
                    WARN,
                    f"{len(tmp_files)} leftover temp files from interrupted "
                    "writes; safe to delete",
                    {"paths": [str(path) for path in tmp_files[:20]]},
                )
            )

    # Unaccounted bytes: whatever lives under the root that is no store's
    # entry (stray files, orphans).  The scans glob exactly what each
    # store's disk_usage_bytes() counts, the store's manifest included.
    manifest = layout.store / MANIFEST_NAME
    if manifest.is_file():
        accounted += manifest.stat().st_size
    total_bytes = sum(
        path.stat().st_size for path in root.rglob("*") if path.is_file()
    )
    unaccounted = total_bytes - accounted
    if unaccounted > 0:
        findings.append(
            Finding(
                "cache.disk",
                WARN,
                f"{unaccounted} of {total_bytes} bytes under {root} are not "
                "cache entries (stray or temp files)",
                {"total_bytes": total_bytes, "accounted_bytes": accounted},
            )
        )
    else:
        findings.append(
            Finding(
                "cache.disk",
                PASS,
                f"disk usage fully accounted: {accounted} bytes",
                {"total_bytes": total_bytes, "accounted_bytes": accounted},
            )
        )
    return findings


# ---------------------------------------------------------------------------
# Journal replayability.
# ---------------------------------------------------------------------------


def check_journal(state_path: str | Path | None) -> list[Finding]:
    """Findings for the JSON-lines job journal."""
    if state_path is None:
        return [Finding("journal", WARN, "no journal configured; skipping")]
    path = Path(state_path).expanduser()
    if not path.exists():
        return [
            Finding(
                "journal",
                WARN,
                f"journal {path} does not exist yet",
                {"state_path": str(path)},
            )
        ]

    from repro.service.jobs import JobStore, parse_snapshot

    lines = path.read_text().splitlines()
    bad_lines: list[int] = []
    torn_lines: list[int] = []
    parsed = 0
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            parse_snapshot(line)  # the validator replay uses
        except json.JSONDecodeError:
            # A truncated snapshot *prefix* is the repaired-torn-write
            # artifact: the store newline-terminates a torn tail before
            # its next append, so the partial line ends up mid-file but
            # still recognisably snapshot-shaped.  Arbitrary garbage that
            # never looked like a snapshot is a different (worse) story.
            if line.lstrip().startswith('{"'):
                torn_lines.append(number)
            else:
                bad_lines.append(number)
            continue
        except ValueError:
            bad_lines.append(number)
            continue
        parsed += 1

    data: dict[str, Any] = {
        "state_path": str(path),
        "lines": len(lines),
        "parsed": parsed,
        "bad_lines": bad_lines[:20],
        "torn_lines": torn_lines[:20],
    }
    findings = []
    all_bad = sorted(bad_lines + torn_lines)
    tail_is_bad = bool(all_bad) and all_bad[-1] == len(lines)
    mid_file_bad = [n for n in bad_lines if n != len(lines)]
    mid_file_torn = [n for n in torn_lines if n != len(lines)]
    if mid_file_bad:
        findings.append(
            Finding(
                "journal",
                FAIL,
                f"{len(mid_file_bad)} unparseable lines in the middle of the "
                "journal (replay skips them; job history is incomplete)",
                data,
            )
        )
    elif mid_file_torn:
        findings.append(
            Finding(
                "journal",
                WARN,
                f"{len(mid_file_torn)} torn-write artifacts (truncated "
                "snapshot lines, newline-terminated by the store's tail "
                "repair); replay skips them, later snapshots of the same "
                "jobs carry the state",
                data,
            )
        )
    elif tail_is_bad:
        findings.append(
            Finding(
                "journal",
                WARN,
                "truncated tail line (a writer was interrupted mid-append); "
                "replay skips it safely",
                data,
            )
        )
    else:
        findings.append(
            Finding(
                "journal",
                PASS,
                f"all {parsed} snapshot lines parse",
                data,
            )
        )

    # Replay through the real store so the check proves recoverability, not
    # just syntax.
    store = JobStore(path)
    counts = store.state_counts()
    interrupted = len(store.interrupted())
    replay_data = {"jobs": len(store), "states": counts}
    if interrupted:
        findings.append(
            Finding(
                "journal.replay",
                WARN,
                f"{len(store)} jobs recovered; {interrupted} were left open "
                "and will requeue on service restart (or fail there, once "
                "their retry budget is spent)",
                replay_data,
            )
        )
    else:
        findings.append(
            Finding(
                "journal.replay",
                PASS,
                f"{len(store)} jobs recovered, all terminal",
                replay_data,
            )
        )
    return findings


# ---------------------------------------------------------------------------
# Job progress: stuck and budget-exceeded jobs.
# ---------------------------------------------------------------------------


def check_jobs(
    state_path: str | Path | None, *, max_job_age: float = DEFAULT_MAX_JOB_AGE
) -> list[Finding]:
    """Findings about open jobs that have stopped making progress.

    Age is measured from a job's *last* state transition (wall stamp on the
    final timeline event), not its creation: a job legitimately retried two
    minutes ago is younger than one untouched since submission.
    """
    if state_path is None:
        return [Finding("jobs", WARN, "no journal configured; skipping")]
    path = Path(state_path).expanduser()
    if not path.exists():
        return [
            Finding(
                "jobs",
                WARN,
                f"journal {path} does not exist yet",
                {"state_path": str(path)},
            )
        ]

    import time

    from repro.service.jobs import JobStore
    from repro.service.scheduler import retry_policy

    store = JobStore(path)
    now = time.time()
    stuck: list[dict[str, Any]] = []
    over_budget: list[dict[str, Any]] = []
    open_jobs = 0
    for job in store.jobs():
        if job.terminal:
            continue
        open_jobs += 1
        last_stamp = job.created_at
        if job.timeline:
            last_stamp = float(job.timeline[-1].get("wall_time") or last_stamp)
        age = now - last_stamp
        policy = retry_policy(job)
        if job.attempts > policy.max_attempts:
            over_budget.append(
                {
                    "id": job.id,
                    "state": job.state,
                    "attempts": job.attempts,
                    "max_attempts": policy.max_attempts,
                }
            )
        elif age > max_job_age:
            stuck.append(
                {
                    "id": job.id,
                    "state": job.state,
                    "attempts": job.attempts,
                    "age_seconds": round(age, 1),
                }
            )

    data = {
        "state_path": str(path),
        "open_jobs": open_jobs,
        "max_job_age": max_job_age,
        "stuck": stuck[:20],
        "over_budget": over_budget[:20],
    }
    if over_budget:
        return [
            Finding(
                "jobs.progress",
                FAIL,
                f"{len(over_budget)} open jobs exceeded their retry budget "
                "without reaching a terminal state; the retry machinery "
                "lost them (report the bug; restarting the service settles "
                "them, failing interrupted jobs past their budget)",
                data,
            )
        ]
    if stuck:
        return [
            Finding(
                "jobs.progress",
                WARN,
                f"{len(stuck)} open jobs without a state transition for "
                f"more than {max_job_age:.0f}s; the service may be "
                "saturated, dead, or the jobs genuinely long",
                data,
            )
        ]
    return [
        Finding(
            "jobs.progress",
            PASS,
            (
                f"{open_jobs} open jobs all progressing"
                if open_jobs
                else "no open jobs"
            ),
            data,
        )
    ]


# ---------------------------------------------------------------------------
# Worker liveness.
# ---------------------------------------------------------------------------


def check_service(host: str, port: int, *, timeout: float = 5.0) -> list[Finding]:
    """Findings against a running service's ``/healthz``."""
    from repro.exceptions import ServiceError
    from repro.service.client import ServiceClient

    client = ServiceClient(host, port, timeout=timeout)
    try:
        health = client.health()
    except ServiceError as exc:
        return [
            Finding(
                "service",
                FAIL,
                f"no service answering at {host}:{port}: {exc}",
                {"host": host, "port": port},
            )
        ]
    findings = [
        Finding(
            "service",
            PASS,
            f"service at {host}:{port} is healthy "
            f"(uptime {health.get('uptime_seconds', 0.0):.0f}s)",
            {"health": health},
        )
    ]
    if not health.get("workers_running", False):
        findings.append(
            Finding(
                "service.workers",
                FAIL,
                "service is reachable but its worker threads are not "
                "running; queued jobs will never execute",
                {"health": health},
            )
        )
    else:
        queue_depth = health.get("queue_depth", 0)
        status = WARN if queue_depth > 100 else PASS
        findings.append(
            Finding(
                "service.workers",
                status,
                f"{health.get('workers', '?')} workers running, "
                f"queue depth {queue_depth}",
                {"queue_depth": queue_depth},
            )
        )
    return findings


# ---------------------------------------------------------------------------
# Span buffer sanity.
# ---------------------------------------------------------------------------


def check_spans() -> list[Finding]:
    """Findings about this process's span ring buffer.

    Only meaningful inside a process that collects spans (the service, or a
    CLI run with tracing on); a plain ``repro doctor`` invocation reports
    the disabled state as a pass rather than pretending to have inspected a
    buffer that does not exist.
    """
    from repro.obs import spans as obs_spans

    if not obs_spans.enabled():
        return [
            Finding(
                "spans",
                PASS,
                "span collection not enabled in this process",
                {"enabled": False},
            )
        ]
    stats = obs_spans.stats()
    if stats.get("dropped", 0) > 0:
        return [
            Finding(
                "spans",
                WARN,
                f"{stats['dropped']} spans evicted from the ring buffer "
                f"(capacity {stats.get('capacity')}); GET /trace/{{id}} may "
                "return partial trees for older jobs -- raise the capacity "
                "or export traces sooner",
                stats,
            )
        ]
    return [
        Finding(
            "spans",
            PASS,
            f"{stats.get('spans', 0)} of {stats.get('capacity', 0)} buffer "
            "slots in use, no spans dropped",
            stats,
        )
    ]


# ---------------------------------------------------------------------------
# Environment sanity.
# ---------------------------------------------------------------------------


def check_environment(jobs: int | None = None) -> list[Finding]:
    """Findings about the interpreter environment and CPU affinity."""
    import os
    import platform

    from repro.runtime.tasks import openblas_threads, worker_count_source

    findings = []
    try:
        import numpy
    except ImportError as exc:  # pragma: no cover - numpy is a hard dep
        findings.append(Finding("env.numpy", FAIL, f"numpy unavailable: {exc}"))
    else:
        findings.append(
            Finding(
                "env.numpy",
                PASS,
                f"numpy {numpy.__version__} on python "
                f"{platform.python_version()}",
                {"numpy": numpy.__version__},
            )
        )

    # The worker count is only an *affinity* figure when it actually came
    # from the scheduling mask; on platforms without ``sched_getaffinity``
    # it is just ``os.cpu_count()`` and must not be reported as a container
    # or cgroup limit.
    workers, source = worker_count_source()
    cpus = os.cpu_count() or 1
    from_mask = source == "sched_getaffinity"
    label = f"{workers}-CPU affinity mask" if from_mask else f"{workers}-CPU count"
    data = {
        "worker_count": workers,
        "worker_count_source": source,
        "os_cpu_count": cpus,
        "jobs": jobs,
    }
    if jobs is not None and jobs > workers:
        findings.append(
            Finding(
                "env.affinity",
                WARN,
                f"--jobs {jobs} oversubscribes the {label}; worker "
                "processes will contend",
                data,
            )
        )
    elif from_mask and workers < cpus:
        findings.append(
            Finding(
                "env.affinity",
                WARN,
                f"affinity mask allows {workers} of {cpus} CPUs (container "
                "or cgroup limit); default pool size follows the mask",
                data,
            )
        )
    else:
        findings.append(
            Finding(
                "env.affinity",
                PASS,
                f"{workers} CPUs available to the worker pool "
                f"(via {source})",
                data,
            )
        )

    # The lookup the runtime uses to run every task on one BLAS thread.
    threads = openblas_threads()
    if threads:
        libraries = ", ".join(
            f"{name} runs {count} threads" for name, count in threads.items()
        )
        detail = (
            f"{libraries} in this process; every task runs on 1 thread, "
            f"serial runs included, on a {label}"
        )
    else:
        detail = "no OpenBLAS loaded; BLAS threads are left as they are"
    findings.append(
        Finding(
            "env.blas",
            PASS,
            detail,
            {"openblas_threads": threads, "task_threads": 1 if threads else None},
        )
    )
    return findings


# ---------------------------------------------------------------------------
# The aggregate run.
# ---------------------------------------------------------------------------


def run_doctor(
    *,
    cache_dir: str | Path | None = None,
    state_path: str | Path | None = None,
    host: str | None = None,
    port: int | None = None,
    jobs: int | None = None,
    max_job_age: float = DEFAULT_MAX_JOB_AGE,
) -> DoctorReport:
    """Run every applicable check; the liveness probe needs ``port``."""
    findings: list[Finding] = []
    findings.extend(check_cache_integrity(cache_dir))
    findings.extend(check_journal(state_path))
    findings.extend(check_jobs(state_path, max_job_age=max_job_age))
    if port is not None:
        findings.extend(check_service(host or "127.0.0.1", port))
    findings.extend(check_spans())
    findings.extend(check_environment(jobs))
    return DoctorReport(findings)
