"""The append-only, content-addressed result store.

A :class:`ResultStore` holds *runs*: batches of flat records ingested
together from one source payload (a suite result, a sweep export, a bench
artifact, a finished service job).  Each run is one JSON segment under
``<root>/runs/``, named by a SHA-256 run key over the reader name, the run
ID and a canonical digest of the records themselves -- so re-ingesting the
same payload is a no-op dedup, while live reruns (which mint fresh run IDs
or produce different measurements) append new segments.

Segments are published with the runtime's atomic write (unique temp file +
rename), so concurrent appenders never produce a torn record and readers
never observe a partial segment; a corrupt segment is skipped on read and
reported by ``repro doctor``.

Each new segment also gets one line in ``<root>/manifest.jsonl``: its run
metadata, its size and the sets of ``kernel``, ``experiment`` and
``scenario`` values its records hold.  A handle keeps a lean in-memory index
of those lines, grouped by signature (about 300 bytes per segment).  The
index is built at the handle's first read from the manifest, reconciled
once against the segment listing (lines whose segment is gone, and torn
lines, are dropped by compacting the manifest; segments without a line are
parsed, indexed and given one), then kept current from the handle's own
appends and the manifest bytes added since its last read.  A read takes
its segments from the index and parses only those whose run metadata and
value sets can match, so a query costs what it matches, not the store's
whole history.  The segments stay the truth: a missing, stale or torn
manifest costs a rebuild, never a wrong answer.  Every manifest writer
holds an exclusive ``flock`` on it, so appends from other processes never
interleave and a compaction never drops a line appended while it ran.

Records are flat mappings of scalar columns.  Reserved columns the readers
populate: ``experiment`` (the record kind), ``scenario``, ``kernel`` and
``key`` (the runtime's content-addressed task/execution key where one
exists).  Run metadata (run ID, suite, trace ID, git revision, source
schema, ingest wall time) is stored once per segment and merged into every
record at query time.  Reads parse one segment at a time and keep only
what the caller selected (:meth:`ResultStore.select`), so a filtered query
holds its matches, not the whole history.

:class:`Frame` is the columnar (numpy-backed) view transforms operate on:
one object array per column, with a float64 ``numeric()`` accessor that
maps missing values and ``None`` to NaN so derived-metric passes are single
array expressions.
"""

from __future__ import annotations

import contextlib
import fcntl
import functools
import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.faults.injector import torn_write_armed
from repro.obs.metrics import REGISTRY
from repro.runtime.cache import _atomic_write

__all__ = [
    "STORE_SCHEMA",
    "RESERVED_RUN_COLUMNS",
    "StoreStats",
    "RunInfo",
    "IngestReceipt",
    "ResultStore",
    "Frame",
    "git_revision",
    "manifest_drift",
    "read_segment",
]

STORE_SCHEMA = "repro-store-run/v1"

#: The manifest's file name under the store root.
MANIFEST_NAME = "manifest.jsonl"

#: Record columns whose per-segment value sets the manifest keeps, so a
#: query filtering on them skips the segments that cannot match.
INDEXED_COLUMNS = ("kernel", "experiment", "scenario")

#: Run-metadata columns merged into every record at read time.  Readers must
#: not emit record columns under these names.
RESERVED_RUN_COLUMNS = (
    "run_key",
    "run_id",
    "source",
    "source_schema",
    "suite",
    "trace_id",
    "git_rev",
    "ingested_at",
)

_METRIC_RECORDS = REGISTRY.counter(
    "repro_store_records_total",
    "Records appended to the result store (deduplicated ingests excluded).",
)
_METRIC_INGESTS = REGISTRY.counter(
    "repro_store_ingests_total",
    "Run ingests offered to the result store, by outcome.",
    labelnames=("outcome",),
)
_METRIC_BYTES = REGISTRY.counter(
    "repro_store_bytes_total",
    "Bytes of run segments written to the result store.",
)

_SCALAR_TYPES = (bool, int, float, str)

# The index groups segments by signature: the run's suite plus the kernel,
# experiment and scenario value sets its records hold.  Segments with the
# same values share one signature, so a query tests each distinct signature
# once.  The index keeps each scenario value's first _SCENARIO_PREFIX
# characters only: span names such as ``task:BlockedMatrixMultiply@M=233``
# then stop making every cold job's signature unique, and a prefix filter
# still tests exactly whether it can match (see ``ResultStore.select``).
_Signature = tuple[Any, frozenset, frozenset, frozenset]
_Entry = tuple[float, int, str]  # ingested_at, record_count, run_id
_SCENARIO_PREFIX = 16


def git_revision(start: str | Path | None = None) -> str | None:
    """Best-effort current git revision, without invoking git.

    Walks up from ``start`` (default: the working directory) to the first
    ``.git`` directory and resolves ``HEAD`` through loose and packed refs.
    Returns ``None`` when there is no repository or the layout is unusual;
    run provenance is advisory, never load-bearing.
    """
    directory = Path(start or Path.cwd()).resolve()
    try:
        for candidate in (directory, *directory.parents):
            git_dir = candidate / ".git"
            if not git_dir.is_dir():
                continue
            head = (git_dir / "HEAD").read_text().strip()
            if not head.startswith("ref:"):
                return head or None
            ref = head.split(None, 1)[1]
            loose = git_dir / ref
            if loose.exists():
                return loose.read_text().strip() or None
            packed = git_dir / "packed-refs"
            if packed.exists():
                for line in packed.read_text().splitlines():
                    if line.endswith(ref) and not line.startswith(("#", "^")):
                        return line.split()[0]
            return None
    except OSError:
        return None
    return None


@functools.cache
def _process_git_revision() -> str | None:
    """:func:`git_revision` of the working directory, read once per process.

    A live process's code does not change revision, so every run it appends
    carries the value read at its first append.
    """
    return git_revision()


def _canonical_value(column: str, value: Any) -> Any:
    """Validate one record cell: scalars only, numpy scalars unwrapped."""
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        value = value.item()
    if value is None or isinstance(value, _SCALAR_TYPES):
        return value
    raise ConfigurationError(
        f"store records hold scalar columns only; column {column!r} got "
        f"{type(value).__name__} ({value!r})"
    )


def _canonical_records(records: Iterable[Mapping[str, Any]]) -> list[dict[str, Any]]:
    canonical = []
    for record in records:
        row: dict[str, Any] = {}
        for column, value in record.items():
            if column in RESERVED_RUN_COLUMNS:
                raise ConfigurationError(
                    f"record column {column!r} is reserved for run metadata"
                )
            row[str(column)] = _canonical_value(column, value)
        canonical.append(row)
    return canonical


@dataclass
class StoreStats:
    """Counters accumulated over the lifetime of a store handle.

    ``segments_read`` counts the segments the handle's reads parsed: a query
    parses only the segments its filters can match, and building the index
    parses only the segments the manifest has no line for.
    """

    ingests: int = 0
    deduped: int = 0
    records: int = 0
    segments_read: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "ingests": self.ingests,
            "deduped": self.deduped,
            "records": self.records,
            "segments_read": self.segments_read,
        }


@dataclass(frozen=True)
class RunInfo:
    """One ingested run's metadata (everything but the records)."""

    run_key: str
    run_id: str
    source: str
    source_schema: str | None
    suite: str | None
    trace_id: str | None
    git_rev: str | None
    ingested_at: float
    record_count: int

    def as_dict(self) -> dict[str, Any]:
        return {
            "run_key": self.run_key,
            "run_id": self.run_id,
            "source": self.source,
            "source_schema": self.source_schema,
            "suite": self.suite,
            "trace_id": self.trace_id,
            "git_rev": self.git_rev,
            "ingested_at": self.ingested_at,
            "record_count": self.record_count,
        }


def read_segment(path: Path) -> tuple[RunInfo, list[dict[str, Any]]]:
    """Parse and validate one run segment: its metadata and raw records.

    Raises ``OSError``, ``ValueError``, ``KeyError`` or ``TypeError`` for a
    segment a reader must skip: unreadable, not JSON, another schema,
    missing run fields, or records that are not a list of objects.
    """
    segment = json.loads(path.read_text())
    if segment["schema"] != STORE_SCHEMA:
        raise ValueError(f"unsupported store schema {segment['schema']!r}")
    meta = segment["run"]
    info = RunInfo(
        run_key=meta["run_key"],
        run_id=meta["run_id"],
        source=meta["source"],
        source_schema=meta.get("source_schema"),
        suite=meta.get("suite"),
        trace_id=meta.get("trace_id"),
        git_rev=meta.get("git_rev"),
        ingested_at=float(meta["ingested_at"]),
        record_count=int(meta["record_count"]),
    )
    records = segment["records"]
    if not isinstance(records, list):
        raise ValueError("records must be a list")
    if not all(isinstance(record, dict) for record in records):
        raise ValueError("records must be JSON objects")
    return info, records


def _manifest_line(
    run: Mapping[str, Any], records: Iterable[Mapping[str, Any]], size: int
) -> bytes:
    """One segment's manifest line: run metadata, byte size, indexed value sets."""
    values: dict[str, dict[Any, None]] = {column: {} for column in INDEXED_COLUMNS}
    for record in records:
        for column, seen in values.items():
            value = record.get(column)
            if isinstance(value, _SCALAR_TYPES):
                seen[value] = None
    line: dict[str, Any] = {"run": dict(run), "bytes": size}
    line.update((column, list(seen)) for column, seen in values.items())
    return json.dumps(line, separators=(",", ":")).encode() + b"\n"


def _parse_manifest_line(line: bytes) -> tuple[str, _Signature, _Entry, int]:
    """The run key, signature, index entry and segment size of one manifest line.

    Raises ``ValueError``, ``KeyError`` or ``TypeError`` for a torn line or
    one that is not a manifest line.
    """
    doc = json.loads(line)
    run = doc["run"]
    key, run_id, suite = run["run_key"], run["run_id"], run["suite"]
    sets = [doc[column] for column in INDEXED_COLUMNS]
    if not (
        isinstance(key, str)
        and isinstance(run_id, str)
        and (suite is None or isinstance(suite, str))
        and all(isinstance(values, list) for values in sets)
    ):
        raise TypeError("not a manifest line")
    kernels, experiments, scenarios = sets
    signature = (
        suite,
        frozenset(kernels),
        frozenset(experiments),
        frozenset(
            value[:_SCENARIO_PREFIX] if isinstance(value, str) else value
            for value in scenarios
        ),
    )
    entry = (float(run["ingested_at"]), int(run["record_count"]), run_id)
    return key, signature, entry, int(doc["bytes"])


def _listed_segments(root: Path) -> set[str]:
    """The run keys of the segments under ``root``, each in its shard directory.

    ``os.scandir`` rather than a glob: this listing is most of the cost of a
    handle's first read.
    """
    keys: set[str] = set()
    try:
        with os.scandir(root / "runs") as listing:
            shards = [(entry.name, entry.path) for entry in listing if entry.is_dir()]
    except FileNotFoundError:
        return keys
    for name, path in shards:
        with os.scandir(path) as entries:
            keys.update(
                entry.name[:-5]
                for entry in entries
                if entry.name.endswith(".json") and entry.name[:2] == name
            )
    return keys


@contextlib.contextmanager
def _locked(manifest: Path) -> Iterator[int]:
    """A descriptor on the current manifest (created if missing), locked.

    Every manifest writer holds this exclusive lock.  A compaction replaces
    the file while it holds the lock on the old one, so a writer that waited
    re-opens until the file it locked is the one at ``manifest``.
    """
    while True:
        fd = os.open(manifest, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            try:
                current = os.stat(manifest).st_ino == os.fstat(fd).st_ino
            except FileNotFoundError:
                current = False
            if current:
                yield fd
                return
        finally:
            os.close(fd)


def manifest_drift(root: str | Path) -> dict[str, int]:
    """Where the manifest under ``root`` disagrees with its segments.

    Read-only, for ``repro doctor``: counts the segments without a line,
    the lines without a segment and the torn (unparseable) lines.  Any of
    them is repaired by the next handle that reads the store.
    """
    root = Path(root)
    try:
        data = (root / MANIFEST_NAME).read_bytes()
    except FileNotFoundError:
        data = b""
    keys: set[str] = set()
    torn = 0
    for line in data.split(b"\n"):
        if not line:
            continue
        try:
            keys.add(_parse_manifest_line(line)[0])
        except (ValueError, KeyError, TypeError):
            torn += 1
    listed = _listed_segments(root)
    return {
        "manifest_lines": len(keys),
        "segments_without_lines": len(listed - keys),
        "lines_without_segments": len(keys - listed),
        "torn_lines": torn,
    }


@dataclass(frozen=True)
class IngestReceipt:
    """What one ``append_run`` call did: added a new segment, or deduped."""

    run_key: str
    run_id: str
    added: bool
    record_count: int


class ResultStore:
    """Append-only store of result runs under one directory.

    Safe to share between threads and processes: segments are immutable
    once published, publication is an atomic rename, and the run key is a
    pure function of the content -- two appenders racing on the same
    payload both publish the identical segment.  The handle's index is
    guarded by a lock, and the manifest by an exclusive ``flock``.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        self.manifest = self.root / MANIFEST_NAME
        self.stats = StoreStats()
        self._lock = threading.Lock()
        # The index: signature -> {run key: entry}, from the first read on
        # (None before).
        self._groups: dict[_Signature, dict[str, _Entry]] | None = None
        self._records = 0
        self._bytes = 0
        # Where the index's manifest reads stopped: the file and the offset.
        self._inode = -1
        self._offset = 0

    # -- writing -------------------------------------------------------------

    def _path(self, run_key: str) -> Path:
        return self.root / "runs" / run_key[:2] / f"{run_key}.json"

    def append_run(
        self,
        records: Iterable[Mapping[str, Any]],
        *,
        source: str,
        source_schema: str | None = None,
        run_id: str | None = None,
        suite: str | None = None,
        trace_id: str | None = None,
    ) -> IngestReceipt:
        """Append one run; a run already present dedups to a no-op.

        ``run_id`` defaults to a digest of the records, so payloads without
        their own run identity (bench artifacts, analytic sweeps) dedup
        purely by content.
        """
        rows = _canonical_records(records)
        blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
        records_digest = hashlib.sha256(blob.encode()).hexdigest()
        run_id = run_id or records_digest[:12]
        key_blob = json.dumps(
            {"source": source, "run_id": run_id, "records": records_digest},
            sort_keys=True,
            separators=(",", ":"),
        )
        run_key = hashlib.sha256(key_blob.encode()).hexdigest()
        path = self._path(run_key)
        if path.exists():
            self.stats.deduped += 1
            _METRIC_INGESTS.labels(outcome="deduped").inc()
            return IngestReceipt(run_key, run_id, added=False, record_count=len(rows))
        segment = {
            "schema": STORE_SCHEMA,
            "run": {
                "run_key": run_key,
                "run_id": run_id,
                "source": source,
                "source_schema": source_schema,
                "suite": suite,
                "trace_id": trace_id,
                "git_rev": _process_git_revision(),
                "ingested_at": time.time(),
                "record_count": len(rows),
            },
            "records": rows,
        }
        data = json.dumps(segment, sort_keys=True).encode()
        _atomic_write(path, data)
        line = _manifest_line(segment["run"], rows, len(data))
        with self._lock:
            self._append_manifest(line, run_key)
            if self._groups is not None:
                self._add(*_parse_manifest_line(line))
        self.stats.ingests += 1
        self.stats.records += len(rows)
        _METRIC_INGESTS.labels(outcome="added").inc()
        _METRIC_RECORDS.inc(len(rows))
        _METRIC_BYTES.inc(len(data))
        return IngestReceipt(run_key, run_id, added=True, record_count=len(rows))

    def _append_manifest(self, line: bytes, run_key: str) -> None:
        """Append one segment's line to the manifest.

        Best-effort: the segment is already published, and a handle that
        finds a segment without a line indexes it.
        """
        try:
            with _locked(self.manifest) as fd:
                size = os.fstat(fd).st_size
                if size and os.pread(fd, 1, size - 1) != b"\n":
                    # Terminate a torn line first, so it stays one bad line
                    # instead of swallowing this one.
                    line = b"\n" + line
                if torn_write_armed(site=f"manifest:{run_key}", kind="manifest-torn-write"):
                    # Chaos mode: a crash mid-append persists a prefix only.
                    line = line[: len(line) // 2]
                os.write(fd, line)
        except OSError:
            pass

    # -- the index -----------------------------------------------------------

    def _add(self, key: str, signature: _Signature, entry: _Entry, size: int) -> None:
        # A run key fixes the segment's content, so it has one signature.
        group = self._groups.setdefault(signature, {})
        if key not in group:
            group[key] = entry
            self._records += entry[1]
            self._bytes += size

    def _refresh(self) -> None:
        """Bring the index up to date; the caller holds ``self._lock``.

        The first read builds it; later reads index only the lines appended
        since, and rebuild when the manifest was replaced, removed or holds
        a torn line.
        """
        if self._groups is not None:
            try:
                stat = os.stat(self.manifest)
            except FileNotFoundError:
                stat = None
            if stat is not None and stat.st_ino == self._inode:
                if stat.st_size == self._offset:
                    return
                if stat.st_size > self._offset and self._read_appended():
                    return
        self._rebuild()

    def _read_appended(self) -> bool:
        """Index the lines appended since the last read; ``False`` means rebuild."""
        start = max(self._offset - 1, 0)
        try:
            with open(self.manifest, "rb") as handle:
                if os.fstat(handle.fileno()).st_ino != self._inode:
                    return False
                handle.seek(start)
                data = handle.read()
        except FileNotFoundError:
            return False
        if self._offset and not data.startswith(b"\n"):
            return False  # not at the line boundary the last read stopped at
        data = data[self._offset - start :]
        # A line still being written waits for the next read.
        end = data.rfind(b"\n") + 1
        try:
            parsed = [_parse_manifest_line(line) for line in data[:end].split(b"\n") if line]
        except (ValueError, KeyError, TypeError):
            return False  # a torn line: the rebuild finds its segment
        for item in parsed:
            self._add(*item)
        self._offset += end
        return True

    def _rebuild(self) -> None:
        """Index the manifest, reconciled against the segment listing.

        Runs under the manifest lock, so no line is appended meanwhile.
        Lines whose segment is gone and torn lines are dropped by compacting
        the manifest; segments without a line are parsed, indexed and given
        one.  Manifest writes are best-effort: the index is whole either way.
        """
        # Until it completes, the handle's next read rebuilds again.
        self._groups, self._records, self._bytes, self._inode = {}, 0, 0, -1
        indexed: set[str] = set()
        lines: list[bytes] = []
        with _locked(self.manifest) as fd:
            data = os.pread(fd, os.fstat(fd).st_size, 0)
            listed = _listed_segments(self.root)
            # No writer is mid-append under the lock: a tail without its
            # newline is torn.
            compact = not data.endswith(b"\n") and bool(data)
            for line in data.split(b"\n"):
                if not line:
                    continue
                try:
                    parsed = _parse_manifest_line(line)
                except (ValueError, KeyError, TypeError):
                    compact = True  # torn
                    continue
                key = parsed[0]
                if key not in listed:
                    compact = True  # its segment is gone
                elif key not in indexed:
                    indexed.add(key)
                    lines.append(line + b"\n")
                    self._add(*parsed)
            added = []
            for key in sorted(listed - indexed):
                path = self._path(key)
                segment = self._load_segment(path)
                self.stats.segments_read += 1
                if segment is None or segment[0].run_key != key:
                    continue  # unreadable or misnamed: `repro doctor` reports it
                info, records = segment
                try:
                    line = _manifest_line(info.as_dict(), records, path.stat().st_size)
                except OSError:
                    continue  # deleted since it was read
                added.append(line)
                self._add(*_parse_manifest_line(line))
            inode, offset = os.fstat(fd).st_ino, data.rfind(b"\n") + 1
            try:
                if compact:
                    content = b"".join(lines + added)
                    inode, offset = _atomic_write(self.manifest, content), len(content)
                elif added:
                    os.write(fd, b"".join(added))
                    offset = len(data) + sum(map(len, added))
            except OSError:
                pass
        self._inode, self._offset = inode, offset

    # -- reading -------------------------------------------------------------

    def _load_segment(self, path: Path) -> tuple[RunInfo, list[dict[str, Any]]] | None:
        try:
            return read_segment(path)
        except (OSError, ValueError, KeyError, TypeError):
            # Corrupt or vanished segment: skip it here; `repro doctor`
            # reports it.
            return None

    def _segments(
        self,
        can_match: Callable[[_Signature], bool] = lambda signature: True,
        run_id: str | None = None,
    ) -> Iterator[tuple[RunInfo, list[dict[str, Any]]]]:
        """The readable segments whose signature ``can_match`` (and whose run
        ID is ``run_id``, if given), parsed one at a time, oldest ingest
        first, then by run key.

        Each distinct signature is tested once, so a query that matches
        nothing costs no more on a long history.
        """
        with self._lock:
            self._refresh()
            matches = sorted(
                (ingested_at, key)
                for signature, group in self._groups.items()
                if can_match(signature)
                for key, (ingested_at, _, entry_run_id) in group.items()
                if run_id is None or entry_run_id == run_id
            )
            self.stats.segments_read += len(matches)
        for _, key in matches:
            segment = self._load_segment(self._path(key))
            if segment is not None:
                yield segment

    def runs(self) -> list[RunInfo]:
        """Every readable run's metadata, oldest ingest first."""
        return [info for info, _ in self._segments()]

    def run_records(self, run_key: str) -> list[dict[str, Any]]:
        """The merged records of one run, by its run key."""
        segment = self._load_segment(self._path(run_key))
        if segment is None:
            raise ConfigurationError(f"no readable run {run_key!r} in {self.root}")
        return self._merge(*segment)

    @staticmethod
    def _merge(
        info: RunInfo, records: Iterable[Mapping[str, Any]]
    ) -> list[dict[str, Any]]:
        """Each record with the run metadata merged over it."""
        meta = info.as_dict()
        merged = []
        for record in records:
            row = {**record, **meta}
            del row["record_count"]
            merged.append(row)
        return merged

    def select(
        self,
        *,
        experiment: str | None = None,
        scenario: str | None = None,
        kernel: str | None = None,
        suite: str | None = None,
        run_id: str | None = None,
    ) -> list[dict[str, Any]]:
        """Merged records matching every given filter, oldest run first.

        ``scenario`` matches exactly or as a prefix (so ``qr`` finds
        ``qr-small`` and ``qr-large``); the other filters are exact.
        ``suite`` and ``run_id`` are run metadata, which wins over a
        record's own column of that name when the two merge, so they are
        tested against each run; the record filters are tested on each raw
        record, so only matches pay for the merge.  Only the segments whose
        run metadata and value sets can match are parsed.
        """

        def can_match(signature: _Signature) -> bool:
            # The index holds scenario prefixes: a value starts with
            # ``scenario`` only if its prefix starts with as much of it.
            run_suite, kernels, experiments, scenarios = signature
            return (
                (suite is None or run_suite == suite)
                and (kernel is None or kernel in kernels)
                and (experiment is None or experiment in experiments)
                and (
                    scenario is None
                    or any(
                        isinstance(value, str)
                        and value.startswith(scenario[:_SCENARIO_PREFIX])
                        for value in scenarios
                    )
                )
            )

        def accepts(record: Mapping[str, Any]) -> bool:
            if experiment is not None and record.get("experiment") != experiment:
                return False
            if kernel is not None and record.get("kernel") != kernel:
                return False
            if scenario is not None:
                value = record.get("scenario")
                return isinstance(value, str) and value.startswith(scenario)
            return True

        filtered = (experiment, kernel, scenario) != (None, None, None)
        rows = []
        for info, records in self._segments(can_match, run_id):
            rows += self._merge(info, filter(accepts, records) if filtered else records)
        return rows

    def records(self) -> list[dict[str, Any]]:
        """Every record of every run, run metadata merged in, oldest first."""
        return self.select()

    def __len__(self) -> int:
        """Records in the store, as each run's metadata counts them."""
        with self._lock:
            self._refresh()
            return self._records

    def run_count(self) -> int:
        with self._lock:
            self._refresh()
            return sum(map(len, self._groups.values()))

    def disk_usage_bytes(self) -> int:
        """Total size on disk of every run segment and the manifest."""
        with self._lock:
            self._refresh()
            segment_bytes = self._bytes
        try:
            return segment_bytes + os.stat(self.manifest).st_size
        except FileNotFoundError:
            return segment_bytes

    def clear(self) -> int:
        """Delete every run segment and the manifest; returns the segments removed."""
        removed = 0
        with self._lock, _locked(self.manifest):
            for path in self.root.glob("runs/*/*.json"):
                path.unlink(missing_ok=True)
                removed += 1
            self.manifest.unlink(missing_ok=True)
            self._groups = None
        return removed


class Frame:
    """A columnar, numpy-backed view of a batch of records.

    Columns materialise lazily as object arrays; :meth:`numeric` converts a
    column to float64 with ``None``/missing/non-numeric cells mapped to
    NaN, which is what lets transforms run as single array expressions over
    heterogeneous record batches.
    """

    def __init__(self, records: Sequence[Mapping[str, Any]]) -> None:
        self._records = [dict(record) for record in records]
        columns: list[str] = []
        seen = set()
        for record in self._records:
            for column in record:
                if column not in seen:
                    seen.add(column)
                    columns.append(column)
        self.columns = tuple(columns)
        self._cache: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._records)

    def column(self, name: str) -> np.ndarray:
        """One column as an object array (missing cells are ``None``)."""
        if name not in self._cache:
            values = np.empty(len(self._records), dtype=object)
            for i, record in enumerate(self._records):
                values[i] = record.get(name)
            self._cache[name] = values
        return self._cache[name]

    def numeric(self, name: str) -> np.ndarray:
        """One column as float64; anything non-numeric becomes NaN."""
        values = self.column(name)
        out = np.full(len(values), np.nan, dtype=np.float64)
        for i, value in enumerate(values):
            if isinstance(value, bool):
                out[i] = float(value)
            elif isinstance(value, (int, float)):
                out[i] = float(value)
        return out

    def mask(self, predicate: np.ndarray) -> "Frame":
        """A new frame of the rows where ``predicate`` is true."""
        keep = np.asarray(predicate, dtype=bool)
        if keep.shape != (len(self._records),):
            raise ConfigurationError(
                f"mask of shape {keep.shape} does not match {len(self._records)} rows"
            )
        return Frame([r for r, k in zip(self._records, keep) if k])

    def where(self, **equals: Any) -> "Frame":
        """Rows whose columns equal every given value."""
        keep = np.ones(len(self._records), dtype=bool)
        for column, value in equals.items():
            keep &= np.array(
                [record.get(column) == value for record in self._records], dtype=bool
            )
        return self.mask(keep)

    def sorted_by(self, name: str) -> "Frame":
        """Rows stably sorted by one numeric column (NaN last)."""
        order = np.argsort(self.numeric(name), kind="stable")
        return Frame([self._records[i] for i in order])

    def records(self) -> list[dict[str, Any]]:
        return [dict(record) for record in self._records]
