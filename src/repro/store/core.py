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
appends and the manifest bytes added since its last read (each read first
reads back the last line it indexed: a replaced manifest can have the old
inode number, size and mtime).  A read takes its segments from the index
and parses only those whose run metadata and value sets can match, so a
query costs what it matches, not the store's whole history.  The
segments stay the truth: a missing, stale or torn manifest costs a
rebuild, never a wrong answer.  Every manifest writer holds an exclusive
``flock`` on it, so appends from other processes never interleave and a
compaction never drops a line appended while it ran.

Records are flat mappings of scalar columns.  Reserved columns the readers
populate: ``experiment`` (the record kind), ``scenario``, ``kernel`` and
``key`` (the runtime's content-addressed task/execution key where one
exists).  Run metadata (run ID, suite, trace ID, git revision, source
schema, ingest wall time) is stored once per segment and merged into every
record at query time.

Each handle also keeps the segments its reads parsed, in a least recently
used cache of at most :data:`SEGMENT_CACHE_BYTES` segment bytes (their size
on disk).  A segment is immutable and content-addressed, so an entry is
served while one ``os.stat`` of its file shows the inode, size and
``mtime_ns`` of the file it was parsed from; a rewritten, corrupted or
deleted segment is read again, as if never cached.  An entry is compact:
each run of consecutive records with one column tuple is one flat tuple of
values, the ``experiment``, ``kernel`` and ``scenario`` values are kept per
record, and column tuples and string values are shared across the cache.
:meth:`ResultStore.select` filters on those per-record values and builds a
fresh merged dict for each match only, so a repeated query costs its
matches, not a re-parse of the history it already read.

:class:`Frame` is the columnar (numpy-backed) view transforms operate on:
one object array per column, with a float64 ``numeric()`` accessor that
maps missing values and ``None`` to NaN so derived-metric passes are single
array expressions.
"""

from __future__ import annotations

import bisect
import contextlib
import fcntl
import functools
import hashlib
import itertools
import json
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.faults.injector import torn_write_armed
from repro.obs.metrics import REGISTRY, Counts
from repro.runtime.cache import _atomic_write

__all__ = [
    "STORE_SCHEMA",
    "RESERVED_RUN_COLUMNS",
    "RunInfo",
    "IngestReceipt",
    "ResultStore",
    "Frame",
    "git_revision",
    "manifest_drift",
    "read_segment",
    "SEGMENT_CACHE_BYTES",
]

STORE_SCHEMA = "repro-store-run/v1"

#: The manifest's file name under the store root.
MANIFEST_NAME = "manifest.jsonl"

#: Segment bytes (their size on disk) each handle keeps parsed in memory,
#: least recently used out first.  The compact form holds about as many
#: bytes in memory.
SEGMENT_CACHE_BYTES = 16 << 20

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

_METRIC_INGESTS = REGISTRY.counter(
    "repro_store_ingests_total",
    "Run ingests offered to the result store, by outcome.",
    labelnames=("outcome",),
)
# A handle's counted events (its ``stats``), and the family each also feeds.
# ``segments_read`` counts the segment files the handle's reads parsed: a
# query parses only the segments its filters can match and the handle does
# not hold in memory, and building the index parses only the segments the
# manifest has no line for.  A segment gone since the index listed it is not
# counted.  ``segments_cached`` counts the segments a query took from memory.
_EVENTS = {
    "ingests": _METRIC_INGESTS,
    "deduped": _METRIC_INGESTS,
    "records": REGISTRY.counter(
        "repro_store_records_total",
        "Records appended to the result store (deduplicated ingests excluded).",
    ),
    "segments_read": None,
    "segments_cached": None,
}
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


def read_segment(path: str | Path) -> tuple[RunInfo, list[dict[str, Any]]]:
    """Parse and validate one run segment: its metadata and raw records.

    Raises ``OSError``, ``ValueError``, ``KeyError`` or ``TypeError`` for a
    segment a reader must skip: unreadable, not JSON, another schema,
    missing run fields, or records that are not a list of objects.
    """
    with open(path, "rb") as handle:
        return _parse_segment(handle.read())


def _read_file(path: str) -> tuple[tuple[int, int, int], bytes] | None:
    """The bytes of one file and the identity (inode, size, ``mtime_ns``) of
    the file they were read from; ``None`` when it cannot be opened."""
    try:
        with open(path, "rb") as handle:
            stat = os.fstat(handle.fileno())
            return (stat.st_ino, stat.st_size, stat.st_mtime_ns), handle.read()
    except OSError:
        return None


def _parse_segment(data: bytes) -> tuple[RunInfo, list[dict[str, Any]]]:
    """:func:`read_segment` of a segment's bytes."""
    segment = json.loads(data.decode())
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


# A run of consecutive records with one column tuple: the columns, the
# record count and every record's values, one record after another.
_Block = tuple[tuple[str, ...], int, tuple[Any, ...]]
# The record columns select filters on; a segment keeps each one's values.
_RECORD_FILTERS = ("experiment", "kernel", "scenario")


class _Segment(NamedTuple):
    """One parsed segment as a handle keeps it in memory."""

    identity: tuple[int, int, int]  # inode, size, mtime_ns of the file parsed
    run: tuple[Any, ...]  # the RunInfo fields, in order
    blocks: tuple[_Block, ...]
    # Per _RECORD_FILTERS column, every record's value (None when missing).
    cells: tuple[tuple[Any, ...], ...]

    @classmethod
    def parse(cls, identity: tuple[int, int, int], data: bytes, shared: dict) -> "_Segment":
        """Compact one segment's bytes, sharing column tuples, string values
        and all-string filter columns through ``shared``; raises as
        :func:`read_segment`."""
        info, records = _parse_segment(data)

        def share(values: Iterable[Any]) -> list[Any]:
            return [shared.setdefault(v, v) if type(v) is str else v for v in values]

        blocks = []
        for columns, group in itertools.groupby(records, key=tuple):
            group = list(group)
            values = tuple(share(value for record in group for value in record.values()))
            blocks.append((shared.setdefault(columns, columns), len(group), values))
        cells = []
        for column in _RECORD_FILTERS:
            column_cells = tuple(share(record.get(column) for record in records))
            # Only tuples of strings and None compare equal exactly when
            # their values do (1 == 1.0 == True, 0.0 == -0.0).
            if all(value is None or type(value) is str for value in column_cells):
                column_cells = shared.setdefault(column_cells, column_cells)
            cells.append(column_cells)
        run = tuple(share(info.as_dict().values()))
        return cls(identity, run, tuple(blocks), tuple(cells))

    def rows(self, filters: Sequence[tuple[str, Any]] = ()) -> list[dict[str, Any]]:
        """Fresh dicts of the records whose ``(column, value)`` filters all
        hold, run metadata merged over each, in record order.

        The columns are ``experiment``, ``kernel`` and ``scenario``;
        ``scenario`` matches as a prefix, the others exactly, and a record
        without the column fails its filter.
        """
        keep: Sequence[int] = range(len(self.cells[0]))
        for column, wanted in filters:
            cells = self.cells[_RECORD_FILTERS.index(column)]
            if column == "scenario":
                keep = [
                    i for i in keep
                    if isinstance(cells[i], str) and cells[i].startswith(wanted)
                ]
            else:
                keep = [i for i in keep if cells[i] == wanted]
        meta = dict(zip(RESERVED_RUN_COLUMNS, self.run))
        rows: list[dict[str, Any]] = []
        start = first = 0
        for columns, count, values in self.blocks:
            if first == len(keep):
                break
            end = start + count
            last = bisect.bisect_left(keep, end, first)
            if last > first:
                # Each row is {**record, **meta} without ``record_count``:
                # copy a presized template and fill in the record's values.
                # Only a record holding a run column or ``record_count`` (a
                # segment written by hand) needs the merge redone.
                width = len(columns)
                template = dict.fromkeys(columns)
                template.update(meta)
                clash = len(template) != width + len(meta) or "record_count" in template
                for i in keep[first:last]:
                    offset = (i - start) * width
                    row = template.copy()
                    row.update(zip(columns, values[offset : offset + width]))
                    if clash:
                        row.update(meta)
                        row.pop("record_count", None)
                    rows.append(row)
            start, first = end, last
        return rows


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
    re-opens until the file it locked is the one at ``manifest``.  The lock
    is released explicitly, not by the close: a process forked while it is
    held (a task pool's child) keeps a copy of the descriptor, and the lock
    would live as long as that copy.
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
            fcntl.flock(fd, fcntl.LOCK_UN)
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
    guarded by a lock, and the manifest by an exclusive ``flock``.  The
    segments a handle parsed stay in its memory while their files are
    unchanged (see the module docstring); a fresh handle, such as each
    ``repro report`` process, starts with none.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        self.manifest = self.root / MANIFEST_NAME
        self.stats = Counts(_EVENTS)
        self._lock = threading.Lock()
        # The index: signature -> {run key: entry}, from the first read on
        # (None before).
        self._groups: dict[_Signature, dict[str, _Entry]] | None = None
        self._records = 0
        self._bytes = 0
        # Where the index's manifest reads stopped: the file, the offset and
        # the line that ends there.  A replacing file can reuse the inode
        # number and have the same size and mtime, so the line, read back
        # at every refresh, proves the file is the one read.
        self._inode = -1
        self._offset = 0
        self._tail = b""
        # The parsed segments, least recently used first, and their bytes.
        # ``_shared`` holds the column tuples and strings they share; it is
        # emptied whenever an entry leaves, so it holds only what the
        # entries hold.
        self._cache: OrderedDict[str, _Segment] = OrderedDict()
        self._cached_bytes = 0
        self._shared: dict[Any, Any] = {}
        self._runs = os.path.join(self.root, "runs")

    # -- writing -------------------------------------------------------------

    def _path(self, run_key: str) -> str:
        return f"{self._runs}/{run_key[:2]}/{run_key}.json"

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
        if os.path.exists(path):
            self.stats.add("deduped", outcome="deduped")
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
        _atomic_write(Path(path), data)
        line = _manifest_line(segment["run"], rows, len(data))
        with self._lock:
            self._forget(run_key)  # a segment deleted and written again
            self._append_manifest(line, run_key)
            if self._groups is not None:
                self._add(*_parse_manifest_line(line))
        self.stats.add("ingests", outcome="added")
        self.stats.add("records", len(rows))
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
        if self._groups is None or not self._read_appended():
            self._rebuild()

    def _read_appended(self) -> bool:
        """Index the lines appended since the last read; ``False`` means rebuild."""
        start = self._offset - len(self._tail)
        try:
            fd = os.open(self.manifest, os.O_RDONLY)
        except FileNotFoundError:
            return False
        try:
            stat = os.fstat(fd)
            if stat.st_ino != self._inode or stat.st_size < self._offset:
                return False
            data = os.pread(fd, stat.st_size - start, start)
        finally:
            os.close(fd)
        if not data.startswith(self._tail):
            return False  # not the file, or the line, the last read stopped at
        data = data[len(self._tail) :]
        # A line still being written waits for the next read.
        end = data.rfind(b"\n") + 1
        try:
            parsed = [_parse_manifest_line(line) for line in data[:end].split(b"\n") if line]
        except (ValueError, KeyError, TypeError):
            return False  # a torn line: the rebuild finds its segment
        for item in parsed:
            self._add(*item)
        if end:
            self._offset += end
            self._tail = data[data.rfind(b"\n", 0, end - 1) + 1 : end]
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
                read = _read_file(self._path(key))
                if read is None:
                    continue  # deleted since it was listed
                self.stats.add("segments_read")
                try:
                    info, records = _parse_segment(read[1])
                except (ValueError, KeyError, TypeError):
                    continue  # corrupt: `repro doctor` reports it
                if info.run_key != key:
                    continue  # misnamed: `repro doctor` reports it
                line = _manifest_line(info.as_dict(), records, read[0][1])
                added.append(line)
                self._add(*_parse_manifest_line(line))
            inode, content = os.fstat(fd).st_ino, data[: data.rfind(b"\n") + 1]
            try:
                if compact:
                    rewritten = b"".join(lines + added)
                    inode, content = _atomic_write(self.manifest, rewritten), rewritten
                elif added:
                    os.write(fd, b"".join(added))
                    content += b"".join(added)
            except OSError:
                pass
        self._inode, self._offset = inode, len(content)
        self._tail = content[content.rfind(b"\n", 0, len(content) - 1) + 1 :]
        # Drop the parsed segments the index no longer holds, or holds as
        # another ingest (a store cleared and the same run recorded again).
        ingested = {
            key: entry[0] for group in self._groups.values() for key, entry in group.items()
        }
        for key, segment in list(self._cache.items()):
            if ingested.get(key) != segment.run[7]:
                self._forget(key)

    # -- reading -------------------------------------------------------------

    def _segment(self, key: str) -> _Segment | None:
        """One readable segment, from memory while its file is the one
        parsed, else read, parsed and kept; ``None`` for a segment a read
        skips (vanished, or corrupt: `repro doctor` reports it)."""
        path = self._path(key)
        try:
            stat = os.stat(path)
        except OSError:
            stat = None
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                if stat is not None and cached.identity == (
                    stat.st_ino, stat.st_size, stat.st_mtime_ns
                ):
                    self._cache.move_to_end(key)
                    self.stats.add("segments_cached")
                    return cached
                self._forget(key)
            shared = self._shared
        read = _read_file(path)
        if read is None:
            return None
        identity, data = read
        if identity[1] > SEGMENT_CACHE_BYTES:
            shared = {}  # too large to keep: share nothing with the cache
        try:
            segment = _Segment.parse(identity, data, shared)
        except (ValueError, KeyError, TypeError):
            segment = None
        with self._lock:
            self.stats.add("segments_read")
            if segment is not None and identity[1] <= SEGMENT_CACHE_BYTES:
                self._forget(key)
                self._cache[key] = segment
                self._cached_bytes += identity[1]
                while self._cached_bytes > SEGMENT_CACHE_BYTES:
                    self._forget(next(iter(self._cache)))
        return segment

    def _forget(self, key: str) -> None:
        """Drop one parsed segment, if held; the caller holds ``self._lock``."""
        segment = self._cache.pop(key, None)
        if segment is not None:
            self._cached_bytes -= segment.identity[1]
            self._shared = {}

    def _segments(
        self, can_match: Callable[[_Signature], bool], run_id: str | None
    ) -> Iterator[_Segment]:
        """The readable segments whose signature ``can_match`` (and whose run
        ID is ``run_id``, if given), one at a time, oldest ingest first, then
        by run key.

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
        for _, key in matches:
            segment = self._segment(key)
            if segment is not None:
                yield segment

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
        tested against each run; the record filters are tested on each
        record's values, so only matches pay for the merge.  Only the
        segments whose run metadata and value sets can match are read, and
        only those the handle does not hold are parsed.  Every call returns
        fresh dicts.
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

        filters = [
            (column, value)
            for column, value in zip(_RECORD_FILTERS, (experiment, kernel, scenario))
            if value is not None
        ]
        rows = []
        for segment in self._segments(can_match, run_id):
            rows += segment.rows(filters)
        return rows

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
            self._cache.clear()
            self._cached_bytes, self._shared = 0, {}
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
