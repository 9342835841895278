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

import functools
import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from repro.exceptions import ConfigurationError
from repro.obs.metrics import REGISTRY
from repro.runtime.cache import _atomic_write, _disk_usage

__all__ = [
    "STORE_SCHEMA",
    "RESERVED_RUN_COLUMNS",
    "StoreStats",
    "RunInfo",
    "IngestReceipt",
    "ResultStore",
    "Frame",
    "git_revision",
    "read_segment",
]

STORE_SCHEMA = "repro-store-run/v1"

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

_T = TypeVar("_T")


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
    """Ingest counters accumulated over the lifetime of a store handle."""

    ingests: int = 0
    deduped: int = 0
    records: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "ingests": self.ingests,
            "deduped": self.deduped,
            "records": self.records,
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


def _oldest_first(runs: list[tuple[RunInfo, _T]]) -> list[_T]:
    """The values of ``(info, value)`` pairs, ordered by ingest time then run key."""
    runs.sort(key=lambda pair: (pair[0].ingested_at, pair[0].run_key))
    return [value for _, value in runs]


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
    payload both publish the identical segment.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = StoreStats()

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
        self.stats.ingests += 1
        self.stats.records += len(rows)
        _METRIC_INGESTS.labels(outcome="added").inc()
        _METRIC_RECORDS.inc(len(rows))
        _METRIC_BYTES.inc(len(data))
        return IngestReceipt(run_key, run_id, added=True, record_count=len(rows))

    # -- reading -------------------------------------------------------------

    def _load_segment(self, path: Path) -> tuple[RunInfo, list[dict[str, Any]]] | None:
        try:
            return read_segment(path)
        except (OSError, ValueError, KeyError, TypeError):
            # Corrupt or vanished segment: skip it here; `repro doctor`
            # reports it.
            return None

    def _segments(self) -> Iterator[tuple[RunInfo, list[dict[str, Any]]]]:
        """Every readable segment, parsed one at a time, in directory order."""
        for path in self.root.glob("runs/*/*.json"):
            segment = self._load_segment(path)
            if segment is not None:
                yield segment

    def runs(self) -> list[RunInfo]:
        """Every run's metadata, oldest ingest first."""
        return _oldest_first([(info, info) for info, _ in self._segments()])

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
        run: Callable[[RunInfo], bool] | None = None,
        record: Callable[[Mapping[str, Any]], bool] | None = None,
    ) -> list[dict[str, Any]]:
        """Merged records that pass both predicates, oldest run first.

        ``run`` sees each run's metadata and ``record`` each *raw* record,
        before run metadata is merged in -- so a record column that run
        metadata overrides (``suite``, ``run_id``, ...) must be tested
        through ``run``.  Only accepted records are merged, and each
        segment is dropped once read.  ``None`` accepts everything.
        """
        runs = []
        for info, records in self._segments():
            if run is not None and not run(info):
                continue
            rows = self._merge(info, records if record is None else filter(record, records))
            if rows:
                runs.append((info, rows))
        return [row for rows in _oldest_first(runs) for row in rows]

    def records(self) -> list[dict[str, Any]]:
        """Every record of every run, run metadata merged in, oldest first."""
        return self.select()

    def __len__(self) -> int:
        return sum(info.record_count for info in self.runs())

    def run_count(self) -> int:
        return sum(1 for _ in self.root.glob("runs/*/*.json"))

    def disk_usage_bytes(self) -> int:
        """Total size on disk of every run segment."""
        return _disk_usage(self.root, "runs/*/*.json")

    def clear(self) -> int:
        """Delete every run segment; returns the number removed."""
        removed = 0
        for path in self.root.glob("runs/*/*.json"):
            path.unlink(missing_ok=True)
            removed += 1
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
