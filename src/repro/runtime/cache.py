"""Content-addressed on-disk caches for deterministic computations.

Every cached computation is a :class:`~repro.runtime.tasks.Task`, keyed by
its :func:`~repro.runtime.tasks.task_key`: a SHA-256 digest of the
callable, the package's code version (a digest of every ``repro`` source
file, so any source edit makes every entry miss once), numpy's version, and
a structural fingerprint of the parameters (:func:`_fingerprint`, array
contents included).  A sweep point is the task ``run_point(kernel,
memory_words, scale=scale)``, or ``problem=problem`` for a fixed problem
(:func:`repro.runtime.engine.execution_key`).

The two caches are two codecs over one :class:`EntryStore`, which owns the
shard layout (``<root>/<key[:2]>/<key><suffix>``), the atomic write, the
rule that an undecodable entry is a miss and is deleted, and the
counts of its hits, misses and stores, each also fed to its
``repro_cache_*`` metric:

* :class:`ResultCache` -- sweep points, as small JSON files of measured
  numbers only.  A hit reconstructs a
  :class:`~repro.kernels.base.KernelExecution` with ``output=None``, so
  runs that need the output (``verify=True``) bypass the cache.
* :class:`TaskCache` -- any picklable task result, under ``tasks/``.
  Entries hold the complete result object, so a hit is indistinguishable
  from a fresh run.

Both ``load`` methods return :data:`MISS` when a key has no usable entry.
:func:`cache_layout` is the one place that says where each cache, and the
result store, lives under a cache root.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import tempfile
from collections.abc import Mapping
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from repro.core.model import ComputationCost
from repro.exceptions import ConfigurationError
from repro.faults.injector import maybe_inject
from repro.kernels.base import Kernel, KernelExecution
from repro.kernels.counters import PhaseRecorder
from repro.obs.metrics import REGISTRY, Counts

__all__ = [
    "MISS",
    "CacheLayout",
    "EntryStore",
    "ResultCache",
    "TaskCache",
    "cache_layout",
]

SCHEMA_VERSION = 1
TASK_SCHEMA_VERSION = 1

# Each cache's counted events (its ``stats``), and the process-wide family
# each also feeds for ``GET /metrics``, labelled by the cache's ``label``.
_EVENTS = {
    "hits": REGISTRY.counter(
        "repro_cache_hits_total",
        "Cache lookups served from a readable on-disk entry.",
        labelnames=("cache",),
    ),
    "misses": REGISTRY.counter(
        "repro_cache_misses_total",
        "Cache lookups that found no (or an unreadable) entry.",
        labelnames=("cache",),
    ),
    "stores": REGISTRY.counter(
        "repro_cache_stores_total",
        "Entries written to the on-disk caches.",
        labelnames=("cache",),
    ),
    "store_failures": REGISTRY.counter(
        "repro_cache_store_failures_total",
        "Cache entries that could not be written (disk error); the result "
        "stays correct, the key is simply a miss next time.",
        labelnames=("cache",),
    ),
}
_METRIC_STORE_BYTES = REGISTRY.counter(
    "repro_cache_store_bytes_total",
    "Bytes written to the on-disk caches.",
    labelnames=("cache",),
)


def _fingerprint(value: Any) -> Any:
    """Reduce a problem value to a canonical, JSON-serialisable structure.

    Numpy arrays are replaced by a digest of their raw bytes so two problems
    with equal array contents produce equal fingerprints, while fingerprints
    stay small no matter how large the arrays are.
    """
    # The common cases first: plain leaves, then mappings.
    if value is None or type(value) in (str, int, float, bool):
        return value
    if isinstance(value, Mapping):
        return {str(key): _fingerprint(value[key]) for key in sorted(value)}
    if isinstance(value, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
        return ["ndarray", value.dtype.str, list(value.shape), digest]
    if isinstance(value, (np.integer, np.floating)):
        return _fingerprint(value.item())
    if isinstance(value, complex):
        return ["complex", value.real, value.imag]
    if isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_fingerprint(item) for item in value]
    attributes = getattr(value, "__dict__", None)
    if attributes:
        # Structured objects (a kernel and its configuration, a CSRMatrix):
        # fingerprint their attributes.  The default repr embeds a memory
        # address, which would make every run a cache miss.
        return ["object", type(value).__qualname__, _fingerprint(attributes)]
    return ["repr", repr(value)]


class _Miss:
    """Sentinel type distinguishing a cache miss from a cached ``None``."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<cache miss>"


#: Returned by ``load`` when the key has no usable entry.
MISS = _Miss()


class EntryStore:
    """One file per key under ``root``, sharded by the key's first byte.

    Safe to share between processes: writes go through a temporary file and
    an atomic rename, and an entry :meth:`read_entry` cannot decode (corrupt,
    truncated, another schema, a stale class) is a miss and is deleted.
    Subclasses set :attr:`suffix` and :attr:`label` (the ``cache`` label of
    the ``repro_cache_*`` metrics) and supply the codec: :meth:`read_entry`
    and :meth:`_encode`.
    """

    suffix = ""
    label = ""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = Counts(_EVENTS)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}{self.suffix}"

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob(f"*/*{self.suffix}"))

    def disk_usage_bytes(self) -> int:
        """Total size on disk of every entry (excludes unrelated files)."""
        return _disk_usage(self.root, f"*/*{self.suffix}")

    @staticmethod
    def read_entry(path: Path) -> Any:
        """Decode the entry at ``path``; raises for anything undecodable."""
        raise NotImplementedError

    def _encode(self, value: Any, label: str | None) -> bytes:
        raise NotImplementedError

    def load(self, key: str) -> Any:
        """Return the cached value for ``key``, or :data:`MISS`."""
        path = self._path(key)
        try:
            value = self.read_entry(path)
        except Exception as exc:
            # Drop what the codec cannot decode (bad JSON or pickle, another
            # schema, a class that no longer exists); a missing file is a miss.
            if not isinstance(exc, FileNotFoundError):
                path.unlink(missing_ok=True)
            self.stats.add("misses", cache=self.label)
            return MISS
        self.stats.add("hits", cache=self.label)
        return value

    def store(self, key: str, value: Any, *, label: str | None = None) -> None:
        """Persist one result under ``key``."""
        data = self._encode(value, label)
        try:
            _atomic_write(self._path(key), data)
        except OSError:
            # Best-effort durability: the result in hand is correct, so a
            # full disk must not fail the run -- the key is simply a miss
            # (and a recomputation) next time.
            self.stats.add("store_failures", cache=self.label)
            return
        self.stats.add("stores", cache=self.label)
        _METRIC_STORE_BYTES.labels(cache=self.label).inc(len(data))

    def clear(self) -> int:
        """Delete every entry; returns the number of entries removed."""
        removed = 0
        for path in self.root.glob(f"*/*{self.suffix}"):
            path.unlink(missing_ok=True)
            removed += 1
        return removed


class ResultCache(EntryStore):
    """Sweep-point measurements, one small JSON file per key."""

    suffix = ".json"
    label = "results"

    def key_for(self, kernel: Kernel, memory_words: int, **recipe: Any) -> str:
        """The key the sweep engine stores this point under (``scale=`` or ``problem=``)."""
        # Imported here: the engine builds on this module.
        from repro.runtime.engine import execution_key

        return execution_key(kernel, memory_words, **recipe)

    @staticmethod
    def read_entry(path: Path) -> KernelExecution:
        entry = json.loads(path.read_text())
        if entry["schema"] != SCHEMA_VERSION:
            raise ValueError(f"unsupported cache schema {entry['schema']!r}")
        return KernelExecution(
            kernel_name=entry["kernel_name"],
            memory_words=int(entry["memory_words"]),
            problem=entry.get("problem_summary", {}),
            output=None,
            cost=ComputationCost(float(entry["compute_ops"]), float(entry["io_words"])),
            peak_memory_words=int(entry["peak_memory_words"]),
            phases=PhaseRecorder(),
            from_cache=True,
        )

    def _encode(self, execution: KernelExecution, label: str | None) -> bytes:
        if execution.output is None and not execution.from_cache:
            raise ConfigurationError(
                "refusing to cache an execution without an output; it was not "
                "produced by a real kernel run"
            )
        entry = {
            "schema": SCHEMA_VERSION,
            "kernel_name": execution.kernel_name,
            "memory_words": int(execution.memory_words),
            "problem_summary": _problem_summary(execution.problem),
            "compute_ops": float(execution.cost.compute_ops),
            "io_words": float(execution.cost.io_words),
            "peak_memory_words": int(execution.peak_memory_words),
        }
        return json.dumps(entry, sort_keys=True).encode()


class TaskCache(EntryStore):
    """Any picklable task result, one pickle file per key.

    Pickling round-trips floats and numpy arrays exactly, so replayed
    results are bitwise identical to fresh ones.
    """

    suffix = ".pkl"
    label = "tasks"

    @staticmethod
    def read_entry(path: Path) -> Any:
        entry = pickle.loads(path.read_bytes())
        if entry["schema"] != TASK_SCHEMA_VERSION:
            raise ValueError(f"unsupported task schema {entry['schema']!r}")
        return entry["value"]

    def _encode(self, value: Any, label: str | None) -> bytes:
        return pickle.dumps({"schema": TASK_SCHEMA_VERSION, "label": label, "value": value})


class CacheLayout(NamedTuple):
    """The directories of one cache root: both caches and the result store."""

    results: Path
    tasks: Path
    store: Path


def cache_layout(root: str | Path) -> CacheLayout:
    """Where a cache root keeps sweep points, task results and recorded runs.

    One ``--cache-dir`` (or ``REPRO_CACHE_DIR``) governs all three, so the
    CLI, the suite runner, the service and the doctor all read this layout.
    """
    root = Path(root).expanduser()
    return CacheLayout(results=root, tasks=root / "tasks", store=root / "store")


def _disk_usage(root: Path, pattern: str) -> int:
    total = 0
    for path in root.glob(pattern):
        try:
            total += path.stat().st_size
        except OSError:  # entry vanished between glob and stat (racing clear)
            continue
    return total


def _atomic_write(path: Path, data: bytes) -> int:
    """Publish ``data`` at ``path`` atomically (unique temp file + rename).

    Concurrent processes storing the same key each publish a complete entry,
    last writer wins; readers never observe a truncated file.  Returns the
    inode number of the published file.

    The chaos suite's ``cache-write-failure`` fault injects an ``OSError``
    here, covering every consumer of this helper (both caches and the
    result store's segment and manifest writes) with one injection point.
    The shard directory is created only when the temp file cannot be: it
    almost always exists, and creating it first costs a failing ``mkdir``.
    """
    maybe_inject("cache-write-failure", site=str(path))
    temp = {"prefix": f"{path.stem[:8]}-", "suffix": ".tmp", "dir": path.parent}
    try:
        fd, tmp_name = tempfile.mkstemp(**temp)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(**temp)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            inode = os.fstat(handle.fileno()).st_ino
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise
    return inode


def _problem_summary(problem: Mapping[str, Any]) -> dict[str, Any]:
    """A human-readable sketch of the problem, stored alongside the numbers."""
    summary: dict[str, Any] = {}
    for key, value in problem.items():
        if isinstance(value, np.ndarray):
            summary[key] = f"ndarray{tuple(value.shape)}:{value.dtype}"
        elif isinstance(value, (bool, int, float, str)) or value is None:
            summary[key] = value
        else:
            summary[key] = repr(value)
    return summary
