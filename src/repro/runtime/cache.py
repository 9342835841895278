"""Content-addressed on-disk caches for deterministic computations.

Two stores live here:

* :class:`ResultCache` -- kernel execution measurements.  Running an
  instrumented kernel is deterministic: the measured cost, peak residency and
  intensity depend only on the kernel (code and configuration), the problem
  instance and the local-memory size.  The cache exploits this by keying each
  execution on a SHA-256 digest of

  - the kernel's class, configuration and *source code* (so editing a kernel
    automatically invalidates its cached results),
  - a structural fingerprint of the problem instance (array contents
    included),
  - and the memory size.

  Cached entries store the measured numbers only -- not the numerical output
  -- so a cache hit reconstructs a :class:`~repro.kernels.base.KernelExecution`
  with ``output=None``.  Runs that need the output (``verify=True``) bypass
  the cache.

* :class:`TaskCache` -- arbitrary picklable results of
  :class:`~repro.runtime.tasks.Task` executions, keyed by the task's
  content address (callable identity, module source, parameters).  Entries
  hold the complete result object, so a hit is indistinguishable from a
  fresh run.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import json
import os
import pickle
import sys
import tempfile
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.core.model import ComputationCost
from repro.exceptions import ConfigurationError
from repro.faults.injector import maybe_inject
from repro.kernels.base import Kernel, KernelExecution
from repro.kernels.counters import PhaseRecorder
from repro.obs.metrics import REGISTRY

__all__ = [
    "MISS",
    "ResultCache",
    "TaskCache",
    "CacheStats",
    "execution_key",
    "kernel_code_version",
    "kernel_modules",
]

SCHEMA_VERSION = 1
TASK_SCHEMA_VERSION = 1

# Process-wide cache instrumentation, labelled by store ("results"/"tasks").
# The per-instance ``CacheStats`` counters remain the API callers read; the
# metric families aggregate across every instance for ``GET /metrics``.
_METRIC_HITS = REGISTRY.counter(
    "repro_cache_hits_total",
    "Cache lookups served from a readable on-disk entry.",
    labelnames=("cache",),
)
_METRIC_MISSES = REGISTRY.counter(
    "repro_cache_misses_total",
    "Cache lookups that found no (or an unreadable) entry.",
    labelnames=("cache",),
)
_METRIC_STORES = REGISTRY.counter(
    "repro_cache_stores_total",
    "Entries written to the on-disk caches.",
    labelnames=("cache",),
)
_METRIC_STORE_BYTES = REGISTRY.counter(
    "repro_cache_store_bytes_total",
    "Bytes written to the on-disk caches.",
    labelnames=("cache",),
)
_METRIC_STORE_FAILURES = REGISTRY.counter(
    "repro_cache_store_failures_total",
    "Cache entries that could not be written (disk error); the result "
    "stays correct, the key is simply a miss next time.",
    labelnames=("cache",),
)


def _fingerprint(value: Any) -> Any:
    """Reduce a problem value to a canonical, JSON-serialisable structure.

    Numpy arrays are replaced by a digest of their raw bytes so two problems
    with equal array contents produce equal fingerprints, while fingerprints
    stay small no matter how large the arrays are.
    """
    if isinstance(value, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
        return ["ndarray", value.dtype.str, list(value.shape), digest]
    if isinstance(value, (np.integer, np.floating)):
        return _fingerprint(value.item())
    if isinstance(value, complex):
        return ["complex", value.real, value.imag]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_fingerprint(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): _fingerprint(value[key]) for key in sorted(value)}
    attributes = getattr(value, "__dict__", None)
    if attributes:
        # Structured problem objects (e.g. CSRMatrix): fingerprint their
        # attributes.  The default repr embeds a memory address, which would
        # make every run a cache miss.
        return ["object", type(value).__qualname__, _fingerprint(attributes)]
    return ["repr", repr(value)]


def kernel_code_version(kernel: Kernel) -> str:
    """A digest of the kernel's implementation, for cache invalidation.

    Hashes the source of every module that defines the kernel's class or a
    ``Kernel`` base class, plus the shared instrumentation module
    (:mod:`repro.kernels.counters`).  Hashing whole modules rather than
    class bodies means edits to module-level helpers the kernel calls also
    invalidate previously cached measurements; the cost is occasional
    over-invalidation, which is the safe direction.
    """
    return _code_version_for_class(type(kernel))


def kernel_modules(kernel_class: type) -> tuple[str, ...]:
    """Modules defining a kernel class: its own, its ``Kernel`` bases' and the counters."""
    modules = {"repro.kernels.counters"}
    for klass in kernel_class.__mro__:
        if klass is not object and issubclass(klass, Kernel):
            modules.add(klass.__module__)
    return tuple(sorted(modules))


@lru_cache(maxsize=None)
def _code_version_for_class(kernel_class: type) -> str:
    hasher = hashlib.sha256()
    for module_name in kernel_modules(kernel_class):
        module = sys.modules.get(module_name)
        try:
            hasher.update(inspect.getsource(module).encode())
        except (OSError, TypeError):  # source unavailable (e.g. REPL-defined)
            hasher.update(module_name.encode())
    return hasher.hexdigest()[:16]


def execution_key(
    kernel: Kernel, memory_words: int, problem: Mapping[str, Any]
) -> str:
    """Content address of one ``kernel.execute(memory_words, **problem)`` call."""
    payload = {
        "schema": SCHEMA_VERSION,
        "kernel_class": type(kernel).__qualname__,
        "kernel_config": _fingerprint(vars(kernel)),
        "code_version": kernel_code_version(kernel),
        "memory_words": int(memory_words),
        "problem": _fingerprint(dict(problem)),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/store counters accumulated over the lifetime of a cache."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    store_failures: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "store_failures": self.store_failures,
        }


class ResultCache:
    """Content-addressed store of kernel execution measurements.

    Entries live as one small JSON file each under ``root``, sharded by the
    first byte of the key.  The cache is safe to share between processes:
    writes go through a temporary file followed by an atomic rename, and a
    corrupt or truncated entry is treated as a miss.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))

    def disk_usage_bytes(self) -> int:
        """Total size on disk of every entry (excludes unrelated files)."""
        return _disk_usage(self.root, "*/*.json")

    def key_for(
        self, kernel: Kernel, memory_words: int, problem: Mapping[str, Any]
    ) -> str:
        return execution_key(kernel, memory_words, problem)

    def load(self, key: str) -> KernelExecution | None:
        """Return the cached execution for ``key``, or ``None`` on a miss."""
        path = self._path(key)
        try:
            entry = json.loads(path.read_text())
            if entry["schema"] != SCHEMA_VERSION:
                raise ValueError(f"unsupported cache schema {entry['schema']!r}")
            execution = KernelExecution(
                kernel_name=entry["kernel_name"],
                memory_words=int(entry["memory_words"]),
                problem=entry.get("problem_summary", {}),
                output=None,
                cost=ComputationCost(
                    float(entry["compute_ops"]), float(entry["io_words"])
                ),
                peak_memory_words=int(entry["peak_memory_words"]),
                phases=PhaseRecorder(),
                from_cache=True,
            )
        except FileNotFoundError:
            self.stats.misses += 1
            _METRIC_MISSES.labels(cache="results").inc()
            return None
        except (KeyError, ValueError, TypeError, OSError):
            # Corrupt entry: drop it and treat the lookup as a miss.
            path.unlink(missing_ok=True)
            self.stats.misses += 1
            _METRIC_MISSES.labels(cache="results").inc()
            return None
        self.stats.hits += 1
        _METRIC_HITS.labels(cache="results").inc()
        return execution

    def store(self, key: str, execution: KernelExecution) -> None:
        """Persist one execution's measurements under ``key``."""
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
        data = json.dumps(entry, sort_keys=True).encode()
        try:
            _atomic_write(self._path(key), data)
        except OSError:
            # Best-effort durability: the measurement in hand is correct,
            # so a full disk must not fail the run -- the key is simply a
            # miss (and a re-measure) next time.
            self.stats.store_failures += 1
            _METRIC_STORE_FAILURES.labels(cache="results").inc()
            return
        self.stats.stores += 1
        _METRIC_STORES.labels(cache="results").inc()
        _METRIC_STORE_BYTES.labels(cache="results").inc(len(data))

    def clear(self) -> int:
        """Delete every entry; returns the number of entries removed."""
        removed = 0
        for path in self.root.glob("*/*.json"):
            path.unlink(missing_ok=True)
            removed += 1
        return removed


def _disk_usage(root: Path, pattern: str) -> int:
    total = 0
    for path in root.glob(pattern):
        try:
            total += path.stat().st_size
        except OSError:  # entry vanished between glob and stat (racing clear)
            continue
    return total


def _atomic_write(path: Path, data: bytes) -> None:
    """Publish ``data`` at ``path`` atomically (unique temp file + rename).

    Concurrent processes storing the same key each publish a complete entry,
    last writer wins; readers never observe a truncated file.

    The chaos suite's ``cache-write-failure`` fault injects an ``OSError``
    here, covering every consumer of this helper (both caches and the
    result store's segment writes) with one injection point.
    """
    maybe_inject("cache-write-failure", site=str(path))
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f"{path.stem[:8]}-", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise


class _Miss:
    """Sentinel type distinguishing a cache miss from a cached ``None``."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<cache miss>"


#: Returned by :meth:`TaskCache.load` when the key has no usable entry.
MISS = _Miss()


class TaskCache:
    """Content-addressed store of arbitrary picklable task results.

    Entries live as one pickle file each under ``root``, sharded by the first
    byte of the key, written atomically; a corrupt or truncated entry is
    treated as a miss and removed.  Unlike :class:`ResultCache`, entries hold
    the complete result object, so replayed results are bitwise identical to
    fresh ones (pickling round-trips floats and numpy arrays exactly).
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def disk_usage_bytes(self) -> int:
        """Total size on disk of every entry (excludes unrelated files)."""
        return _disk_usage(self.root, "*/*.pkl")

    def load(self, key: str) -> Any:
        """Return the cached value for ``key``, or :data:`MISS`."""
        path = self._path(key)
        try:
            entry = pickle.loads(path.read_bytes())
            if entry["schema"] != TASK_SCHEMA_VERSION:
                raise ValueError(f"unsupported task schema {entry['schema']!r}")
            value = entry["value"]
        except FileNotFoundError:
            self.stats.misses += 1
            _METRIC_MISSES.labels(cache="tasks").inc()
            return MISS
        except Exception:
            # Corrupt/unreadable entry (bad pickle, missing key, stale class
            # definition, ...): drop it and treat the lookup as a miss.
            path.unlink(missing_ok=True)
            self.stats.misses += 1
            _METRIC_MISSES.labels(cache="tasks").inc()
            return MISS
        self.stats.hits += 1
        _METRIC_HITS.labels(cache="tasks").inc()
        return value

    def store(self, key: str, value: Any, *, label: str | None = None) -> None:
        """Persist one task's result under ``key``."""
        entry = {"schema": TASK_SCHEMA_VERSION, "label": label, "value": value}
        data = pickle.dumps(entry)
        try:
            _atomic_write(self._path(key), data)
        except OSError:
            # Best-effort, as in ResultCache.store: never fail the task
            # whose result was already computed.
            self.stats.store_failures += 1
            _METRIC_STORE_FAILURES.labels(cache="tasks").inc()
            return
        self.stats.stores += 1
        _METRIC_STORES.labels(cache="tasks").inc()
        _METRIC_STORE_BYTES.labels(cache="tasks").inc(len(data))

    def clear(self) -> int:
        """Delete every entry; returns the number of entries removed."""
        removed = 0
        for path in self.root.glob("*/*.pkl"):
            path.unlink(missing_ok=True)
            removed += 1
        return removed


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
