"""Generic experiment tasks: pooled, cached execution of any computation.

A :class:`Task` is any top-level callable plus its keyword parameters,
content-addressed by :func:`task_key`, a SHA-256 digest of

* the callable's fully qualified name,
* the *source code* of its module (plus any explicitly named supporting
  modules, so editing the algorithm invalidates previously cached results),
* and a structural fingerprint of the parameters.

This is the runtime's one key scheme.  :func:`resolve_tasks` is its one
resolve loop: look up each key in a cache, run each distinct missing key
once (serially or across a ``concurrent.futures`` process pool), store the
fresh results, and return everything in submission order -- so serial and
parallel execution of the same batch are bitwise identical, and warm reruns
replay entirely from the cache.  Two runners call it: :class:`TaskRunner`
for the experiment drivers (Figure 2, Section 4 arrays, the pebble game, the
Warp study) against a :class:`~repro.runtime.cache.TaskCache`, and the sweep
engine (:class:`~repro.runtime.engine.SweepRunner`), whose points are tasks
over :func:`~repro.runtime.engine.run_point`, against a
:class:`~repro.runtime.cache.ResultCache`.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib
import inspect
import json
import os
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Mapping, Sequence

from repro.exceptions import ConfigurationError, TaskExecutionError
from repro.obs import spans as obs_spans
from repro.obs.metrics import REGISTRY
from repro.runtime.cache import MISS, EntryStore, TaskCache, _fingerprint

__all__ = [
    "Task",
    "TaskRunner",
    "TaskRunStats",
    "task_key",
    "callable_code_version",
    "default_worker_count",
    "execute_tasks",
    "loaded_openblas",
    "openblas_threads",
    "resolve_tasks",
]

TASK_KEY_SCHEMA = 1

# Process-wide task-runtime instrumentation for ``GET /metrics``.  Wall time
# is measured around ``task.run()`` itself -- inside the worker process when
# pooled -- so the histogram reports task cost, not pool-queueing delay.
_METRIC_EXECUTED = REGISTRY.counter(
    "repro_tasks_executed_total", "Tasks actually executed (cache misses)."
)
_METRIC_CACHE_HITS = REGISTRY.counter(
    "repro_tasks_cache_hits_total", "Tasks replayed from the task cache."
)
_METRIC_DEDUPED = REGISTRY.counter(
    "repro_tasks_deduped_total",
    "Tasks resolved by an identical task earlier in the same batch.",
)
_METRIC_TASK_SECONDS = REGISTRY.histogram(
    "repro_task_seconds", "Wall time of one executed task."
)


def worker_count_source() -> tuple[int, str]:
    """Default worker count plus the name of the source that provided it.

    Returns ``(count, "sched_getaffinity")`` when the scheduling affinity
    mask was consulted, ``(count, "os.cpu_count")`` on platforms without
    ``os.sched_getaffinity`` (macOS, Windows) or when querying the mask
    fails.  Diagnostics (``repro doctor``) report the source: a count that
    came from ``os.cpu_count`` says nothing about container or cgroup CPU
    limits, so presenting it as an affinity mask would be misleading.
    """
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1, "sched_getaffinity"
        except OSError:  # pragma: no cover - platform-specific failure
            pass
    return os.cpu_count() or 1, "os.cpu_count"


def default_worker_count() -> int:
    """Worker processes to use when the caller does not say.

    Prefers the scheduling affinity mask over the raw core count: in
    affinity-restricted containers (CI runners, cgroup-limited jobs)
    ``os.cpu_count()`` reports the host's cores and oversubscribes the pool.
    """
    return worker_count_source()[0]


#: Name templates of OpenBLAS's thread-count entry points, in the order they
#: are tried: the scipy-openblas wheels' ILP64 names, plain ILP64, plain.
_OPENBLAS_THREAD_API = (
    "scipy_openblas_{}_num_threads64_",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)


def loaded_openblas() -> list[tuple[str, ctypes.CDLL, str]]:
    """Each OpenBLAS mapped into this process: ``(path, library, api)``.

    ``api`` is the first template of :data:`_OPENBLAS_THREAD_API` the library
    exports.  Empty where ``/proc`` is missing or no OpenBLAS is loaded.
    """
    try:
        with open("/proc/self/maps") as maps:
            # Only a line's pathname, its sixth field, can name a library.
            paths = {
                line.split(maxsplit=5)[5].strip()
                for line in maps
                if "openblas" in line.lower()
            }
    except OSError:
        return []
    found = []
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:  # mapped but no longer openable (e.g. deleted)
            continue
        for api in _OPENBLAS_THREAD_API:
            if hasattr(library, api.format("set")):
                found.append((path, library, api))
                break
    return found


def _c_function(library: ctypes.CDLL, name: str, restype: Any, *argtypes: Any) -> Any:
    """``library``'s function ``name``, with its C prototype declared."""
    function = getattr(library, name)
    function.restype, function.argtypes = restype, argtypes
    return function


def openblas_threads() -> dict[str, int]:
    """Thread count of each loaded OpenBLAS, by library file name."""
    return {
        os.path.basename(path): _c_function(library, api.format("get"), ctypes.c_int)()
        for path, library, api in loaded_openblas()
    }


def _one_blas_thread() -> None:
    """Pool initializer: run every loaded OpenBLAS on one thread.

    A forked child inherits OpenBLAS's default of one thread per CPU, so two
    children on two CPUs would contend.  In a fresh child the setter also
    starts OpenBLAS's thread server, whose idle thread busy-waits, so the
    server is shut down again; a one-thread OpenBLAS never needs it.
    """
    for _, library, api in loaded_openblas():
        _c_function(library, api.format("set"), None, ctypes.c_int)(1)
        if hasattr(library, "blas_thread_shutdown_"):
            _c_function(library, "blas_thread_shutdown_", ctypes.c_int)()


@lru_cache(maxsize=None)
def _module_source_digest(module_name: str) -> str:
    """Digest of one module's source (the name itself when unavailable)."""
    module = sys.modules.get(module_name)
    if module is None:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
    try:
        source = inspect.getsource(module)
    except (OSError, TypeError):  # source unavailable (REPL, frozen, missing)
        source = module_name
    return hashlib.sha256(source.encode()).hexdigest()


def callable_code_version(
    fn: Callable[..., Any], modules: Sequence[str] = ()
) -> str:
    """A digest of a callable's implementation, for cache invalidation.

    Hashes the source of the module defining ``fn`` plus any explicitly named
    supporting modules.  Hashing whole modules rather than function bodies
    means edits to helpers the callable uses also invalidate cached results;
    the cost is occasional over-invalidation, which is the safe direction.
    """
    return _code_version(fn.__module__, tuple(modules))


@lru_cache(maxsize=None)
def _code_version(module: str, modules: tuple[str, ...]) -> str:
    """Digest of one module set (memoized: every key of a set shares it)."""
    hasher = hashlib.sha256()
    for name in sorted({module, *modules}):
        hasher.update(name.encode())
        hasher.update(_module_source_digest(name).encode())
    return hasher.hexdigest()[:16]


def task_key(
    fn: Callable[..., Any],
    params: Mapping[str, Any],
    modules: Sequence[str] = (),
) -> str:
    """Content address of one ``fn(**params)`` call."""
    payload = {
        "schema": TASK_KEY_SCHEMA,
        "callable": f"{fn.__module__}.{fn.__qualname__}",
        "code_version": callable_code_version(fn, modules),
        "params": _fingerprint(dict(params)),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class Task:
    """One deterministic computation: a picklable callable plus parameters.

    ``fn`` must be an importable top-level function (process pools pickle it
    by reference) and must be deterministic in its parameters -- the cache
    replays previous results under the assumption that equal keys mean equal
    values.  ``modules`` names additional modules whose source participates
    in the cache key, for callables whose real algorithm lives elsewhere
    (e.g. an experiment driver delegating to ``repro.pebble.game``).
    """

    fn: Callable[..., Any]
    params: Mapping[str, Any] = field(default_factory=dict)
    name: str | None = None
    modules: tuple[str, ...] = ()
    _key: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not callable(self.fn):
            raise ConfigurationError(f"task fn must be callable, got {self.fn!r}")
        qualname = getattr(self.fn, "__qualname__", "")
        if "<locals>" in qualname or "<lambda>" in qualname:
            raise ConfigurationError(
                f"task fn must be a top-level function (picklable by "
                f"reference), got {qualname!r}"
            )
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "modules", tuple(self.modules))

    @property
    def label(self) -> str:
        return self.name or f"{self.fn.__module__}.{self.fn.__qualname__}"

    def key(self) -> str:
        """The task's content address (stable across processes and runs).

        Computed on the first call and kept on the task, so resolving a
        batch and reporting its keys hash the parameters once.
        """
        if self._key is None:
            object.__setattr__(
                self, "_key", task_key(self.fn, self.params, self.modules)
            )
        return self._key

    def run(self) -> Any:
        """Execute the task in the current process."""
        return self.fn(**self.params)


def _run_task(
    task: Task, ctx: obs_spans.SpanParent | None
) -> tuple[float, Any, list[dict[str, Any]]]:
    """Worker entry point (top-level, picklable): ``(seconds, value, spans)``.

    The duration is measured here, in the executing process, so the parent's
    ``repro_task_seconds`` histogram reports true task wall time even when
    the task ran in a pool child.  The task runs under a ``kind="task"``
    span (engine phases aggregate beneath it).  In a pool child ``ctx`` is
    the parent's :func:`~repro.obs.spans.task_context`, and ``spans`` holds
    every span the child finished, for the parent to absorb; in-process
    ``ctx`` is ``None``, the span hangs under the current one and ``spans``
    is empty (see :func:`~repro.obs.spans.capture_spans`).
    """
    start = time.perf_counter()
    with obs_spans.capture_spans(
        ctx, f"task:{task.label}", kind="task", attributes={"key": task.key()}
    ) as captured:
        value = task.run()
    return time.perf_counter() - start, value, captured.spans


def _wrap_failure(task: Task, exc: BaseException) -> TaskExecutionError:
    return TaskExecutionError(
        f"task {task.label!r} failed: {type(exc).__name__}: {exc}",
        label=task.label,
    )


def execute_tasks(
    tasks: Sequence[Task], *, parallel: bool, max_workers: int
) -> list[Any]:
    """Execute tasks (no cache), preserving submission order.

    The pool primitive behind :func:`resolve_tasks`: results are collected
    back in submission order, so the output is deterministic and identical
    to a serial run.  A task that raises surfaces as
    :class:`~repro.exceptions.TaskExecutionError` naming the failing task's
    label (the original exception is chained as ``__cause__``); in a
    parallel batch the first failure *in submission order* wins, matching
    the serial path.  Pool children run OpenBLAS on one thread each
    (:func:`_one_blas_thread`); a serial batch keeps this process's threads.
    """
    if not tasks:
        return []
    if not parallel or max_workers == 1 or len(tasks) == 1:
        results = []
        for task in tasks:
            try:
                seconds, value, _ = _run_task(task, None)
            except Exception as exc:
                raise _wrap_failure(task, exc) from exc
            _METRIC_TASK_SECONDS.observe(seconds)
            results.append(value)
        return results
    ctx = obs_spans.task_context()
    workers = min(max_workers, len(tasks))
    with ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread) as pool:
        futures = [pool.submit(_run_task, task, ctx) for task in tasks]
        results = []
        for task, future in zip(tasks, futures):
            try:
                seconds, value, finished = future.result()
            except Exception as exc:
                raise _wrap_failure(task, exc) from exc
            obs_spans.absorb(finished)
            _METRIC_TASK_SECONDS.observe(seconds)
            results.append(value)
        return results


@dataclass
class TaskRunStats:
    """Counters of resolved tasks: one batch's, or a runner's lifetime total.

    ``deduped`` counts tasks that were *not* executed because an identical
    task (same content-addressed key) appeared earlier in the same batch;
    the job-service scheduler reads these counters to prove that N identical
    submissions ran the underlying work once.
    """

    executed: int = 0
    cache_hits: int = 0
    deduped: int = 0

    @property
    def resolved(self) -> int:
        return self.executed + self.cache_hits + self.deduped

    def as_dict(self) -> dict[str, int]:
        return {
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "deduped": self.deduped,
        }


def resolve_tasks(
    tasks: Sequence[Task],
    cache: EntryStore | None,
    *,
    parallel: bool,
    max_workers: int,
) -> tuple[list[Any], TaskRunStats]:
    """Resolve a batch in submission order: ``(results, batch counters)``.

    Each task's key is looked up in ``cache``; of the misses, the first task
    with a given key executes and later ones observe its result (safe
    because equal keys mean equal code and parameters, and tasks must be
    deterministic -- the assumption the cache replays results under); fresh
    results are stored back.
    """
    results: list[Any] = [None] * len(tasks)
    stats = TaskRunStats()
    pending: list[tuple[int, Task]] = []
    for i, task in enumerate(tasks):
        if cache is not None:
            hit = cache.load(task.key())
            if hit is not MISS:
                results[i] = hit
                stats.cache_hits += 1
                continue
        pending.append((i, task))

    unique: list[Task] = []
    slots: dict[str, list[int]] = {}
    for i, task in pending:
        key = task.key()
        if key in slots:
            slots[key].append(i)
            stats.deduped += 1
            continue
        slots[key] = [i]
        unique.append(task)

    fresh = execute_tasks(unique, parallel=parallel, max_workers=max_workers)
    stats.executed = len(unique)
    _METRIC_CACHE_HITS.inc(stats.cache_hits)
    _METRIC_DEDUPED.inc(stats.deduped)
    _METRIC_EXECUTED.inc(stats.executed)
    for task, value in zip(unique, fresh):
        for i in slots[task.key()]:
            results[i] = value
        if cache is not None:
            cache.store(task.key(), value, label=task.label)
    return results, stats


class TaskRunner:
    """Executes task batches serially or across a process pool, with caching.

    Parameters
    ----------
    parallel:
        Fan cache-missing tasks out across a process pool.  Results come
        back in submission order either way.
    max_workers:
        Pool size; defaults to the scheduling-affinity core count.
    cache:
        Optional :class:`~repro.runtime.cache.TaskCache`.  Tasks whose key is
        present are replayed without executing anything; fresh results are
        stored back.

    Tasks sharing a key within a batch execute once (see
    :func:`resolve_tasks`); :attr:`stats` accumulates every batch's counters.
    """

    def __init__(
        self,
        *,
        parallel: bool = False,
        max_workers: int | None = None,
        cache: TaskCache | None = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1, got {max_workers!r}"
            )
        self.parallel = parallel
        self.max_workers = max_workers or default_worker_count()
        self.cache = cache
        self.stats = TaskRunStats()
        # One runner may be shared by several threads (the job service's
        # worker pool); counter updates are read-modify-write and need a lock.
        self._stats_lock = threading.Lock()

    def run(self, tasks: Sequence[Task]) -> list[Any]:
        """Resolve every task, via the cache where possible, in order."""
        if not obs_spans.enabled():
            return self._run_batch(tasks)
        with obs_spans.span(
            "tasks.run", kind="runtime", attributes={"tasks": len(tasks)}
        ) as batch_span:
            results = self._run_batch(tasks)
            # Runner-lifetime counters, not batch counters: enough to tell
            # "replayed from cache" from "recomputed" for a slow batch.
            batch_span.set(
                executed_total=self.stats.executed,
                cache_hits_total=self.stats.cache_hits,
                deduped_total=self.stats.deduped,
            )
            return results

    def _run_batch(self, tasks: Sequence[Task]) -> list[Any]:
        results, batch = resolve_tasks(
            tasks, self.cache, parallel=self.parallel, max_workers=self.max_workers
        )
        with self._stats_lock:
            self.stats.executed += batch.executed
            self.stats.cache_hits += batch.cache_hits
            self.stats.deduped += batch.deduped
        return results

    def run_one(self, task: Task) -> Any:
        """Convenience: resolve a single task."""
        return self.run([task])[0]
