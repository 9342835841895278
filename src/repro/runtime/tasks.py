"""Generic experiment tasks: pooled, cached execution of any computation.

A :class:`Task` is any top-level callable plus its keyword parameters,
content-addressed by :func:`task_key`, a SHA-256 digest of

* the callable's fully qualified name,
* the *source code* of its module (plus any explicitly named supporting
  modules, so editing the algorithm invalidates previously cached results),
* and a structural fingerprint of the parameters.

This is the runtime's one key scheme.  :func:`resolve_tasks` is its one
resolve loop: look up each key in a cache, run each distinct missing key
once (in this process, or on a :class:`TaskPool`), store the fresh results,
and return everything in submission order -- so serial and parallel
execution of the same batch are bitwise identical, and warm reruns replay
entirely from the cache.  Two runners call it: :class:`TaskRunner` for the
experiment drivers (Figure 2, Section 4 arrays, the pebble game, the Warp
study) against a :class:`~repro.runtime.cache.TaskCache`, and the sweep
engine (:class:`~repro.runtime.engine.SweepRunner`), whose points are tasks
over :func:`~repro.runtime.engine.run_point`, against a
:class:`~repro.runtime.cache.ResultCache`.

A parallel runner owns one :class:`TaskPool`, or shares its owner's: the
job service's runners share one, and so do a suite's two runners.  The pool
is forked at its owner's first pooled batch and reused by every later one.
Every task runs on one BLAS thread, pooled or in-process, so one task key
always names one payload.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib
import inspect
import json
import multiprocessing
import os
import signal
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Any, Callable, Mapping, Sequence

from repro.exceptions import ConfigurationError, TaskExecutionError
from repro.obs import spans as obs_spans
from repro.obs.metrics import REGISTRY
from repro.runtime.cache import MISS, EntryStore, TaskCache, _fingerprint

__all__ = [
    "Task",
    "TaskPool",
    "TaskRunner",
    "TaskRunStats",
    "task_key",
    "callable_code_version",
    "default_worker_count",
    "execute_tasks",
    "loaded_openblas",
    "openblas_threads",
    "resolve_tasks",
    "task_pool",
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
_METRIC_POOL_STARTS = REGISTRY.counter(
    "repro_task_pool_starts_total",
    "Task pools forked: a pool's first batch, and the next batch after a child died.",
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


def _one_blas_thread(*, stop_server: bool = True) -> None:
    """Run every loaded OpenBLAS on one thread.

    BLAS bits can depend on the thread count, and OpenBLAS defaults to one
    thread per CPU, so two pool children on two CPUs would also contend.  In
    a fresh pool child the setter starts OpenBLAS's thread server, whose idle
    thread busy-waits, so ``stop_server`` shuts it down again; a one-thread
    OpenBLAS never needs it.  An in-process owner leaves its server up:
    another of its threads may be inside a BLAS call.
    """
    for _, library, api in loaded_openblas():
        _c_function(library, api.format("set"), None, ctypes.c_int)(1)
        if stop_server and hasattr(library, "blas_thread_shutdown_"):
            _c_function(library, "blas_thread_shutdown_", ctypes.c_int)()


_IN_PROCESS_BLAS_SET = False
_IN_PROCESS_BLAS_LOCK = threading.Lock()


def _one_blas_thread_here() -> None:
    """Set this process's OpenBLAS to one thread, once, before its first task.

    The count is process-global, so it is never switched per task: the job
    service's workers run tasks concurrently.
    """
    global _IN_PROCESS_BLAS_SET
    if _IN_PROCESS_BLAS_SET:
        return
    with _IN_PROCESS_BLAS_LOCK:
        if not _IN_PROCESS_BLAS_SET:
            _one_blas_thread(stop_server=False)
            _IN_PROCESS_BLAS_SET = True


#: ``(pid, read end, write end)`` of the pipe pool children watch to exit
#: with the process that owns them; only that process keeps the write end.
_LIFELINE: tuple[int, int, int] | None = None
_LIFELINE_LOCK = threading.Lock()


def _lifeline() -> tuple[int, int]:
    """This process's lifeline pipe, ``(read end, write end)``, made on first use."""
    global _LIFELINE
    with _LIFELINE_LOCK:
        if _LIFELINE is None or _LIFELINE[0] != os.getpid():
            _LIFELINE = (os.getpid(), *os.pipe())
        return _LIFELINE[1], _LIFELINE[2]


def _exit_with_owner(read_end: int, write_end: int) -> None:
    """Make this pool child die with its owner, however the owner dies.

    The child closes its inherited copies of the lifeline and watches the
    pipe through a description of its own (``F_SETOWN`` is per open file
    description, and siblings share the inherited one).  When the owner's
    write end closes -- at its exit, even by ``SIGKILL`` -- the kernel sends
    ``SIGIO``, whose default action ends the child.  A worker *thread's*
    death closes nothing, so it cannot take the pool down.  Without
    ``/proc`` the child is left to the pool's own shutdown.
    """
    import fcntl  # POSIX only, and this runs only in a forked child

    try:
        watch = os.open(f"/proc/self/fd/{read_end}", os.O_RDONLY | os.O_NONBLOCK)
    except OSError:
        watch = None
    os.close(read_end)
    os.close(write_end)
    if watch is None:
        return
    signal.signal(signal.SIGIO, signal.SIG_DFL)
    fcntl.fcntl(watch, fcntl.F_SETOWN, os.getpid())
    fcntl.fcntl(watch, fcntl.F_SETFL, fcntl.fcntl(watch, fcntl.F_GETFL) | os.O_ASYNC)
    try:
        if os.read(watch, 1) == b"":  # the owner died before the watch was set
            os._exit(1)
    except BlockingIOError:  # the owner holds the write end: all is well
        pass


def _start_child(read_end: int, write_end: int) -> None:
    """Pool initializer: one BLAS thread, no inherited tracing, exit with the owner.

    A child outlives the batch it was forked for, so it must not trace into
    the span collector it inherited: each task ships its own context
    (:func:`_run_task`).
    """
    _one_blas_thread()
    obs_spans.disable()
    _exit_with_owner(read_end, write_end)


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
    the parent's :func:`~repro.obs.spans.task_context` at submission, and
    ``spans`` holds every span the child finished, for the parent to absorb
    (a ``None`` context traces nothing there: the child dropped the
    collector it inherited).  In-process ``ctx`` is ``None``, the span hangs
    under the current one and ``spans`` is empty (see
    :func:`~repro.obs.spans.capture_spans`).
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


class TaskPool:
    """One owner's long-lived process pool, forked at its first batch.

    A ``ProcessPoolExecutor`` of ``max_workers`` forked children, each
    started by :func:`_start_child`: one BLAS thread, no inherited tracing,
    and exit with the owning process.  Every runner sharing the pool feeds
    its one FIFO queue, so the job service's two workers never run more than
    ``max_workers`` children between them.

    The pool is supervised in the worker pool's idiom: a child's death
    breaks the batches in flight with ``BrokenProcessPool`` (which the job
    service retries as transient), the broken executor is dropped, and the
    next batch forks a fresh one.  ``repro_task_pool_starts_total`` counts
    every fork.  :meth:`close` joins the children; a later batch forks again.
    An owner that never calls it loses its children when the pool is
    garbage-collected or the interpreter exits, as with any
    ``ProcessPoolExecutor``.
    """

    def __init__(self, max_workers: int) -> None:
        self.max_workers = max_workers
        self._lock = threading.Lock()
        self._executor: ProcessPoolExecutor | None = None

    def _live(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    self.max_workers,
                    # Pinned: the children find the lifeline by inheritance.
                    mp_context=multiprocessing.get_context("fork"),
                    initializer=_start_child,
                    initargs=_lifeline(),
                )
                _METRIC_POOL_STARTS.inc()
            return self._executor

    def _drop(self, executor: ProcessPoolExecutor) -> None:
        """Forget a broken executor, unless another batch already replaced it."""
        with self._lock:
            if self._executor is executor:
                self._executor = None
        executor.shutdown(wait=False)

    def run(self, tasks: Sequence[Task]) -> list[Any]:
        """Run a batch on the children; results in submission order.

        The first failure in submission order wins, as in a serial run, and
        the batch's unstarted tasks are cancelled.  ``BrokenProcessPool``
        passes through unwrapped: it says nothing about the task.
        """
        executor = self._live()
        ctx = obs_spans.task_context()
        futures = []
        try:
            futures = [executor.submit(_run_task, task, ctx) for task in tasks]
            return [_collect(task, future.result) for task, future in zip(tasks, futures)]
        except BrokenProcessPool:
            self._drop(executor)
            raise
        finally:
            for future in futures:
                future.cancel()  # a no-op for finished futures

    def close(self, *, wait: bool = True) -> None:
        """Shut the children down once the work in flight is done.

        ``wait`` joins them; without it, close returns at once and the
        children exit after their last task.
        """
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait)


def task_pool(parallel: bool, max_workers: int) -> TaskPool | None:
    """A new pool for a parallel owner; ``None`` runs tasks in-process."""
    return TaskPool(max_workers) if parallel and max_workers > 1 else None


def _collect(task: Task, outcome: Callable[[], Any]) -> Any:
    """One task's value from its ``_run_task`` outcome, its spans absorbed."""
    try:
        seconds, value, finished = outcome()
    except BrokenProcessPool:
        raise
    except Exception as exc:
        raise _wrap_failure(task, exc) from exc
    obs_spans.absorb(finished)
    _METRIC_TASK_SECONDS.observe(seconds)
    return value


def execute_tasks(tasks: Sequence[Task], pool: TaskPool | None) -> list[Any]:
    """Execute tasks (no cache) on ``pool``, or in-process when ``None``.

    The execution primitive behind :func:`resolve_tasks`: results come back
    in submission order, so the output is deterministic and identical to a
    serial run.  A task that raises surfaces as
    :class:`~repro.exceptions.TaskExecutionError` naming the failing task's
    label (the original exception is chained as ``__cause__``).  A pool runs
    every batch, a one-task batch too; in-process, this process's OpenBLAS
    is set to one thread before the first task, as in a pool child.
    """
    if not tasks:
        return []
    if pool is not None:
        return pool.run(tasks)
    _one_blas_thread_here()
    return [_collect(task, partial(_run_task, task, None)) for task in tasks]


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
    tasks: Sequence[Task], cache: EntryStore | None, pool: TaskPool | None
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

    fresh = execute_tasks(unique, pool)
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
    pool:
        A parallel runner's :class:`TaskPool`, shared with its owner's other
        runners; by default a parallel runner owns a new one
        (:func:`task_pool`).

    Tasks sharing a key within a batch execute once (see
    :func:`resolve_tasks`); :attr:`stats` accumulates every batch's counters.
    """

    def __init__(
        self,
        *,
        parallel: bool = False,
        max_workers: int | None = None,
        cache: TaskCache | None = None,
        pool: TaskPool | None = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1, got {max_workers!r}"
            )
        self.parallel = parallel
        self.max_workers = max_workers or default_worker_count()
        self.cache = cache
        self.pool = pool or task_pool(parallel, self.max_workers)
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
        results, batch = resolve_tasks(tasks, self.cache, self.pool)
        with self._stats_lock:
            self.stats.executed += batch.executed
            self.stats.cache_hits += batch.cache_hits
            self.stats.deduped += batch.deduped
        return results

    def run_one(self, task: Task) -> Any:
        """Convenience: resolve a single task."""
        return self.run([task])[0]
