"""Parallel, cached execution of memory sweeps: the sweep client of the task runtime.

A :class:`SweepRunner` flattens any number of sweeps (one kernel x one
problem x a memory grid) into one batch of *points*.  A point is the task
``run_point(kernel, memory_words, problem)`` with the kernel's modules named
(:func:`point_task`), so its content address is that task's key
(:func:`execution_key`), and the batch goes through the runtime's one
resolve loop, :func:`~repro.runtime.tasks.resolve_tasks`, against a
:class:`~repro.runtime.cache.ResultCache`.  Results come back in
deterministic order, so serial and parallel runs are bitwise identical, and
every sweep result carries the keys its points were resolved under.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Mapping, Sequence

from repro.analysis.sweep import MemorySweepResult, normalize_memory_sizes
from repro.exceptions import ConfigurationError
from repro.kernels.base import Kernel, KernelExecution
from repro.obs import spans as obs_spans
from repro.runtime.cache import ResultCache
from repro.runtime.tasks import Task, TaskPool, default_worker_count, resolve_tasks, task_pool

__all__ = ["SweepPlan", "SweepRunner", "execution_key", "kernel_modules", "point_task"]


@lru_cache(maxsize=None)
def kernel_modules(kernel_class: type) -> tuple[str, ...]:
    """Modules defining a kernel class: its own, its ``Kernel`` bases' and the counters."""
    modules = {"repro.kernels.counters"}
    for klass in kernel_class.__mro__:
        if klass is not object and issubclass(klass, Kernel):
            modules.add(klass.__module__)
    return tuple(sorted(modules))


def run_point(
    kernel: Kernel, memory_words: int, problem: Mapping[str, Any]
) -> KernelExecution:
    """Task entry for one sweep point (picklable, top-level)."""
    return kernel.execute(memory_words, **problem)


def point_task(
    kernel: Kernel, memory_words: int, problem: Mapping[str, Any]
) -> Task:
    """The task that runs ``kernel.execute(memory_words, **problem)``."""
    return Task(
        fn=run_point,
        params={"kernel": kernel, "memory_words": memory_words, "problem": problem},
        name=f"{kernel.name}@M={memory_words}",
        modules=kernel_modules(type(kernel)),
    )


def execution_key(
    kernel: Kernel, memory_words: int, problem: Mapping[str, Any]
) -> str:
    """Content address of one ``kernel.execute(memory_words, **problem)`` call."""
    return point_task(kernel, memory_words, problem).key()


@dataclass(frozen=True)
class SweepPlan:
    """One kernel swept over a memory grid, on a fixed or scaled problem.

    Exactly one of ``problem`` (a fixed problem instance, as for
    :meth:`MemorySweep.run`) and ``scale`` (the kernel's default problem at
    that scale, as for :meth:`MemorySweep.run_default`) must be provided.
    """

    kernel: Kernel
    memory_sizes: tuple[int, ...]
    problem: Mapping[str, Any] | None = None
    scale: int | None = None

    def __post_init__(self) -> None:
        if (self.problem is None) == (self.scale is None):
            raise ConfigurationError(
                "a SweepPlan needs exactly one of `problem` and `scale`, got "
                f"problem={self.problem!r}, scale={self.scale!r}"
            )
        object.__setattr__(
            self, "memory_sizes", normalize_memory_sizes(self.memory_sizes)
        )

    @property
    def problem_ignores_memory(self) -> bool:
        """True when every memory size runs the same problem: a fixed one, or
        the problem of a kernel that keeps the base
        :meth:`Kernel.problem_for_memory` (the grid kernels scale theirs with M).
        """
        return (
            self.problem is not None
            or type(self.kernel).problem_for_memory is Kernel.problem_for_memory
        )

    def problem_at(self, memory_words: int) -> dict[str, Any]:
        """The problem instance for one memory size of this sweep."""
        if self.problem is not None:
            return dict(self.problem)
        return self.kernel.problem_for_memory(memory_words, self.scale)


class SweepRunner:
    """Executes sweep plans serially or across a process pool, with caching.

    Parameters
    ----------
    parallel:
        Fan kernel executions out across a process pool.  Results are
        collected back in submission order, so the output is deterministic
        and identical to a serial run.
    max_workers:
        Pool size; defaults to the CPUs in the scheduling affinity mask
        (:func:`~repro.runtime.tasks.default_worker_count`).
    cache:
        Optional :class:`ResultCache`.  Points whose key is present are
        replayed without executing anything; fresh executions are stored
        back.  Ignored when ``verify`` is set (verification needs the
        numerical output, which cached entries do not carry).
    verify:
        Check every execution's output against the kernel's reference
        implementation, as in :class:`MemorySweep`.
    pool:
        A parallel runner's :class:`~repro.runtime.tasks.TaskPool`, shared
        with its owner's other runners; by default a parallel runner owns a
        new one, which :func:`~repro.runtime.suites.task_runner_for` shares.
    """

    def __init__(
        self,
        *,
        parallel: bool = False,
        max_workers: int | None = None,
        cache: ResultCache | None = None,
        verify: bool = False,
        pool: TaskPool | None = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1, got {max_workers!r}"
            )
        self.parallel = parallel
        self.max_workers = max_workers or default_worker_count()
        self.cache = cache
        self.verify = verify
        self.pool = pool or task_pool(parallel, self.max_workers)

    # -- public API ----------------------------------------------------------

    def run(
        self, kernel: Kernel, memory_sizes: Sequence[int], **problem: Any
    ) -> MemorySweepResult:
        """Sweep one kernel over ``memory_sizes`` on a fixed problem."""
        plan = SweepPlan(
            kernel=kernel, memory_sizes=tuple(memory_sizes), problem=problem
        )
        return self.run_plans([plan])[0]

    def run_default(
        self, kernel: Kernel, memory_sizes: Sequence[int], scale: int
    ) -> MemorySweepResult:
        """Sweep one kernel on its default problem at the given scale."""
        plan = SweepPlan(
            kernel=kernel, memory_sizes=tuple(memory_sizes), scale=scale
        )
        return self.run_plans([plan])[0]

    def run_plans(self, plans: Sequence[SweepPlan]) -> list[MemorySweepResult]:
        """Execute any number of sweeps as one flat batch of points.

        All points from all plans share the worker pool, so a multi-kernel
        suite saturates the machine even when individual sweeps are short.
        A plan whose problem ignores the memory size builds it once and its
        points share it; each point's key is still the content hash of its
        problem.  The returned list is ordered like ``plans``.
        """
        points: list[Task] = []
        with obs_spans.phase("sweep.problems"):
            for plan in plans:
                problem = None
                for size in plan.memory_sizes:
                    plan.kernel.validate_memory(size)
                    if problem is None or not plan.problem_ignores_memory:
                        problem = plan.problem_at(size)
                    points.append(point_task(plan.kernel, size, problem))

        executions, _ = resolve_tasks(
            points, None if self.verify else self.cache, self.pool
        )
        if self.verify:
            for point, execution in zip(points, executions):
                kernel = point.params["kernel"]
                if not kernel.verify(execution):
                    raise ConfigurationError(
                        f"{kernel.name} produced an incorrect result "
                        f"at M={execution.memory_words}"
                    )

        results = []
        cursor = 0
        for plan in plans:
            batch = slice(cursor, cursor + len(plan.memory_sizes))
            cursor = batch.stop
            results.append(
                MemorySweepResult(
                    kernel_name=plan.kernel.name,
                    # run_default semantics: the sweep reports the problem of
                    # the largest memory size, matching MemorySweep.run_default.
                    problem=dict(points[batch][-1].params["problem"]),
                    memory_sizes=plan.memory_sizes,
                    executions=tuple(executions[batch]),
                    point_keys=tuple(point.key() for point in points[batch]),
                )
            )
        return results
