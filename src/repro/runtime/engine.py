"""Parallel, cached execution of memory sweeps: the sweep client of the task runtime.

A :class:`SweepRunner` flattens any number of sweeps (one kernel x a memory
grid) into one batch of *points*.  A point is the task :func:`run_point`
(:func:`point_task`), so its content address is that task's key
(:func:`execution_key`), and the batch goes through the runtime's one
resolve loop, :func:`~repro.runtime.tasks.resolve_tasks`, against a
:class:`~repro.runtime.cache.ResultCache`.  A point of a scaled plan is
keyed by its recipe (the kernel, the memory size and the scale) and builds
its problem where it runs, so a warm replay builds and hashes no array: the
builders are seeded by the scale, and every key hashes the code version and
numpy's version.  A fixed problem has no recipe, so its arrays are hashed.
Results come back in deterministic order, so serial and parallel runs are
bitwise identical, and every sweep result carries the keys its points were
resolved under.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.analysis.sweep import MemorySweepResult, normalize_memory_sizes
from repro.exceptions import ConfigurationError
from repro.kernels.base import Kernel, KernelExecution
from repro.runtime.cache import ResultCache
from repro.runtime.tasks import Task, TaskPool, default_worker_count, resolve_tasks, task_pool

__all__ = ["SweepPlan", "SweepRunner", "execution_key", "point_task"]


def run_point(
    kernel: Kernel,
    memory_words: int,
    *,
    scale: int | None = None,
    problem: Mapping[str, Any] | None = None,
) -> KernelExecution:
    """Task entry for one sweep point (picklable, top-level): the kernel on
    ``problem``, else on ``kernel.problem_for_memory(memory_words, scale)``."""
    if problem is None:
        problem = kernel.problem_for_memory(memory_words, scale)
    return kernel.execute(memory_words, **problem)


def point_task(
    kernel: Kernel,
    memory_words: int,
    *,
    scale: int | None = None,
    problem: Mapping[str, Any] | None = None,
) -> Task:
    """The task of one sweep point, on its problem at ``scale`` or on ``problem``."""
    recipe = {"scale": scale} if problem is None else {"problem": problem}
    return Task(
        fn=run_point,
        params={"kernel": kernel, "memory_words": memory_words, **recipe},
        name=f"{kernel.name}@M={memory_words}",
    )


def execution_key(kernel: Kernel, memory_words: int, **recipe: Any) -> str:
    """Content address of one sweep point; takes what :func:`point_task` takes."""
    return point_task(kernel, memory_words, **recipe).key()


@dataclass(frozen=True)
class SweepPlan:
    """One kernel swept over a memory grid, on a fixed or scaled problem.

    Exactly one of ``problem`` (a fixed problem instance, as for
    :meth:`SweepRunner.run`) and ``scale`` (the kernel's default problem at
    that scale, as for :meth:`SweepRunner.run_default`) must be provided.
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
        (:func:`~repro.runtime.tasks.default_worker_count`).  The attribute
        is the size of the pool the runner uses, or 1 without one: a runner
        without a pool runs every point in-process.
    cache:
        Optional :class:`ResultCache`.  Points whose key is present are
        replayed without executing anything; fresh executions are stored
        back.  Ignored when ``verify`` is set (verification needs the
        numerical output, which cached entries do not carry).
    verify:
        Check every execution's output against the kernel's reference
        implementation.
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
        self.cache = cache
        self.verify = verify
        self.pool = pool or task_pool(parallel, max_workers or default_worker_count())
        self.max_workers = self.pool.max_workers if self.pool is not None else 1

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
        A scaled point builds its problem where it executes, so a warm batch
        builds none.  The returned list is ordered like ``plans``.
        """
        points: list[Task] = []
        for plan in plans:
            for size in plan.memory_sizes:
                plan.kernel.validate_memory(size)
                points.append(
                    point_task(plan.kernel, size, scale=plan.scale, problem=plan.problem)
                )

        executions = resolve_tasks(points, None if self.verify else self.cache, self.pool)
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
                    memory_sizes=plan.memory_sizes,
                    executions=tuple(executions[batch]),
                    point_keys=tuple(point.key() for point in points[batch]),
                )
            )
        return results
