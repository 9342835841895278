"""Experiment-task runtime: vectorized, parallel and cached execution.

This package replaces per-point serial experiment loops with these layers:

* :mod:`repro.runtime.vectorized` -- batch-evaluate the registry's closed-form
  cost models, intensity functions and rebalancing laws over numpy grids of
  ``(N, M, alpha)`` in single array passes (an analytic sweep is
  :func:`analytic_sweep_payload`);
* :mod:`repro.runtime.tasks` -- the generic task abstraction: any top-level
  callable plus parameters, content-addressed by the callable, the package's
  code version, numpy's version and the parameters (the one key scheme), and
  the one resolve loop that looks keys up in a cache, runs each distinct miss once
  (in-process or on its owner's long-lived :class:`TaskPool`, in
  deterministic order, always on one BLAS thread) and stores the fresh
  results;
* :mod:`repro.runtime.engine` -- the memory-sweep client of the task layer:
  every (kernel, memory size, scale) point is a task keyed by that recipe,
  resolved against a :class:`ResultCache`;
* :mod:`repro.runtime.cache` -- the content-addressed on-disk caches, two
  codecs over one entry store (measured sweep points in
  :class:`ResultCache`, whole experiment results in :class:`TaskCache`),
  and :func:`cache_layout`, where each sits under one cache root;
* :mod:`repro.runtime.suites` -- declarative, named scenario suites (kernel
  sweeps plus experiment tasks) that lower onto the engines and emit
  JSON/CSV for the benchmark harness and CI, and the builders the CLI and
  the job service share with them (:func:`sweep_payload`,
  :func:`run_experiments`).
"""

from repro.runtime.cache import (
    MISS,
    CacheLayout,
    ResultCache,
    TaskCache,
    cache_layout,
)
from repro.runtime.engine import SweepPlan, SweepRunner, execution_key
from repro.runtime.suites import (
    ExperimentScenario,
    ExperimentScenarioResult,
    PEConfig,
    Scenario,
    ScenarioResult,
    ScenarioSuite,
    SuiteResult,
    build_kernel,
    get_suite,
    kernel_factories,
    run_experiments,
    run_suite,
    store_for,
    suite_names,
    sweep_payload,
    task_runner_for,
)
from repro.runtime.tasks import (
    Task,
    TaskPool,
    TaskRunner,
    code_version,
    default_worker_count,
    execute_tasks,
    resolve_tasks,
    task_key,
)
from repro.runtime.vectorized import (
    analytic_sweep_payload,
    cost_grid,
    rebalance_grid,
)

__all__ = [
    "MISS",
    "CacheLayout",
    "ExperimentScenario",
    "ExperimentScenarioResult",
    "PEConfig",
    "ResultCache",
    "Scenario",
    "ScenarioResult",
    "ScenarioSuite",
    "SuiteResult",
    "SweepPlan",
    "SweepRunner",
    "Task",
    "TaskCache",
    "TaskPool",
    "TaskRunner",
    "analytic_sweep_payload",
    "build_kernel",
    "cache_layout",
    "code_version",
    "cost_grid",
    "default_worker_count",
    "execute_tasks",
    "execution_key",
    "get_suite",
    "kernel_factories",
    "rebalance_grid",
    "resolve_tasks",
    "run_experiments",
    "run_suite",
    "store_for",
    "suite_names",
    "sweep_payload",
    "task_key",
    "task_runner_for",
]
