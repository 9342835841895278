"""Benchmarks for the experiment-task runtime.

Demonstrates the speedups the runtime exists for:

* the vectorized analytic path evaluates a dense ``(N, M)`` cost grid in one
  array pass instead of one Python call per point,
* a warm result cache replays a whole scenario suite -- sweep points and
  experiment tasks -- without executing anything, and
* the pebble game's trusted fast engine beats the per-move validating engine
  (the seed implementation) on the large-DAG scenarios.

Timing assertions are deliberately loose (faster-than, not a fixed factor):
absolute ratios vary with core count and machine load, and the exact numbers
are emitted for the harness to record.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import best_of, emit

from repro.core import registry
from repro.experiments.pebble_bounds import blocked_matmul_order, pebble_point_tasks
from repro.pebble.dag import fft_dag, matmul_dag
from repro.pebble.game import play_topological
from repro.runtime.cache import ResultCache, TaskCache
from repro.runtime.engine import SweepRunner
from repro.runtime.suites import get_suite, run_suite
from repro.runtime.tasks import TaskRunner


def test_bench_vectorized_cost_grid_beats_scalar_loop():
    spec = registry.get("matmul")
    problem_sizes = np.linspace(64, 8192, 128)
    memories = np.linspace(16, 4096, 128)

    started = time.perf_counter()
    batch = spec.batch_costs(problem_sizes.reshape(-1, 1), memories.reshape(1, -1))
    batch_seconds = time.perf_counter() - started

    started = time.perf_counter()
    scalar = [
        [spec.costs(int(n), int(m)) for m in memories.astype(int)]
        for n in problem_sizes.astype(int)
    ]
    scalar_seconds = time.perf_counter() - started

    emit(
        "Vectorized analytic path: one array pass vs per-point Python calls",
        f"grid: {batch.shape[0]} x {batch.shape[1]} points\n"
        f"batch : {batch_seconds * 1e3:8.2f} ms\n"
        f"scalar: {scalar_seconds * 1e3:8.2f} ms\n"
        f"speedup: {scalar_seconds / max(batch_seconds, 1e-9):.1f}x",
    )

    # Same numbers (note the scalar loop truncates the grid to ints).
    check = spec.batch_costs(
        problem_sizes.astype(int).reshape(-1, 1),
        memories.astype(int).reshape(1, -1),
    )
    for i in (0, 64, 127):
        for j in (0, 64, 127):
            assert check.compute_ops[i, j] == scalar[i][j].compute_ops
            assert check.io_words[i, j] == scalar[i][j].io_words
    assert batch_seconds < scalar_seconds


def test_bench_suite_warm_cache_replays_without_execution(tmp_path):
    suite = get_suite("quick")
    cache = ResultCache(tmp_path / "cache")

    cold = run_suite(suite, SweepRunner(parallel=True, cache=cache))
    warm = run_suite(suite, SweepRunner(parallel=True, cache=cache))

    emit(
        "Scenario suite result cache: cold vs warm",
        f"suite : {suite.name} ({cold.runtime['points']} points)\n"
        f"cold  : {cold.elapsed_seconds * 1e3:8.1f} ms ({cache.stats.misses} misses)\n"
        f"warm  : {warm.elapsed_seconds * 1e3:8.1f} ms ({cache.stats.hits} hits)\n"
        f"speedup: {cold.elapsed_seconds / max(warm.elapsed_seconds, 1e-9):.1f}x",
    )

    assert cache.stats.hits == cache.stats.misses == cold.runtime["points"]
    for c, w in zip(cold.results, warm.results):
        assert w.sweep.intensities == c.sweep.intensities
    # The experiment tasks replay from the task cache too.
    assert cold.runtime["task_cache"]["misses"] == cold.runtime["experiment_tasks"]
    assert warm.runtime["task_cache"]["hits"] == warm.runtime["experiment_tasks"]
    assert warm.runtime["task_cache"]["misses"] == 0
    assert warm.elapsed_seconds < cold.elapsed_seconds


def test_bench_pebble_fast_engine_beats_validated_engine():
    """The large pebble DAGs through the fast vs the validating engine.

    The validating engine (``record_moves=True``) is the seed code path: it
    checks every move's legality against hash sets and allocates a ``Move``
    per step.  The fast engine plays the identical strategy on
    integer-indexed arrays with a lazy-deletion LRU heap.  Each engine
    takes the best of ``TIMING_REPEATS`` runs, since one preemption can
    decide a single 4-30 ms race.
    """
    cases = [
        ("matmul[10] S=32 blocked", matmul_dag(10), 32, blocked_matmul_order(10, 32)),
        ("fft[256] S=32", fft_dag(256), 32, None),
    ]
    lines = []
    total_fast = total_validated = 0.0
    for label, dag, limit, order in cases:
        fast, fast_seconds = best_of(lambda: play_topological(dag, limit, order=order))
        validated, validated_seconds = best_of(
            lambda: play_topological(dag, limit, order=order, record_moves=True)
        )

        assert fast.io_operations == validated.io_operations
        assert fast.peak_red_pebbles == validated.peak_red_pebbles
        total_fast += fast_seconds
        total_validated += validated_seconds
        lines.append(
            f"{label}: fast {fast_seconds * 1e3:7.1f} ms, "
            f"validated {validated_seconds * 1e3:7.1f} ms "
            f"({validated_seconds / max(fast_seconds, 1e-9):.1f}x)"
        )

    emit(
        "Pebble game: trusted fast engine vs per-move validating engine",
        "\n".join(lines)
        + f"\ntotal speedup: {total_validated / max(total_fast, 1e-9):.1f}x",
    )
    assert total_fast < total_validated


def test_bench_pebble_experiment_warm_task_cache(tmp_path):
    """A warm task cache replays the whole pebble experiment without playing."""
    tasks = pebble_point_tasks(
        matmul_order=8,
        fft_points=128,
        matmul_memories=(8, 16, 32),
        fft_memories=(8, 16, 32),
    )
    cache = TaskCache(tmp_path / "tasks")

    started = time.perf_counter()
    cold = TaskRunner(cache=cache).run(tasks)
    cold_seconds = time.perf_counter() - started

    started = time.perf_counter()
    warm = TaskRunner(cache=cache).run(tasks)
    warm_seconds = time.perf_counter() - started

    emit(
        "Pebble experiment tasks: cold vs warm task cache",
        f"tasks : {len(tasks)} (matmul[8] + fft[128], 3 memory sizes each)\n"
        f"cold  : {cold_seconds * 1e3:8.1f} ms ({cache.stats.misses} misses)\n"
        f"warm  : {warm_seconds * 1e3:8.1f} ms ({cache.stats.hits} hits)\n"
        f"speedup: {cold_seconds / max(warm_seconds, 1e-9):.1f}x",
    )

    assert cache.stats.hits == cache.stats.misses == len(tasks)
    assert [p.measured_io for p in warm] == [p.measured_io for p in cold]
    assert warm_seconds < cold_seconds
