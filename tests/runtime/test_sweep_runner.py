"""Tests for the parallel, cached sweep engine."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.kernels.fft import BlockedFFT
from repro.kernels.grid import GridRelaxation
from repro.kernels.matmul import BlockedMatrixMultiply
from repro.runtime.cache import MISS, ResultCache
from repro.runtime.engine import SweepPlan, SweepRunner, execution_key, point_task

MEMORIES = (12, 27, 48)
SCALE = 12
GRID_MEMORIES = (16, 36, 64)


def _mixed_plans() -> list[SweepPlan]:
    """Two plans on one problem per scale, and one grid plan whose problem grows with M."""
    return [
        SweepPlan(kernel=BlockedMatrixMultiply(), memory_sizes=MEMORIES, scale=SCALE),
        SweepPlan(kernel=BlockedFFT(), memory_sizes=(4, 8, 64), scale=10),
        SweepPlan(kernel=GridRelaxation(2), memory_sizes=GRID_MEMORIES, scale=7),
    ]


def _count_calls(monkeypatch, klass: type, method: str) -> list[tuple]:
    """Record the arguments of every call to ``klass.method``."""
    calls = []
    original = getattr(klass, method)

    def counting(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(klass, method, counting)
    return calls


class TestSweepPlan:
    def test_requires_exactly_one_of_problem_and_scale(self):
        kernel = BlockedMatrixMultiply()
        with pytest.raises(ConfigurationError):
            SweepPlan(kernel=kernel, memory_sizes=MEMORIES)
        with pytest.raises(ConfigurationError):
            SweepPlan(kernel=kernel, memory_sizes=MEMORIES, problem={"a": 1}, scale=2)

    def test_normalizes_memory_sizes(self):
        plan = SweepPlan(
            kernel=BlockedMatrixMultiply(), memory_sizes=(48, 12, 27), scale=SCALE
        )
        assert plan.memory_sizes == (12, 27, 48)

    def test_rejects_duplicate_sizes_naming_them(self):
        with pytest.raises(ConfigurationError, match="27"):
            SweepPlan(
                kernel=BlockedMatrixMultiply(),
                memory_sizes=(12, 27, 27),
                scale=SCALE,
            )


class TestSerialRuntime:
    """A serial runner against the reference: a plain ``kernel.execute`` loop."""

    def test_matches_an_execute_loop_bitwise(self):
        kernel = BlockedMatrixMultiply()
        loop = [kernel.execute(m, **kernel.problem_for_memory(m, SCALE)) for m in MEMORIES]
        runtime = SweepRunner().run_default(BlockedMatrixMultiply(), MEMORIES, SCALE)
        assert runtime.intensities == tuple(e.intensity for e in loop)
        assert runtime.io_words == tuple(e.cost.io_words for e in loop)
        assert runtime.compute_ops == tuple(e.cost.compute_ops for e in loop)
        assert runtime.memory_sizes == MEMORIES

    def test_fixed_problem_run_matches_an_execute_loop(self, small_matrices):
        a, b = small_matrices
        loop = [BlockedMatrixMultiply().execute(m, a=a, b=b) for m in MEMORIES]
        runtime = SweepRunner().run(BlockedMatrixMultiply(), MEMORIES, a=a, b=b)
        assert runtime.intensities == tuple(e.intensity for e in loop)

    def test_run_sweep_convenience(self):
        result = SweepRunner().run_default(BlockedMatrixMultiply(), MEMORIES, SCALE)
        assert len(result.executions) == len(MEMORIES)


class TestParallelRuntime:
    def test_parallel_is_bitwise_equal_to_serial(self):
        serial = SweepRunner().run_default(BlockedMatrixMultiply(), MEMORIES, SCALE)
        parallel = SweepRunner(parallel=True, max_workers=2).run_default(
            BlockedMatrixMultiply(), MEMORIES, SCALE
        )
        assert parallel.intensities == serial.intensities
        assert parallel.io_words == serial.io_words
        assert parallel.compute_ops == serial.compute_ops

    def test_multi_plan_batch_keeps_plan_order(self):
        plans = [
            SweepPlan(kernel=BlockedMatrixMultiply(), memory_sizes=MEMORIES, scale=SCALE),
            SweepPlan(kernel=BlockedFFT(), memory_sizes=(4, 8, 64), scale=10),
        ]
        serial = SweepRunner().run_plans(plans)
        parallel = SweepRunner(parallel=True, max_workers=2).run_plans(plans)
        assert [r.kernel_name for r in parallel] == [r.kernel_name for r in serial]
        for s, p in zip(serial, parallel):
            assert p.intensities == s.intensities
            assert p.memory_sizes == s.memory_sizes

    def test_verify_propagates_from_workers(self):
        runner = SweepRunner(parallel=True, max_workers=2, verify=True)
        result = runner.run_default(BlockedMatrixMultiply(), MEMORIES, SCALE)
        assert len(result.executions) == len(MEMORIES)

    def test_max_workers_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SweepRunner(max_workers=0)


class TestCachedRuntime:
    def test_second_run_is_served_from_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = SweepRunner(cache=cache).run_default(
            BlockedMatrixMultiply(), MEMORIES, SCALE
        )
        assert cache.stats.misses == len(MEMORIES)
        assert cache.stats.stores == len(MEMORIES)
        warm = SweepRunner(cache=cache).run_default(
            BlockedMatrixMultiply(), MEMORIES, SCALE
        )
        assert cache.stats.hits == len(MEMORIES)
        assert warm.intensities == cold.intensities
        assert all(e.from_cache for e in warm.executions)
        assert not any(e.from_cache for e in cold.executions)

    def test_different_scale_misses(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        SweepRunner(cache=cache).run_default(BlockedMatrixMultiply(), MEMORIES, SCALE)
        SweepRunner(cache=cache).run_default(BlockedMatrixMultiply(), MEMORIES, 16)
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2 * len(MEMORIES)

    def test_clear_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        SweepRunner(cache=cache).run_default(BlockedMatrixMultiply(), MEMORIES, SCALE)
        cache.clear()
        SweepRunner(cache=cache).run_default(BlockedMatrixMultiply(), MEMORIES, SCALE)
        assert cache.stats.hits == 0

    def test_verify_bypasses_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = SweepRunner(cache=cache, verify=True)
        runner.run_default(BlockedMatrixMultiply(), MEMORIES, SCALE)
        assert cache.stats.hits == cache.stats.misses == cache.stats.stores == 0

    def test_parallel_with_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = SweepRunner(parallel=True, max_workers=2, cache=cache)
        cold = runner.run_default(BlockedMatrixMultiply(), MEMORIES, SCALE)
        warm = runner.run_default(BlockedMatrixMultiply(), MEMORIES, SCALE)
        assert warm.intensities == cold.intensities
        assert cache.stats.hits == len(MEMORIES)


class TestPointKeys:
    """A point's cache key is its task's key, carried on the sweep result."""

    def test_execution_key_is_the_key_the_engine_resolved(self, tmp_path):
        kernel = BlockedMatrixMultiply()
        cache = ResultCache(tmp_path / "cache")
        result = SweepRunner(cache=cache).run_default(kernel, MEMORIES, SCALE)
        expected = tuple(execution_key(kernel, m, scale=SCALE) for m in MEMORIES)
        assert result.point_keys == expected
        for memory, key in zip(MEMORIES, expected):
            assert cache.key_for(BlockedMatrixMultiply(), memory, scale=SCALE) == key
            assert cache.load(key) is not MISS

    def test_fixed_problem_points_are_keyed_by_their_arrays(self, small_matrices):
        a, b = small_matrices
        result = SweepRunner().run(BlockedMatrixMultiply(), MEMORIES, a=a, b=b)
        assert result.point_keys == tuple(
            execution_key(BlockedMatrixMultiply(), m, problem={"a": a.copy(), "b": b})
            for m in MEMORIES
        )
        assert result.point_keys != SweepRunner().run(
            BlockedMatrixMultiply(), MEMORIES, a=a, b=b + 1.0
        ).point_keys

    def test_verified_sweep_resolves_under_the_same_keys(self):
        plain = SweepRunner().run_default(BlockedMatrixMultiply(), MEMORIES, SCALE)
        verified = SweepRunner(verify=True).run_default(
            BlockedMatrixMultiply(), MEMORIES, SCALE
        )
        assert verified.point_keys == plain.point_keys
        assert len(set(plain.point_keys)) == len(MEMORIES)

    def test_identical_points_in_one_batch_execute_once(self, monkeypatch):
        plan = SweepPlan(kernel=BlockedMatrixMultiply(), memory_sizes=MEMORIES, scale=SCALE)
        calls = []
        original = BlockedMatrixMultiply.execute

        def counting(self, memory_words, **problem):
            calls.append(memory_words)
            return original(self, memory_words, **problem)

        monkeypatch.setattr(BlockedMatrixMultiply, "execute", counting)
        first, second = SweepRunner().run_plans([plan, plan])
        assert sorted(calls) == list(MEMORIES)
        assert first.point_keys == second.point_keys
        assert first.intensities == second.intensities

    def test_verify_failure_names_the_point(self, monkeypatch):
        monkeypatch.setattr(BlockedMatrixMultiply, "verify", lambda self, execution: False)
        with pytest.raises(ConfigurationError, match="incorrect result at M=12"):
            SweepRunner(verify=True).run_default(BlockedMatrixMultiply(), MEMORIES, SCALE)


class TestRecipePoints:
    """A scaled point is keyed by its recipe and builds its problem where it runs."""

    def test_point_keys_are_the_keys_of_each_points_recipe(self):
        plans = _mixed_plans()
        for plan, result in zip(plans, SweepRunner().run_plans(plans)):
            assert result.point_keys == tuple(
                point_task(plan.kernel, m, scale=plan.scale).key()
                for m in plan.memory_sizes
            )
            assert len(set(result.point_keys)) == len(plan.memory_sizes)

    def test_each_cold_point_builds_its_own_problem(self, monkeypatch):
        matmul = _count_calls(monkeypatch, BlockedMatrixMultiply, "default_problem")
        fft = _count_calls(monkeypatch, BlockedFFT, "default_problem")
        grid = _count_calls(monkeypatch, GridRelaxation, "problem_for_memory")
        results = SweepRunner().run_plans(_mixed_plans())
        assert matmul == [(SCALE,)] * len(MEMORIES)
        assert fft == [(10,)] * 3
        assert grid == [(memory, 7) for memory in GRID_MEMORIES]
        assert all(len(result.executions) == 3 for result in results)

    def test_pooled_cold_run_builds_no_problem_here_and_equals_serial(
        self, refuse_problem_builders
    ):
        serial = SweepRunner().run_plans(_mixed_plans())
        refuse_problem_builders(here_only=True)
        runner = SweepRunner(parallel=True, max_workers=2)
        try:
            pooled = runner.run_plans(_mixed_plans())
        finally:
            runner.pool.close()
        for s, p in zip(serial, pooled):
            assert p.point_keys == s.point_keys
            assert [e.cost for e in p.executions] == [e.cost for e in s.executions]
            assert [e.peak_memory_words for e in p.executions] == [
                e.peak_memory_words for e in s.executions
            ]
