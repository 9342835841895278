"""Tests for the vectorized analytic path (grids of N, M, alpha)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import registry
from repro.core.laws import (
    ExponentialMemoryLaw,
    InfeasibleMemoryLaw,
    PolynomialMemoryLaw,
)
from repro.exceptions import ConfigurationError
from repro.runtime.vectorized import cost_grid, rebalance_grid

MEMORIES = np.array([8.0, 32.0, 128.0, 512.0, 2048.0])
PROBLEM_SIZES = np.array([256.0, 1024.0, 4096.0])


class TestBatchCosts:
    @pytest.mark.parametrize("name", registry.names())
    def test_batch_equals_scalar_everywhere(self, name):
        """The one-array-pass grid agrees exactly with per-point evaluation."""
        spec = registry.get(name)
        batch = cost_grid(spec, PROBLEM_SIZES, MEMORIES)
        assert batch.shape == (len(PROBLEM_SIZES), len(MEMORIES))
        for i, n in enumerate(PROBLEM_SIZES):
            for j, m in enumerate(MEMORIES):
                scalar = spec.costs(int(n), int(m))
                assert batch.compute_ops[i, j] == scalar.compute_ops
                assert batch.io_words[i, j] == scalar.io_words
                assert batch.at((i, j)).intensity == scalar.intensity

    def test_broadcasting_column_against_row(self):
        spec = registry.get("matmul")
        batch = spec.batch_costs(PROBLEM_SIZES.reshape(-1, 1), MEMORIES.reshape(1, -1))
        assert batch.shape == (len(PROBLEM_SIZES), len(MEMORIES))

    def test_invalid_grids_rejected_with_offending_value(self):
        spec = registry.get("matmul")
        with pytest.raises(ConfigurationError, match="0.0"):
            spec.batch_costs(np.array([0.0, 16.0]), MEMORIES)
        with pytest.raises(ConfigurationError, match="0.5"):
            spec.batch_costs(PROBLEM_SIZES, np.array([0.5, 16.0]))

    def test_intensity_where_io_is_zero(self):
        from repro.core.model import BatchCost

        batch = BatchCost(np.array([4.0, 8.0]), np.array([2.0, 0.0]))
        assert batch.intensity[0] == 2.0
        assert math.isinf(batch.intensity[1])

    def test_mismatched_shapes_rejected(self):
        from repro.core.model import BatchCost

        with pytest.raises(ConfigurationError):
            BatchCost(np.zeros(3), np.zeros(4))


class TestBatchIntensity:
    @pytest.mark.parametrize("name", registry.names())
    def test_matches_scalar_evaluation(self, name):
        spec = registry.get(name)
        batch = spec.batch_intensity(MEMORIES)
        scalar = [spec.intensity_at(int(m)) for m in MEMORIES]
        assert batch == pytest.approx(scalar, rel=1e-12)

    def test_grid_shape_preserved(self):
        spec = registry.get("fft")
        grid = MEMORIES.reshape(1, -1).repeat(3, axis=0)
        assert spec.batch_intensity(grid).shape == grid.shape

    def test_tabulated_batch_matches_pointwise(self):
        from repro.core.intensity import TabulatedIntensity

        table = TabulatedIntensity([8.0, 64.0, 512.0], [2.0, 6.0, 18.0])
        grid = np.array([4.0, 8.0, 23.0, 64.0, 200.0, 512.0, 4096.0])
        batch = table.batch(grid)
        assert batch == pytest.approx([table(m) for m in grid], rel=1e-12)

    def test_rejects_sub_minimum_memory(self):
        spec = registry.get("matmul")
        with pytest.raises(ConfigurationError):
            spec.batch_intensity(np.array([0.5, 8.0]))

    def test_intensity_grid_covers_all_requested(self):
        for name in ("matmul", "fft", "matvec"):
            assert registry.get(name).batch_intensity(MEMORIES).shape == MEMORIES.shape



class TestRebalanceGrid:
    def test_polynomial_matches_scalar_law(self):
        law = PolynomialMemoryLaw(degree=2)
        alphas = np.array([1.0, 1.5, 2.0, 3.0])
        grid = rebalance_grid(law, 64.0, alphas)
        assert grid == pytest.approx(
            [law.required_memory(64.0, a) for a in alphas], rel=1e-12
        )

    def test_exponential_matches_scalar_law(self):
        law = ExponentialMemoryLaw()
        alphas = np.array([1.0, 1.5, 2.0])
        grid = rebalance_grid(law, 16.0, alphas)
        assert grid == pytest.approx(
            [law.required_memory(16.0, a) for a in alphas], rel=1e-12
        )

    def test_infeasible_marks_growth_points_infinite(self):
        grid = rebalance_grid(InfeasibleMemoryLaw(), 64.0, np.array([1.0, 2.0, 4.0]))
        assert grid[0] == 64.0
        assert math.isinf(grid[1]) and math.isinf(grid[2])

    def test_broadcast_memory_against_alpha(self):
        law = PolynomialMemoryLaw(degree=2)
        memories = np.array([16.0, 64.0]).reshape(-1, 1)
        alphas = np.array([1.5, 2.0, 3.0]).reshape(1, -1)
        grid = rebalance_grid(law, memories, alphas)
        assert grid.shape == (2, 3)
        assert grid[1, 2] == pytest.approx(law.required_memory(64.0, 3.0))

    def test_validates_inputs_naming_offenders(self):
        law = PolynomialMemoryLaw(degree=2)
        with pytest.raises(ConfigurationError, match="0.5"):
            rebalance_grid(law, 0.5, np.array([2.0]))
        with pytest.raises(ConfigurationError, match="0.9"):
            rebalance_grid(law, 64.0, np.array([0.9, 2.0]))

    def test_rebalance_curves_fan(self):
        curves = {
            name: rebalance_grid(registry.get(name).law, 64.0, (1.5, 2.0))
            for name in ("matmul", "fft", "matvec")
        }
        assert curves["matmul"][1] == pytest.approx(256.0)
        assert all(math.isinf(v) for v in curves["matvec"])
