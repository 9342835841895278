"""Tests for the memory sweep and the measured rebalancing curve."""

from __future__ import annotations

import math

import pytest

from repro.analysis.sweep import measured_rebalance_curve, normalize_memory_sizes
from repro.core.classification import ComputationClass
from repro.exceptions import ConfigurationError
from repro.kernels.fft import BlockedFFT
from repro.kernels.io_bound import StreamingMatrixVectorProduct
from repro.kernels.matmul import BlockedMatrixMultiply
from repro.runtime.engine import SweepRunner


class TestMemorySweep:
    def test_sweep_collects_one_execution_per_size(self, small_matrices):
        a, b = small_matrices
        sweep = SweepRunner().run(BlockedMatrixMultiply(), (12, 48, 108), a=a, b=b)
        assert sweep.memory_sizes == (12, 48, 108)
        assert len(sweep.executions) == 3
        assert len(sweep.intensities) == 3

    def test_sweep_sorts_memory_sizes(self, small_matrices):
        a, b = small_matrices
        sweep = SweepRunner().run(BlockedMatrixMultiply(), (108, 12, 48), a=a, b=b)
        assert sweep.memory_sizes == (12, 48, 108)

    def test_duplicate_sizes_rejected(self, small_matrices):
        a, b = small_matrices
        with pytest.raises(ConfigurationError):
            SweepRunner().run(BlockedMatrixMultiply(), (12, 12), a=a, b=b)

    def test_duplicate_sizes_error_names_offending_values(self, small_matrices):
        a, b = small_matrices
        with pytest.raises(ConfigurationError, match=r"duplicated values: 12, 48"):
            SweepRunner().run(BlockedMatrixMultiply(), (12, 48, 12, 48, 27), a=a, b=b)

    def test_run_default_duplicate_sizes_error_names_values(self):
        with pytest.raises(ConfigurationError, match=r"duplicated values: 27"):
            SweepRunner().run_default(BlockedMatrixMultiply(), (27, 12, 27), scale=10)

    def test_empty_sizes_rejected(self, small_matrices):
        a, b = small_matrices
        with pytest.raises(ConfigurationError):
            SweepRunner().run(BlockedMatrixMultiply(), (), a=a, b=b)

    def test_run_default_empty_sizes_rejected(self):
        with pytest.raises(ConfigurationError, match="must not be empty"):
            SweepRunner().run_default(BlockedMatrixMultiply(), (), scale=10)


class TestNormalizeMemorySizes:
    def test_sorts_and_coerces_to_int_tuple(self):
        assert normalize_memory_sizes([48.0, 12, 27]) == (12, 27, 48)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError, match="must not be empty"):
            normalize_memory_sizes([])

    def test_duplicates_after_coercion_detected(self):
        with pytest.raises(ConfigurationError, match="duplicated values: 12"):
            normalize_memory_sizes([12, 12.0])

    def test_verify_flag_checks_outputs(self, small_matrices):
        a, b = small_matrices
        sweep = SweepRunner(verify=True).run(BlockedMatrixMultiply(), (27, 75), a=a, b=b)
        assert len(sweep.executions) == 2

    def test_matmul_sweep_classified_polynomial(self, rng):
        a = rng.standard_normal((36, 36))
        b = rng.standard_normal((36, 36))
        sweep = SweepRunner().run(BlockedMatrixMultiply(), (12, 27, 48, 108, 192, 300), a=a, b=b)
        result = sweep.classification()
        assert result.computation_class is ComputationClass.POLYNOMIAL
        assert sweep.best_model() == "power-law"
        assert sweep.power_law_fit().exponent == pytest.approx(0.5, abs=0.15)

    def test_fft_sweep_classified_exponential(self, rng):
        x = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
        sweep = SweepRunner().run(BlockedFFT(), (4, 8, 16, 32, 128, 8192), x=x)
        assert sweep.classification().computation_class is ComputationClass.EXPONENTIAL
        assert sweep.best_model() == "logarithmic"
        assert sweep.log_law_fit().r_squared > 0.99

    def test_matvec_sweep_classified_io_bounded(self, rng):
        a = rng.standard_normal((32, 32))
        x = rng.standard_normal(32)
        sweep = SweepRunner().run(StreamingMatrixVectorProduct(), (8, 32, 128, 512), a=a, x=x)
        assert sweep.classification().computation_class is ComputationClass.IO_BOUNDED
        assert sweep.best_model() == "constant"

    def test_run_default_uses_problem_for_memory(self):
        sweep = SweepRunner().run_default(BlockedMatrixMultiply(), (12, 48), scale=10)
        assert sweep.executions[0].problem["a"].shape == (10, 10)

    def test_rows_expose_costs(self, small_matrices):
        a, b = small_matrices
        sweep = SweepRunner().run(BlockedMatrixMultiply(), (12, 48), a=a, b=b)
        rows = sweep.rows()
        assert len(rows) == 2
        assert set(rows[0]) >= {"memory_words", "compute_ops", "io_words", "intensity"}

    def test_tabulated_intensity_matches_measurements(self, small_matrices):
        a, b = small_matrices
        sweep = SweepRunner().run(BlockedMatrixMultiply(), (12, 48, 108), a=a, b=b)
        table = sweep.tabulated_intensity()
        for memory, intensity in zip(sweep.memory_sizes, sweep.intensities):
            assert table(memory) == pytest.approx(intensity, rel=1e-9)


class TestMeasuredRebalanceCurve:
    def test_matmul_measured_curve_close_to_alpha_squared(self, rng):
        """E2's core assertion: the measured rebalancing exponent is about 2."""
        a = rng.standard_normal((36, 36))
        b = rng.standard_normal((36, 36))
        sweep = SweepRunner().run(
            BlockedMatrixMultiply(), (12, 27, 48, 108, 192, 300, 432), a=a, b=b
        )
        curve = measured_rebalance_curve(sweep, memory_old=27, alphas=(1.5, 2.0, 3.0))
        exponents = [r.implied_exponent for r in curve]
        for exponent in exponents:
            assert exponent == pytest.approx(2.0, abs=0.5)

    def test_matvec_measured_curve_is_infeasible(self, rng):
        a = rng.standard_normal((32, 32))
        x = rng.standard_normal(32)
        sweep = SweepRunner().run(StreamingMatrixVectorProduct(), (8, 32, 128, 512), a=a, x=x)
        curve = measured_rebalance_curve(sweep, memory_old=8, alphas=(1.0, 2.0, 4.0))
        assert curve[0].feasible
        assert not curve[1].feasible
        assert not curve[2].feasible

    def test_fft_measured_curve_grows_superpolynomially(self, rng):
        x = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
        sweep = SweepRunner().run(BlockedFFT(), (4, 8, 16, 32, 128, 8192), x=x)
        curve = measured_rebalance_curve(sweep, memory_old=16, alphas=(2.0, 3.0))
        exponents = [r.implied_exponent for r in curve if math.isfinite(r.implied_exponent)]
        assert all(e > 3.0 for e in exponents)
