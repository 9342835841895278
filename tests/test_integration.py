"""Integration tests: the full pipeline from kernels to the paper's conclusions.

These tests exercise several subsystems together -- kernels, sweeps, the
rebalancing solver, the machine model and the array sizing -- and assert the
paper's end-to-end claims rather than individual module behaviours.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.fitting import estimate_growth_exponent
from repro.analysis.sweep import measured_rebalance_curve
from repro.arrays.sizing import linear_array_sizing_sweep, mesh_sizing_sweep
from repro.core.model import BoundKind, ProcessingElement
from repro.core.rebalance import rebalance_pe
from repro.core.registry import get as get_spec
from repro.kernels import (
    BlockedFFT,
    BlockedLUTriangularization,
    BlockedMatrixMultiply,
    ExternalMergeSort,
    GridRelaxation,
    StreamingMatrixVectorProduct,
)
from repro.machine.pe import SimulatedPE
from repro.runtime.engine import SweepRunner


class TestMeasuredLawsMatchPaper:
    """End-to-end versions of the Section 3 results, from kernel runs alone."""

    def test_matmul_measured_rebalancing_exponent_is_two(self, rng):
        a = rng.standard_normal((36, 36))
        b = rng.standard_normal((36, 36))
        sweep = SweepRunner().run(
            BlockedMatrixMultiply(), (12, 27, 48, 108, 192, 300, 432), a=a, b=b
        )
        curve = measured_rebalance_curve(sweep, memory_old=27, alphas=(1.5, 2.0, 3.0))
        exponent = estimate_growth_exponent(
            [r.alpha for r in curve], [r.growth_factor for r in curve]
        )
        assert exponent == pytest.approx(2.0, abs=0.5)

    def test_triangularization_measured_exponent_is_two(self):
        kernel = BlockedLUTriangularization()
        problem = kernel.default_problem(36)
        sweep = SweepRunner().run(kernel, (12, 27, 48, 108, 192, 300), **problem)
        curve = measured_rebalance_curve(sweep, memory_old=27, alphas=(1.5, 2.0, 3.0))
        exponent = estimate_growth_exponent(
            [r.alpha for r in curve], [r.growth_factor for r in curve]
        )
        assert exponent == pytest.approx(2.0, abs=0.6)

    def test_grid2d_measured_exponent_is_about_two(self):
        kernel = GridRelaxation(dimension=2)
        sweep = SweepRunner().run_default(kernel, (100, 256, 576, 1296, 2704), scale=5)
        curve = measured_rebalance_curve(sweep, memory_old=256, alphas=(1.5, 2.0))
        exponent = estimate_growth_exponent(
            [r.alpha for r in curve], [r.growth_factor for r in curve]
        )
        assert 1.3 <= exponent <= 2.7

    def test_fft_measured_memory_grows_exponentially(self, rng):
        """log(M_new) is proportional to alpha, not to log(alpha)."""
        x = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
        sweep = SweepRunner().run(BlockedFFT(), (4, 8, 16, 32, 128, 8192), x=x)
        curve = measured_rebalance_curve(sweep, memory_old=32, alphas=(1.5, 2.0, 2.5))
        log_memories = [math.log2(r.memory_new) for r in curve]
        # Exponential law: log M_new / alpha is constant.
        normalised = [lm / r.alpha for lm, r in zip(log_memories, curve)]
        assert max(normalised) / min(normalised) < 1.35
        # And the growth dwarfs any quadratic prediction at alpha 2.5.
        quadratic_prediction = 32 * 2.5**2
        assert curve[-1].memory_new > 3 * quadratic_prediction

    def test_sorting_measured_memory_grows_exponentially(self, rng):
        keys = rng.standard_normal(16384)
        sweep = SweepRunner().run(ExternalMergeSort(), (8, 32, 128, 512), keys=keys)
        curve = measured_rebalance_curve(sweep, memory_old=32, alphas=(1.5, 2.0))
        exponents = [r.implied_exponent for r in curve]
        assert all(e > 3.0 for e in exponents)

    def test_matvec_cannot_be_rebalanced(self, rng):
        a = rng.standard_normal((48, 48))
        x = rng.standard_normal(48)
        sweep = SweepRunner().run(
            StreamingMatrixVectorProduct(), (8, 32, 128, 512, 2048), a=a, x=x
        )
        curve = measured_rebalance_curve(sweep, memory_old=32, alphas=(2.0, 4.0))
        assert all(not r.feasible for r in curve)


class TestRebalancedPEOnSimulator:
    def test_rebalanced_pe_restores_balance_for_matmul(self, rng):
        """Analytic rebalancing, checked by actually running the kernel.

        The problem size (48) stays well above the tile side at both memory
        sizes, which is the paper's standing assumption (N much larger than
        sqrt(M)); otherwise the measured intensity saturates at the
        whole-problem bound and the alpha**2 prediction cannot be observed.
        """
        n = 48
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        kernel = BlockedMatrixMultiply()
        spec = get_spec("matmul")

        # Start from a PE balanced at M=48 for this kernel's measured intensity.
        base_memory = 48
        base_intensity = kernel.execute(base_memory, a=a, b=b).intensity
        pe = ProcessingElement(
            compute_bandwidth=base_intensity * 1e6,
            io_bandwidth=1e6,
            memory_words=base_memory,
            name="balanced",
        )
        base_report = SimulatedPE(pe).run(kernel, a=a, b=b)
        assert base_report.bound is BoundKind.BALANCED

        # Double C/IO: the same memory is now I/O bound.
        faster = pe.with_compute_scaled(2.0)
        starved_report = SimulatedPE(faster, balance_tolerance=0.15).run(kernel, a=a, b=b)
        assert starved_report.bound is BoundKind.IO_BOUND

        # Enlarge the memory by the paper's alpha^2 = 4x and re-run.
        rebalanced = rebalance_pe(pe, spec.intensity, 2.0).with_memory(4 * base_memory)
        assert rebalanced.memory_words == 4 * base_memory
        rebalanced_report = SimulatedPE(rebalanced, balance_tolerance=0.15).run(
            kernel, a=a, b=b
        )
        assert rebalanced_report.imbalance < starved_report.imbalance
        assert rebalanced_report.bound is BoundKind.BALANCED


class TestArraysAndKernelsTogether:
    def test_linear_array_sizing_matches_measured_intensity(self, rng):
        """Array sizing driven by a *measured* intensity curve, not the formula."""
        a = rng.standard_normal((36, 36))
        b = rng.standard_normal((36, 36))
        sweep = SweepRunner().run(
            BlockedMatrixMultiply(), (12, 27, 48, 108, 192, 300, 432), a=a, b=b
        )
        measured_intensity = sweep.tabulated_intensity()
        reference = ProcessingElement(
            compute_bandwidth=measured_intensity(48) * 1e6,
            io_bandwidth=1e6,
            memory_words=48,
            name="measured-ref",
        )
        results = linear_array_sizing_sweep(measured_intensity, reference, [2, 4, 8])
        growths = [r.per_cell_growth for r in results]
        assert growths[0] == pytest.approx(2.0, rel=0.4)
        assert growths[2] == pytest.approx(8.0, rel=0.4)

        mesh_results = mesh_sizing_sweep(measured_intensity, reference, [2, 4, 8])
        for result in mesh_results:
            assert result.per_cell_growth == pytest.approx(1.0, rel=0.4)


class TestCrossKernelConsistency:
    def test_measured_intensities_track_registry_cost_models(self):
        """Kernel measurements and the registry's closed forms agree in shape."""
        checks = [
            (BlockedMatrixMultiply(), "matmul", 36, (27, 108, 432)),
            (BlockedFFT(), "fft", 12, (8, 32, 128)),
        ]
        for kernel, name, scale, memories in checks:
            spec = get_spec(name)
            problem = kernel.default_problem(scale)
            measured = [kernel.execute(m, **problem).intensity for m in memories]
            analytic = [spec.intensity_at(m) for m in memories]
            measured_ratio = measured[-1] / measured[0]
            analytic_ratio = analytic[-1] / analytic[0]
            assert measured_ratio == pytest.approx(analytic_ratio, rel=0.4), name
