"""Tests for the rebalancing solver (the paper's central question)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intensity import (
    ConstantIntensity,
    IntensityFunction,
    LogarithmicIntensity,
    PowerLawIntensity,
    TabulatedIntensity,
)
from repro.core.laws import MemoryLaw, PolynomialMemoryLaw
from repro.core.model import ProcessingElement
from repro.core.rebalance import (
    balanced_memory_for_pe,
    memory_for_ratio,
    rebalance_curve,
    rebalance_memory,
    rebalance_pe,
)
from repro.exceptions import ConfigurationError, RebalanceInfeasibleError


def verify_law(
    intensity: IntensityFunction,
    law: MemoryLaw,
    memory_old: float,
    alphas: list[float] | tuple[float, ...],
    *,
    rel_tolerance: float = 0.05,
) -> bool:
    """Check the library's closed-form law against numeric rebalancing.

    Returns ``True`` when, for every ``alpha``, the memory predicted by the
    law matches the memory obtained by inverting the intensity function to
    within ``rel_tolerance`` (relative).  Infeasible cases must agree on
    infeasibility.
    """
    for alpha in alphas:
        numeric = rebalance_memory(
            intensity, memory_old, alpha, allow_infeasible=True
        )
        if not law.feasible or not numeric.feasible:
            if law.feasible != numeric.feasible and alpha > 1:
                return False
            continue
        predicted = law.required_memory(memory_old, alpha)
        if predicted == 0:
            return False
        if abs(numeric.memory_new - predicted) > rel_tolerance * predicted:
            return False
    return True


class TestRebalanceMemory:
    def test_matmul_alpha_squared(self):
        result = rebalance_memory(PowerLawIntensity(exponent=0.5), 100, 4.0)
        assert result.memory_new == pytest.approx(1600.0)
        assert result.growth_factor == pytest.approx(16.0)
        assert result.implied_exponent == pytest.approx(2.0)

    def test_grid_alpha_d(self):
        result = rebalance_memory(PowerLawIntensity(exponent=0.25), 10, 2.0)
        assert result.growth_factor == pytest.approx(16.0)
        assert result.implied_exponent == pytest.approx(4.0)

    def test_fft_exponential(self):
        result = rebalance_memory(LogarithmicIntensity(), 32, 2.0)
        assert result.memory_new == pytest.approx(1024.0)

    def test_io_bound_raises_by_default(self):
        with pytest.raises(RebalanceInfeasibleError):
            rebalance_memory(ConstantIntensity(), 100, 2.0)

    def test_io_bound_allow_infeasible(self):
        result = rebalance_memory(ConstantIntensity(), 100, 2.0, allow_infeasible=True)
        assert result.feasible is False
        assert result.memory_new == math.inf
        assert result.growth_factor == math.inf

    def test_alpha_one_identity(self):
        result = rebalance_memory(PowerLawIntensity(exponent=0.5), 64, 1.0)
        assert result.memory_new == pytest.approx(64.0)
        assert math.isnan(result.implied_exponent)

    def test_describe_mentions_alpha(self):
        result = rebalance_memory(PowerLawIntensity(exponent=0.5), 100, 2.0)
        assert "alpha=2" in result.describe()

    def test_describe_infeasible(self):
        result = rebalance_memory(ConstantIntensity(), 100, 2.0, allow_infeasible=True)
        assert "infeasible" in result.describe()

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            rebalance_memory(PowerLawIntensity(exponent=0.5), 0, 2.0)
        with pytest.raises(ConfigurationError):
            rebalance_memory(PowerLawIntensity(exponent=0.5), 100, 0.9)

    @given(
        alpha=st.floats(min_value=1.0, max_value=20.0),
        memory=st.floats(min_value=2.0, max_value=1e5),
    )
    @settings(max_examples=60)
    def test_growth_factor_at_least_one(self, alpha, memory):
        """Property: more compute never needs *less* memory."""
        result = rebalance_memory(PowerLawIntensity(exponent=0.5), memory, alpha)
        assert result.growth_factor >= 1.0 - 1e-12


class TestRebalancePE:
    def test_scales_compute_and_memory_together(self):
        pe = ProcessingElement(compute_bandwidth=8e6, io_bandwidth=1e6, memory_words=64)
        rebalanced = rebalance_pe(pe, PowerLawIntensity(exponent=0.5), 3.0)
        assert rebalanced.compute_bandwidth == pytest.approx(24e6)
        assert rebalanced.io_bandwidth == pytest.approx(1e6)
        assert rebalanced.memory_words == 576

    def test_rebalanced_pe_is_balanced_again(self):
        """After rebalancing, the new C/IO equals the intensity at the new M."""
        intensity = PowerLawIntensity(exponent=0.5)
        pe = ProcessingElement(compute_bandwidth=8e6, io_bandwidth=1e6, memory_words=64)
        assert intensity(pe.memory_words) == pytest.approx(pe.compute_io_ratio)
        rebalanced = rebalance_pe(pe, intensity, 4.0)
        assert intensity(rebalanced.memory_words) == pytest.approx(
            rebalanced.compute_io_ratio, rel=1e-6
        )

    def test_io_bound_pe_cannot_be_rebalanced(self):
        pe = ProcessingElement(compute_bandwidth=2e6, io_bandwidth=1e6, memory_words=64)
        with pytest.raises(RebalanceInfeasibleError):
            rebalance_pe(pe, ConstantIntensity(value=2.0), 2.0)


class TestMemoryForRatio:
    def test_design_direction(self):
        """Given C/IO, find the memory that balances the PE (Warp-style sizing)."""
        assert memory_for_ratio(PowerLawIntensity(exponent=0.5), 32.0) == pytest.approx(1024.0)

    def test_balanced_memory_for_pe(self):
        pe = ProcessingElement(compute_bandwidth=32e6, io_bandwidth=1e6, memory_words=1)
        assert balanced_memory_for_pe(pe, PowerLawIntensity(exponent=0.5)) == pytest.approx(
            1024.0
        )

    def test_fft_design_direction(self):
        assert memory_for_ratio(LogarithmicIntensity(), 20.0) == pytest.approx(2.0**20)

    def test_invalid_ratio(self):
        with pytest.raises(ConfigurationError):
            memory_for_ratio(PowerLawIntensity(exponent=0.5), 0.0)


class TestRebalanceCurveAndVerifyLaw:
    def test_curve_has_one_result_per_alpha(self):
        curve = rebalance_curve(PowerLawIntensity(exponent=0.5), 64, (1.0, 2.0, 4.0))
        assert [r.alpha for r in curve] == [1.0, 2.0, 4.0]
        assert [r.memory_new for r in curve] == pytest.approx([64.0, 256.0, 1024.0])

    def test_curve_with_io_bound_keeps_infeasible_entries(self):
        curve = rebalance_curve(ConstantIntensity(), 64, (1.0, 2.0))
        assert curve[0].feasible is True
        assert curve[1].feasible is False

    def test_verify_law_accepts_matching_pair(self):
        assert verify_law(
            PowerLawIntensity(exponent=0.5),
            PolynomialMemoryLaw(degree=2),
            memory_old=128,
            alphas=(1.0, 1.5, 2.0, 4.0),
        )

    def test_verify_law_rejects_wrong_degree(self):
        assert not verify_law(
            PowerLawIntensity(exponent=0.5),
            PolynomialMemoryLaw(degree=3),
            memory_old=128,
            alphas=(2.0, 4.0),
        )

    def test_verify_law_with_tabulated_measurements(self):
        """A measured sqrt-intensity table verifies the paper's alpha^2 law."""
        mems = [2.0**k for k in range(2, 16)]
        table = TabulatedIntensity(mems, [m**0.5 for m in mems])
        assert verify_law(
            table, PolynomialMemoryLaw(degree=2), memory_old=64, alphas=(1.5, 2.0, 4.0)
        )
