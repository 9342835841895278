"""Tests for the intensity functions F(M) = C_comp / C_io."""

from __future__ import annotations

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intensity import (
    ConstantIntensity,
    LogarithmicIntensity,
    PowerLawIntensity,
    TabulatedIntensity,
)
from repro.exceptions import ConfigurationError, RebalanceInfeasibleError


def _bisection_200(table: TabulatedIntensity, target: float) -> float:
    """Reference for ``table.invert(target)`` with ``0 < target <= F(M_max)``:
    the geometric bisection run for a fixed 200 steps."""
    (m_first, f_first), (m_last, _) = table.samples[0], table.samples[-1]
    if target <= f_first:
        return max(m_first, 1.0)
    lo, hi = m_first, m_last
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if table(mid) < target:
            lo = mid
        else:
            hi = mid
    return hi


def _bits(value: float) -> bytes:
    return struct.pack("d", value)


_INTENSITIES = st.floats(min_value=1e-3, max_value=1e6)


@st.composite
def _tables_and_targets(draw) -> tuple[TabulatedIntensity, float]:
    """A monotone, non-monotone or flat table, and a target it can bisect for."""
    mems = sorted(
        draw(
            st.lists(
                st.integers(min_value=1, max_value=10**9),
                min_size=2, max_size=8, unique=True,
            )
        )
    )
    size = len(mems)
    shape = draw(st.sampled_from(["monotone", "non-monotone", "flat"]))
    if shape == "monotone":
        vals = sorted(draw(st.lists(_INTENSITIES, min_size=size, max_size=size)))
    elif shape == "non-monotone":
        vals = draw(st.lists(_INTENSITIES, min_size=size, max_size=size))
    else:  # one or two plateaus
        levels = draw(st.lists(_INTENSITIES, min_size=1, max_size=2))
        vals = sorted(
            draw(st.lists(st.sampled_from(levels), min_size=size, max_size=size))
        )
    # invert bisects for targets in (F(M_first), F(M_last)]; a target at or
    # below F(M_first) returns M_first.
    first, last = vals[0], vals[-1]
    bisected = [v for v in vals if first < v <= last]
    where = draw(st.sampled_from(["inside", "sample", "sample"]))
    if where == "inside" and first < last:
        target = draw(st.floats(min_value=first, max_value=last, exclude_min=True))
    elif bisected and draw(st.booleans()):
        target = draw(st.sampled_from(bisected))
    else:
        target = draw(st.sampled_from([v for v in vals if v <= last]))
    return TabulatedIntensity(mems, vals), target


class TestPowerLawIntensity:
    def test_matmul_intensity_is_sqrt(self):
        intensity = PowerLawIntensity(exponent=0.5)
        assert intensity(100) == pytest.approx(10.0)
        assert intensity(10_000) == pytest.approx(100.0)

    def test_coefficient_scales_value(self):
        assert PowerLawIntensity(exponent=0.5, coefficient=3.0)(4) == pytest.approx(6.0)

    def test_invert_is_inverse_of_call(self):
        intensity = PowerLawIntensity(exponent=0.5, coefficient=2.0)
        memory = intensity.invert(intensity(777.0))
        assert memory == pytest.approx(777.0)

    def test_rebalanced_memory_matches_alpha_squared_law(self):
        intensity = PowerLawIntensity(exponent=0.5)
        assert intensity.rebalanced_memory(100, 3.0) == pytest.approx(900.0)

    def test_rebalanced_memory_general_exponent(self):
        # d-dimensional grid: exponent 1/d implies growth alpha**d.
        intensity = PowerLawIntensity(exponent=1.0 / 3.0)
        assert intensity.growth_factor(64, 2.0) == pytest.approx(8.0)

    def test_alpha_one_is_identity(self):
        intensity = PowerLawIntensity(exponent=0.5)
        assert intensity.rebalanced_memory(123, 1.0) == pytest.approx(123.0)

    def test_unbounded(self):
        assert PowerLawIntensity(exponent=0.5).unbounded is True

    def test_invalid_exponent_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerLawIntensity(exponent=0.0)
        with pytest.raises(ConfigurationError):
            PowerLawIntensity(exponent=-1.0)

    def test_invalid_coefficient_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerLawIntensity(exponent=0.5, coefficient=0.0)

    def test_invalid_memory_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerLawIntensity(exponent=0.5)(0)

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerLawIntensity(exponent=0.5).rebalanced_memory(100, 0.5)

    def test_describe_mentions_exponent(self):
        assert "0.5" in PowerLawIntensity(exponent=0.5).describe()

    @given(
        exponent=st.floats(min_value=0.2, max_value=2.0),
        memory=st.floats(min_value=1.0, max_value=1e6),
        alpha=st.floats(min_value=1.0, max_value=50.0),
    )
    @settings(max_examples=60)
    def test_rebalanced_memory_restores_balance(self, exponent, memory, alpha):
        """Property: F(M_new) == alpha * F(M_old) for any power law."""
        intensity = PowerLawIntensity(exponent=exponent)
        new_memory = intensity.rebalanced_memory(memory, alpha)
        assert intensity(new_memory) == pytest.approx(alpha * intensity(memory), rel=1e-9)

    @given(
        exponent=st.floats(min_value=0.2, max_value=2.0),
        m1=st.floats(min_value=1.0, max_value=1e6),
        m2=st.floats(min_value=1.0, max_value=1e6),
    )
    @settings(max_examples=60)
    def test_monotone_in_memory(self, exponent, m1, m2):
        intensity = PowerLawIntensity(exponent=exponent)
        lo, hi = sorted((m1, m2))
        assert intensity(lo) <= intensity(hi) + 1e-12


class TestLogarithmicIntensity:
    def test_fft_intensity_is_log2(self):
        intensity = LogarithmicIntensity()
        assert intensity(1024) == pytest.approx(10.0)

    def test_rebalanced_memory_is_exponential(self):
        intensity = LogarithmicIntensity()
        assert intensity.rebalanced_memory(16, 2.0) == pytest.approx(256.0)
        assert intensity.rebalanced_memory(16, 3.0) == pytest.approx(4096.0)

    def test_invert_round_trip(self):
        intensity = LogarithmicIntensity(coefficient=1.5, base=2.0)
        assert intensity.invert(intensity(500.0)) == pytest.approx(500.0)

    def test_other_base(self):
        intensity = LogarithmicIntensity(base=10.0)
        assert intensity(1000) == pytest.approx(3.0)

    def test_unbounded(self):
        assert LogarithmicIntensity().unbounded is True

    def test_invalid_base_rejected(self):
        with pytest.raises(ConfigurationError):
            LogarithmicIntensity(base=1.0)

    def test_invalid_coefficient_rejected(self):
        with pytest.raises(ConfigurationError):
            LogarithmicIntensity(coefficient=-1.0)

    @given(
        memory=st.floats(min_value=2.0, max_value=1e5),
        alpha=st.floats(min_value=1.0, max_value=6.0),
    )
    @settings(max_examples=60)
    def test_rebalanced_memory_equals_power_of_old(self, memory, alpha):
        """Property: the paper's M_new = M_old ** alpha closed form."""
        intensity = LogarithmicIntensity()
        new_memory = intensity.rebalanced_memory(memory, alpha)
        assert math.log(new_memory) == pytest.approx(alpha * math.log(memory), rel=1e-9)


class TestConstantIntensity:
    def test_value_is_constant(self):
        intensity = ConstantIntensity(value=2.0)
        assert intensity(10) == intensity(1_000_000) == 2.0

    def test_not_unbounded(self):
        assert ConstantIntensity().unbounded is False

    def test_invert_below_value_returns_minimum(self):
        assert ConstantIntensity(value=2.0).invert(1.0) == pytest.approx(1.0)

    def test_invert_above_value_is_infeasible(self):
        with pytest.raises(RebalanceInfeasibleError):
            ConstantIntensity(value=2.0).invert(3.0)

    def test_rebalance_infeasible_for_alpha_above_one(self):
        with pytest.raises(RebalanceInfeasibleError):
            ConstantIntensity().rebalanced_memory(100, 2.0)

    def test_rebalance_alpha_one_is_fine(self):
        assert ConstantIntensity().rebalanced_memory(100, 1.0) == pytest.approx(100.0)

    def test_invalid_value_rejected(self):
        with pytest.raises(ConfigurationError):
            ConstantIntensity(value=0.0)


class TestTabulatedIntensity:
    def test_interpolates_through_samples(self):
        table = TabulatedIntensity([4, 16, 64, 256], [2, 4, 8, 16])
        for memory, value in [(4, 2), (16, 4), (64, 8), (256, 16)]:
            assert table(memory) == pytest.approx(value)

    def test_log_log_interpolation_between_samples(self):
        # Samples from F = sqrt(M); interpolation should stay on the curve.
        mems = [4, 64, 1024]
        table = TabulatedIntensity(mems, [m**0.5 for m in mems])
        assert table(256) == pytest.approx(16.0, rel=1e-9)

    def test_extrapolation_continues_tail_slope(self):
        mems = [4, 16, 64]
        table = TabulatedIntensity(mems, [m**0.5 for m in mems])
        assert table(256) == pytest.approx(16.0, rel=1e-6)

    def test_invert_within_range(self):
        mems = [4, 16, 64, 256]
        table = TabulatedIntensity(mems, [m**0.5 for m in mems])
        assert table.invert(8.0) == pytest.approx(64.0, rel=1e-3)

    def test_invert_beyond_range_extrapolates(self):
        mems = [4, 16, 64]
        table = TabulatedIntensity(mems, [m**0.5 for m in mems])
        assert table.invert(32.0) == pytest.approx(1024.0, rel=1e-3)

    def test_flat_tail_is_not_invertible_beyond_plateau(self):
        table = TabulatedIntensity([4, 16, 64, 256], [2.0, 2.0, 2.0, 2.0])
        with pytest.raises(RebalanceInfeasibleError):
            table.invert(5.0)

    def test_flat_tail_reported_as_bounded(self):
        table = TabulatedIntensity([4, 16, 64], [2.0, 2.0, 2.0])
        assert table.unbounded is False

    def test_rising_curve_reported_as_unbounded(self):
        table = TabulatedIntensity([4, 16, 64], [2.0, 4.0, 8.0])
        assert table.unbounded is True

    def test_samples_are_exposed_sorted(self):
        table = TabulatedIntensity([64, 4, 16], [8.0, 2.0, 4.0])
        assert table.samples == [(4.0, 2.0), (16.0, 4.0), (64.0, 8.0)]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            TabulatedIntensity([1, 2, 3], [1, 2])

    def test_single_sample_rejected(self):
        with pytest.raises(ConfigurationError):
            TabulatedIntensity([4], [2])

    def test_duplicate_memory_rejected(self):
        with pytest.raises(ConfigurationError):
            TabulatedIntensity([4, 4, 16], [1, 2, 3])

    def test_non_positive_samples_rejected(self):
        with pytest.raises(ConfigurationError):
            TabulatedIntensity([4, 16], [0.0, 2.0])

    @given(case=_tables_and_targets())
    @settings(max_examples=400)
    def test_invert_is_bitwise_the_200_step_bisection(self, case):
        table, target = case
        assert _bits(table.invert(target)) == _bits(_bisection_200(table, target))

    def test_invert_stops_at_the_bisection_fixpoint(self):
        calls = []

        class Counting(TabulatedIntensity):
            def __call__(self, memory_words):
                calls.append(memory_words)
                return super().__call__(memory_words)

        mems = [4, 16, 64, 256]
        table = Counting(mems, [m**0.5 for m in mems])
        memory = table.invert(8.0)
        # Geometric bisection over [4, 256] pins a double within ~60 steps.
        assert len(calls) < 100, len(calls)
        assert _bits(memory) == _bits(_bisection_200(table, 8.0))

    @given(
        exponent=st.floats(min_value=0.25, max_value=1.0),
        alpha=st.floats(min_value=1.0, max_value=3.0),
    )
    @settings(max_examples=40)
    def test_tabulated_power_law_rebalances_like_analytic(self, exponent, alpha):
        """Property: a table sampled from a power law reproduces its rebalancing."""
        mems = [2.0**k for k in range(2, 14)]
        table = TabulatedIntensity(mems, [m**exponent for m in mems])
        analytic = PowerLawIntensity(exponent=exponent)
        memory_old = 64.0
        assert table.rebalanced_memory(memory_old, alpha) == pytest.approx(
            analytic.rebalanced_memory(memory_old, alpha), rel=1e-3
        )
