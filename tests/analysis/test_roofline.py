"""Tests for the roofline view of the balance condition."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.roofline import (
    attainable_performance,
    memory_for_ridge,
    ridge_point,
    roofline_chart,
)
from repro.core.intensity import ConstantIntensity, LogarithmicIntensity, PowerLawIntensity
from repro.core.model import ProcessingElement
from repro.core.rebalance import balanced_memory_for_pe
from repro.exceptions import ConfigurationError, RebalanceInfeasibleError

PE = ProcessingElement(compute_bandwidth=32e6, io_bandwidth=1e6, memory_words=1024, name="pe")


class TestRooflineQuantities:
    def test_ridge_point_is_compute_io_ratio(self):
        assert ridge_point(PE) == pytest.approx(32.0)

    def test_attainable_below_ridge_is_bandwidth_limited(self):
        assert attainable_performance(PE, 8.0) == pytest.approx(8e6)

    def test_attainable_above_ridge_is_compute_limited(self):
        assert attainable_performance(PE, 100.0) == pytest.approx(32e6)

    def test_attainable_at_ridge_equals_peak(self):
        assert attainable_performance(PE, ridge_point(PE)) == pytest.approx(
            PE.compute_bandwidth
        )

    def test_negative_intensity_rejected(self):
        with pytest.raises(ConfigurationError):
            attainable_performance(PE, -1.0)

    def test_memory_for_ridge_matches_balance_condition(self):
        """The roofline ridge and the paper's balance condition coincide."""
        for intensity in (PowerLawIntensity(exponent=0.5), LogarithmicIntensity()):
            assert memory_for_ridge(PE, intensity) == pytest.approx(
                balanced_memory_for_pe(PE, intensity)
            )

    def test_compute_bound_exactly_from_the_ridge_point(self):
        """A workload reaches the compute roof exactly when F >= C / IO."""
        for intensity in (0.5, 2.0, 31.0, 32.0, 33.0, 64.0, 1e3):
            at_peak = attainable_performance(PE, intensity) == pytest.approx(
                PE.compute_bandwidth
            )
            assert at_peak == (intensity >= ridge_point(PE)), intensity

    def test_io_bounded_computation_never_climbs_to_the_ridge(self):
        """A constant intensity below the ridge stays there at any memory size."""
        with pytest.raises(RebalanceInfeasibleError):
            memory_for_ridge(PE, ConstantIntensity(value=2.0))
        above = ConstantIntensity(value=64.0)
        assert above(memory_for_ridge(PE, above)) >= ridge_point(PE)

    @given(intensity=st.floats(min_value=0.01, max_value=1e4))
    @settings(max_examples=60)
    def test_attainable_never_exceeds_either_roof(self, intensity):
        value = attainable_performance(PE, intensity)
        assert value <= PE.compute_bandwidth + 1e-9
        assert value <= PE.io_bandwidth * intensity + 1e-9


class TestRooflineChart:
    def test_chart_contains_workloads_and_ridge(self):
        chart = roofline_chart(PE, {"matmul@M=1024": 32.0, "matvec": 2.0})
        assert "Roofline" in chart
        assert "matvec" in chart and "matmul@M=1024" in chart
        assert "ridge at F = 32" in chart

    def test_empty_workloads_rejected(self):
        with pytest.raises(ConfigurationError):
            roofline_chart(PE, {})

    def test_custom_intensity_range(self):
        chart = roofline_chart(PE, {"w": 4.0}, intensity_range=(1.0, 10.0, 100.0))
        assert "legend" in chart

    def test_invalid_intensity_range_rejected(self):
        with pytest.raises(ConfigurationError):
            roofline_chart(PE, {"w": 4.0}, intensity_range=(0.0, 1.0))
