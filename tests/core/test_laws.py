"""Tests for the memory rebalancing laws."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intensity import (
    ConstantIntensity,
    LogarithmicIntensity,
    PowerLawIntensity,
    TabulatedIntensity,
)
from repro.core.laws import (
    ExponentialMemoryLaw,
    InfeasibleMemoryLaw,
    PolynomialMemoryLaw,
    law_from_intensity,
)
from repro.exceptions import ConfigurationError, RebalanceInfeasibleError


class TestPolynomialMemoryLaw:
    def test_alpha_squared_law(self):
        law = PolynomialMemoryLaw(degree=2)
        assert law.required_memory(100, 3.0) == pytest.approx(900.0)

    def test_alpha_d_law(self):
        law = PolynomialMemoryLaw(degree=4)
        assert law.growth_factor(10, 2.0) == pytest.approx(16.0)

    def test_growth_factor_does_not_depend_on_the_base_memory(self):
        """A degree-3 law grows every memory by alpha**3, unlike the FFT-class law."""
        law = PolynomialMemoryLaw(degree=3)
        for memory in (1, 77, 1e6):
            assert law.growth_factor(memory, 2.5) == pytest.approx(2.5**3)

    def test_alpha_one_is_identity(self):
        assert PolynomialMemoryLaw(degree=2).required_memory(50, 1.0) == 50

    def test_feasible(self):
        assert PolynomialMemoryLaw(degree=2).feasible is True

    def test_describe(self):
        assert PolynomialMemoryLaw(degree=2).describe() == "M_new = alpha^2 * M_old"

    def test_invalid_degree(self):
        with pytest.raises(ConfigurationError):
            PolynomialMemoryLaw(degree=0)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            PolynomialMemoryLaw(degree=2).required_memory(0, 2.0)
        with pytest.raises(ConfigurationError):
            PolynomialMemoryLaw(degree=2).required_memory(10, 0.5)

    @given(
        degree=st.floats(min_value=0.5, max_value=6.0),
        memory=st.floats(min_value=1.0, max_value=1e6),
        a1=st.floats(min_value=1.0, max_value=10.0),
        a2=st.floats(min_value=1.0, max_value=10.0),
    )
    @settings(max_examples=50)
    def test_composition_property(self, degree, memory, a1, a2):
        """Rebalancing by a1 then a2 equals rebalancing by a1*a2."""
        law = PolynomialMemoryLaw(degree=degree)
        stepwise = law.required_memory(law.required_memory(memory, a1), a2)
        direct = law.required_memory(memory, a1 * a2)
        assert stepwise == pytest.approx(direct, rel=1e-9)


class TestExponentialMemoryLaw:
    def test_fft_law(self):
        law = ExponentialMemoryLaw()
        assert law.required_memory(16, 2.0) == pytest.approx(256.0)
        assert law.required_memory(16, 3.0) == pytest.approx(4096.0)

    def test_growth_is_dramatic_even_for_small_alpha(self):
        """The paper's point: memory blows up far faster than compute grows."""
        law = ExponentialMemoryLaw()
        base = 64 * 1024  # a 64K-word memory
        assert law.required_memory(base, 2.0) / base > 6e4

    def test_minimum_base_memory(self):
        # Memories below two words are clamped so the law stays meaningful.
        assert ExponentialMemoryLaw().required_memory(1, 3.0) == pytest.approx(8.0)

    def test_alpha_one_is_identity(self):
        assert ExponentialMemoryLaw().required_memory(50, 1.0) == 50

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            ExponentialMemoryLaw().required_memory(0.5, 2.0)
        with pytest.raises(ConfigurationError):
            ExponentialMemoryLaw().required_memory(16, 0.5)

    def test_growth_factor_diverges_with_the_base_memory(self):
        """Unlike a polynomial law's, the growth factor at a fixed alpha grows
        with M_old: at alpha = 2 it passes alpha**10 by M_old = 4096."""
        law = ExponentialMemoryLaw()
        factors = [law.growth_factor(m, 2.0) for m in (16, 256, 4096)]
        assert factors[0] < factors[1] < factors[2]
        assert factors[-1] > 2.0**10

    def test_describe(self):
        assert "alpha" in ExponentialMemoryLaw().describe()


class TestInfeasibleMemoryLaw:
    def test_not_feasible(self):
        assert InfeasibleMemoryLaw().feasible is False

    def test_raises_for_alpha_above_one(self):
        with pytest.raises(RebalanceInfeasibleError):
            InfeasibleMemoryLaw().required_memory(100, 2.0)

    def test_alpha_one_is_identity(self):
        assert InfeasibleMemoryLaw().required_memory(100, 1.0) == 100

    def test_invalid_inputs_are_configuration_errors(self):
        """A bad input is reported as such, not as an infeasible rebalance."""
        with pytest.raises(ConfigurationError):
            InfeasibleMemoryLaw().required_memory(0, 1.0)
        with pytest.raises(ConfigurationError):
            InfeasibleMemoryLaw().required_memory(100, 0.5)

    def test_describe_mentions_io_bound(self):
        assert "I/O" in InfeasibleMemoryLaw().describe()


class TestLawFromIntensity:
    def test_sqrt_intensity_gives_square_law(self):
        law = law_from_intensity(PowerLawIntensity(exponent=0.5))
        assert isinstance(law, PolynomialMemoryLaw)
        assert law.degree == pytest.approx(2.0)

    def test_grid_intensity_gives_degree_d_law(self):
        law = law_from_intensity(PowerLawIntensity(exponent=0.25))
        assert law.degree == pytest.approx(4.0)

    def test_log_intensity_gives_exponential_law(self):
        assert isinstance(law_from_intensity(LogarithmicIntensity()), ExponentialMemoryLaw)

    def test_constant_intensity_gives_infeasible_law(self):
        assert isinstance(law_from_intensity(ConstantIntensity()), InfeasibleMemoryLaw)

    def test_tabulated_intensity_has_no_closed_form(self):
        table = TabulatedIntensity([4, 16, 64], [2, 4, 8])
        with pytest.raises(ConfigurationError):
            law_from_intensity(table)

    def test_law_and_intensity_agree_numerically(self):
        """The derived law and the intensity inversion give the same memory."""
        for exponent in (0.5, 1.0 / 3.0, 0.25):
            intensity = PowerLawIntensity(exponent=exponent)
            law = law_from_intensity(intensity)
            for alpha in (1.5, 2.0, 4.0):
                assert law.required_memory(128, alpha) == pytest.approx(
                    intensity.rebalanced_memory(128, alpha), rel=1e-9
                )
