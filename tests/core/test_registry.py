"""Tests for the registry of the paper's computations."""

from __future__ import annotations

import pytest

from repro.core.classification import ComputationClass, classify_intensity
from repro.core.intensity import PowerLawIntensity
from repro.core.laws import (
    ExponentialMemoryLaw,
    InfeasibleMemoryLaw,
    PolynomialMemoryLaw,
)
from repro.core import registry
from repro.core.registry import ComputationSpec
from repro.exceptions import ConfigurationError, UnknownComputationError


EXPECTED_NAMES = {
    "matmul",
    "triangularization",
    "grid2d",
    "grid1d",
    "grid3d",
    "grid4d",
    "fft",
    "sorting",
    "matvec",
    "triangular_solve",
}


class TestRegistryContents:
    def test_all_paper_computations_registered(self):
        assert EXPECTED_NAMES.issubset(set(registry.names()))

    def test_matmul_entry_matches_paper(self):
        spec = registry.get("matmul")
        assert isinstance(spec.law, PolynomialMemoryLaw)
        assert spec.law.degree == 2
        assert spec.computation_class is ComputationClass.POLYNOMIAL
        assert spec.paper_section == "3.1"

    def test_triangularization_entry(self):
        spec = registry.get("triangularization")
        assert isinstance(spec.law, PolynomialMemoryLaw) and spec.law.degree == 2

    def test_grid_entries_have_degree_d(self):
        for d in (1, 2, 3, 4):
            spec = registry.get(f"grid{d}d")
            assert isinstance(spec.law, PolynomialMemoryLaw)
            assert spec.law.degree == d
            assert spec.intensity.exponent == pytest.approx(1.0 / d)

    def test_fft_and_sorting_are_exponential(self):
        for name in ("fft", "sorting"):
            spec = registry.get(name)
            assert isinstance(spec.law, ExponentialMemoryLaw)
            assert spec.computation_class is ComputationClass.EXPONENTIAL

    def test_io_bounded_entries(self):
        for name in ("matvec", "triangular_solve"):
            spec = registry.get(name)
            assert isinstance(spec.law, InfeasibleMemoryLaw)
            assert spec.computation_class is ComputationClass.IO_BOUNDED
            assert spec.paper_section == "3.6"

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownComputationError):
            registry.get("quicksort-on-gpu")

    def test_unknown_name_error_lists_known_computations(self):
        with pytest.raises(UnknownComputationError, match="matmul"):
            registry.get("quicksort-on-gpu")

    def test_unknown_computation_error_is_a_key_error(self):
        """Callers using dict-style except KeyError keep working."""
        with pytest.raises(KeyError):
            registry.get("quicksort-on-gpu")

    def test_every_class_has_a_registered_computation(self):
        """Each class of the paper's taxonomy has at least one entry."""
        classes = {spec.computation_class for spec in registry.all_specs()}
        assert classes == set(ComputationClass)

    def test_class_agrees_with_intensity_classification(self):
        """An entry's declared class is the one its intensity function implies."""
        for spec in registry.all_specs():
            implied = classify_intensity(spec.intensity).computation_class
            assert implied is spec.computation_class, spec.name
            assert spec.law.feasible is spec.computation_class.rebalancable, spec.name

    def test_law_and_intensity_are_consistent(self):
        """For every rebalancable entry, the law matches the intensity inversion."""
        for spec in registry.all_specs():
            if not spec.law.feasible:
                continue
            for alpha in (1.5, 2.0, 3.0):
                predicted = spec.law.required_memory(256, alpha)
                numeric = spec.intensity.rebalanced_memory(256, alpha)
                assert predicted == pytest.approx(numeric, rel=1e-6), spec.name

    def test_summary_rows_cover_every_entry(self):
        rows = registry.paper_summary_rows()
        assert len(rows) == len(registry.all_specs())
        assert {"computation", "section", "intensity", "rebalancing law", "class"} <= set(
            rows[0]
        )

    def test_summary_rows_report_each_entry_class(self):
        rows = {row["computation"]: row for row in registry.paper_summary_rows()}
        for spec in registry.all_specs():
            assert rows[spec.title]["class"] == spec.computation_class.value
            assert rows[spec.title]["section"] == spec.paper_section


class TestCostModels:
    def test_matmul_costs_match_intensity_shape(self):
        """C_comp/C_io of the cost model grows like sqrt(M) (Equation (2))."""
        spec = registry.get("matmul")
        n = 4096
        ratios = [spec.costs(n, m).intensity for m in (256, 1024, 4096)]
        assert ratios[1] / ratios[0] == pytest.approx(2.0, rel=0.1)
        assert ratios[2] / ratios[1] == pytest.approx(2.0, rel=0.1)

    def test_matmul_io_decreases_with_memory(self):
        spec = registry.get("matmul")
        io_small = spec.costs(4096, 256).io_words
        io_large = spec.costs(4096, 4096).io_words
        assert io_large < io_small

    def test_matmul_compute_is_theta_n_cubed(self):
        spec = registry.get("matmul")
        small = spec.costs(512, 1024).compute_ops
        large = spec.costs(1024, 1024).compute_ops
        assert large / small == pytest.approx(8.0, rel=0.05)

    def test_fft_costs_match_log_intensity(self):
        spec = registry.get("fft")
        n = 2**20
        ratios = [spec.costs(n, m).intensity for m in (2**8, 2**12, 2**16)]
        # Intensity proportional to log2(M): 8 -> 12 -> 16.
        assert ratios[1] / ratios[0] == pytest.approx(12.0 / 8.0, rel=0.15)
        assert ratios[2] / ratios[1] == pytest.approx(16.0 / 12.0, rel=0.15)

    def test_matvec_intensity_independent_of_memory(self):
        spec = registry.get("matvec")
        values = [spec.costs(2048, m).intensity for m in (16, 256, 65536)]
        assert max(values) / min(values) < 1.01

    def test_grid_costs_surface_to_volume(self):
        spec = registry.get("grid3d")
        ratios = [spec.costs(512, m).intensity for m in (2**9, 2**12, 2**15)]
        # Intensity proportional to M^(1/3): each step doubles.
        assert ratios[1] / ratios[0] == pytest.approx(2.0, rel=0.1)
        assert ratios[2] / ratios[1] == pytest.approx(2.0, rel=0.1)

    def test_sorting_costs_grow_with_log_memory(self):
        spec = registry.get("sorting")
        n = 2**24
        ratios = [spec.costs(n, m).intensity for m in (2**6, 2**10, 2**14)]
        assert ratios[0] < ratios[1] < ratios[2]

    def test_invalid_problem_rejected(self):
        spec = registry.get("matmul")
        with pytest.raises(ConfigurationError):
            spec.costs(0, 100)
        with pytest.raises(ConfigurationError):
            spec.costs(100, 0)

    def test_intensity_at_helper(self):
        spec = registry.get("matmul")
        assert spec.intensity_at(1024) == pytest.approx(32.0)


class TestRegisterFunction:
    def test_duplicate_registration_rejected(self):
        spec = registry.get("matmul")
        with pytest.raises(ConfigurationError):
            registry.register(spec)

    def test_overwrite_allowed_when_requested(self):
        spec = registry.get("matmul")
        assert registry.register(spec, overwrite=True) is spec

    def test_register_and_fetch_custom_computation(self):
        custom = ComputationSpec(
            name="test-custom-stencil",
            title="custom stencil",
            intensity=PowerLawIntensity(exponent=0.5),
            law=PolynomialMemoryLaw(degree=2),
            computation_class=ComputationClass.POLYNOMIAL,
            cost_model=lambda n, m: registry.get("matmul").cost_model(n, m),
            paper_section="n/a",
            description="registered by the test suite",
            law_label="M_new = alpha^2 * M_old",
        )
        try:
            registry.register(custom)
            assert registry.get("test-custom-stencil") is custom
        finally:
            registry._REGISTRY.pop("test-custom-stencil", None)
