"""Tests for the experiment drivers (E1-E13)."""

from __future__ import annotations

import math

import pytest

from repro.core.classification import ComputationClass
from repro.core.intensity import PowerLawIntensity
from repro.experiments.arrays_section4 import (
    linear_array_task,
    mesh_array_task,
    run_linear_array_experiment,
    run_mesh_array_experiment,
    run_systolic_experiment,
    systolic_task,
)
from repro.experiments.fft_figure2 import (
    figure2_task,
    render_decomposition,
    run_figure2_experiment,
)
from repro.experiments.intensity import run_intensity_experiment
from repro.experiments.pebble_bounds import (
    measure_pebble_point,
    pebble_point_tasks,
    run_pebble_experiment,
)
from repro.experiments.summary import (
    analytic_summary_table,
    default_measurement_plan,
    run_summary_experiment,
)
from repro.experiments.warp_study import run_warp_experiment, warp_task
from repro.kernels.io_bound import StreamingMatrixVectorProduct
from repro.kernels.matmul import BlockedMatrixMultiply
from repro.runtime.cache import TaskCache
from repro.runtime.tasks import TaskRunner


class TestSummaryExperiment:
    def test_quick_plan_reproduces_every_classification(self):
        """Experiment E1: the measured classes match the paper's summary."""
        experiment = run_summary_experiment(quick=True)
        assert experiment.all_agree
        measured = {law.registry_name: law for law in experiment.measured_laws}
        assert measured["matmul"].measured.computation_class is ComputationClass.POLYNOMIAL
        assert measured["fft"].measured.computation_class is ComputationClass.EXPONENTIAL
        assert measured["matvec"].measured.computation_class is ComputationClass.IO_BOUNDED

    def test_matmul_measured_degree_close_to_two(self):
        experiment = run_summary_experiment(quick=True)
        matmul = next(l for l in experiment.measured_laws if l.registry_name == "matmul")
        assert matmul.measured.detail == pytest.approx(2.0, abs=0.5)

    def test_summary_table_renders(self):
        experiment = run_summary_experiment(quick=True)
        text = experiment.table().render_ascii()
        assert "Section 3 summary" in text
        assert "BlockedFFT" in text

    def test_analytic_table_lists_all_registry_entries(self):
        text = analytic_summary_table().render_markdown()
        for fragment in ("Matrix multiplication", "Fast Fourier transform", "Sorting"):
            assert fragment in text

    def test_measurement_plan_kernels_are_registered(self):
        for case in default_measurement_plan(quick=True) + default_measurement_plan():
            assert case.kernel.registry_name is not None
            assert len(case.memory_sizes) >= 3


class TestIntensityExperiment:
    def test_matmul_experiment_shape(self, rng):
        experiment = run_intensity_experiment(
            BlockedMatrixMultiply(), (12, 27, 48, 108, 192), scale=24
        )
        assert experiment.intensity_exponent == pytest.approx(0.5, abs=0.15)
        assert experiment.memory_growth_exponent == pytest.approx(2.0, abs=0.6)
        assert experiment.rebalancable

    def test_matvec_experiment_is_infeasible(self):
        experiment = run_intensity_experiment(
            StreamingMatrixVectorProduct(), (8, 32, 128, 512), scale=32
        )
        assert not experiment.rebalancable
        assert math.isinf(experiment.memory_growth_exponent)

    def test_tables_render(self):
        experiment = run_intensity_experiment(
            BlockedMatrixMultiply(), (12, 48, 108), scale=16
        )
        assert "measured intensity" in experiment.table().render_ascii()
        assert "rebalancing" in experiment.rebalance_table().render_ascii()


class TestFigure2Experiment:
    def test_default_matches_paper_figure(self):
        """N=16, M=4: two passes of four 4-point blocks, numerically correct."""
        result = run_figure2_experiment()
        assert result.pass_count == 2
        assert result.blocks_per_pass == 4
        assert result.block_points == 4
        assert result.correct

    def test_larger_instance(self):
        result = run_figure2_experiment(n_points=64, block_points=8)
        assert result.pass_count == 2
        assert result.correct

    def test_render_and_table(self):
        result = run_figure2_experiment()
        rendering = render_decomposition(result)
        assert "pass 1" in rendering and "pass 2" in rendering
        assert "Figure 2" in result.table().render_ascii()


class TestArrayExperiments:
    def test_linear_array_per_cell_memory_grows_linearly(self):
        experiment = run_linear_array_experiment((2, 4, 8, 16, 32))
        assert experiment.per_cell_growth_exponent == pytest.approx(1.0, abs=0.05)

    def test_mesh_per_cell_memory_constant_for_matmul(self):
        experiment = run_mesh_array_experiment((2, 4, 8, 16))
        assert experiment.per_cell_growth_exponent == pytest.approx(0.0, abs=0.05)

    def test_mesh_grows_for_high_dimensional_grids(self):
        experiment = run_mesh_array_experiment(
            (2, 4, 8, 16), intensity=PowerLawIntensity(exponent=0.25)
        )
        assert experiment.per_cell_growth_exponent == pytest.approx(2.0, abs=0.1)

    def test_tables_render(self):
        assert "per-cell memory" in run_linear_array_experiment((2, 4)).table().render_ascii()

    def test_systolic_experiment(self):
        experiment = run_systolic_experiment(order=4, batches=16)
        assert experiment.matmul_correct and experiment.matvec_correct
        assert experiment.matmul_utilization > 0.8
        assert experiment.matvec_utilization > 0.8
        assert "systolic" in experiment.table().render_ascii().lower()


class TestPebbleExperiment:
    def test_measured_io_between_lower_bound_and_naive(self):
        experiment = run_pebble_experiment(
            matmul_order=4, fft_points=32, matmul_memories=(4, 8, 16), fft_memories=(4, 8, 16)
        )
        assert experiment.all_above_lower_bound

    def test_io_decreases_with_memory(self):
        experiment = run_pebble_experiment(
            matmul_order=4, fft_points=32, matmul_memories=(4, 16), fft_memories=(4, 16)
        )
        matmul_points = experiment.points_for(f"matmul[4]")
        assert matmul_points[0].measured_io > matmul_points[1].measured_io

    def test_table_renders(self):
        experiment = run_pebble_experiment(
            matmul_order=3, fft_points=16, matmul_memories=(4, 8), fft_memories=(4, 8)
        )
        assert "pebble game" in experiment.table().render_ascii().lower()


class TestWarpExperiment:
    def test_paper_conclusions(self):
        experiment = run_warp_experiment()
        assert experiment.cell_not_io_starved
        assert experiment.memory_covers_production_array
        assert experiment.production_array_per_cell_memory <= 64 * 1024

    def test_alpha_sweep_quadratic(self):
        experiment = run_warp_experiment(alphas=(1.0, 2.0, 4.0))
        memories = dict(experiment.alpha_sweep)
        assert memories[4.0] / memories[1.0] == pytest.approx(16.0)

    def test_tables_render(self):
        experiment = run_warp_experiment(array_lengths=(2, 10), alphas=(1.0, 2.0))
        assert "Warp" in experiment.cell_table().render_ascii()
        assert "per-cell memory" in experiment.array_table().render_ascii()
        assert "memory" in experiment.alpha_table().render_ascii()

    def test_missing_production_length_raises(self):
        experiment = run_warp_experiment(array_lengths=(2, 4), alphas=(1.0,))
        with pytest.raises(LookupError):
            _ = experiment.production_array_per_cell_memory


class TestExperimentTaskRuntime:
    """Every migrated experiment: serial == parallel, cold == warm."""

    def _all_tasks(self):
        return [
            figure2_task(),
            linear_array_task((2, 4, 8, 16)),
            mesh_array_task((2, 4, 8)),
            systolic_task(order=4, batches=6),
            warp_task(array_lengths=(2, 4, 10), alphas=(1.0, 2.0)),
            *pebble_point_tasks(
                matmul_order=4,
                fft_points=16,
                matmul_memories=(4, 8),
                fft_memories=(4, 8),
            ),
        ]

    @staticmethod
    def _fingerprints(results):
        """Scalar fingerprints of each experiment result, for bitwise checks."""
        figure2, linear, mesh, systolic, warp, *pebble = results
        return [
            (figure2.pass_count, figure2.max_output_error),
            linear.per_cell_memories,
            mesh.per_cell_memories,
            (
                systolic.matmul_utilization,
                systolic.matvec_utilization,
                systolic.qr_utilization,
            ),
            (warp.alpha_sweep, tuple(r.per_cell_memory_words for r in warp.array_sizing)),
            *[(p.dag_name, p.measured_io, p.lower_bound) for p in pebble],
        ]

    def test_serial_equals_parallel_bitwise(self):
        serial = TaskRunner().run(self._all_tasks())
        parallel = TaskRunner(parallel=True, max_workers=2).run(self._all_tasks())
        assert self._fingerprints(serial) == self._fingerprints(parallel)

    def test_cold_equals_warm_bitwise(self, tmp_path):
        cache = TaskCache(tmp_path / "tasks")
        runner = TaskRunner(cache=cache)
        tasks = self._all_tasks()
        cold = runner.run(tasks)
        assert cache.stats.misses == len(tasks)
        warm = runner.run(tasks)
        assert cache.stats.hits == len(tasks)
        assert self._fingerprints(cold) == self._fingerprints(warm)

    def test_figure2_task_matches_direct_driver(self):
        (via_task,) = TaskRunner().run([figure2_task(n_points=32, block_points=4)])
        direct = run_figure2_experiment(n_points=32, block_points=4)
        assert via_task.pass_count == direct.pass_count
        assert via_task.max_output_error == direct.max_output_error

    def test_pebble_experiment_through_parallel_cached_runner(self, tmp_path):
        cache = TaskCache(tmp_path / "tasks")
        kwargs = dict(
            matmul_order=4,
            fft_points=32,
            matmul_memories=(4, 8, 16),
            fft_memories=(4, 8, 16),
        )
        serial = run_pebble_experiment(**kwargs)
        pooled = run_pebble_experiment(
            **kwargs, runner=TaskRunner(parallel=True, max_workers=2, cache=cache)
        )
        assert [(p.dag_name, p.fast_memory_words, p.measured_io) for p in serial.points] == [
            (p.dag_name, p.fast_memory_words, p.measured_io) for p in pooled.points
        ]
        warm = run_pebble_experiment(**kwargs, runner=TaskRunner(cache=cache))
        assert cache.stats.hits == 6
        assert [p.measured_io for p in warm.points] == [
            p.measured_io for p in pooled.points
        ]

    def test_measure_pebble_point_validates_kind(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            measure_pebble_point(dag_kind="sorting", size=8, fast_memory_words=4)
        with pytest.raises(ConfigurationError):
            measure_pebble_point(
                dag_kind="fft", size=8, fast_memory_words=4, blocked=True
            )
