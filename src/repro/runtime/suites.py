"""Declarative scenario suites: named batches of work for the runtime.

A :class:`Scenario` names one kernel, one problem scale and one memory grid
(plus optional rebalancing alphas and a fleet of PE configurations to assess
balance against).  An :class:`ExperimentScenario` names one experiment driver
(Figure 2, the Section 4 arrays, the pebble game, the Warp study) and its
parameters, lowered onto generic :class:`~repro.runtime.tasks.Task` objects.
A :class:`ScenarioSuite` is a named collection of both; :func:`run_suite`
lowers the sweeps onto a :class:`~repro.runtime.engine.SweepRunner` as one
flat batch of points and the experiments onto a
:class:`~repro.runtime.tasks.TaskRunner` as one flat batch of tasks
(:func:`run_experiments`), so every execution in the suite shares the
worker pool and the result caches.  :func:`sweep_payload` is the one
measured-sweep document, behind ``repro sweep`` and the service's sweep jobs.

The named suites double as the CI benchmark surface: ``repro suite quick``
covers every experiment of the reproduction and emits the machine-readable
JSON that the benchmark smoke job uploads as a build artifact
(``BENCH_suite_<name>.json``).
"""

from __future__ import annotations

import csv
import json
import time
import uuid
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.analysis.fitting import fit_power_law, select_intensity_model
from repro.analysis.sweep import MemorySweepResult, measured_rebalance_curve
from repro.core.intensity import PowerLawIntensity
from repro.core.model import ProcessingElement, assess_balance
from repro.exceptions import ConfigurationError, ReproError
from repro.kernels import (
    BlockedFFT,
    BlockedLUTriangularization,
    BlockedMatrixMultiply,
    ExternalMergeSort,
    GridRelaxation,
    StreamingMatrixVectorProduct,
    StreamingSparseMatrixVector,
    StreamingTriangularSolve,
)
from repro.kernels.base import Kernel
from repro.obs import spans as obs_spans
from repro.runtime.cache import TaskCache, cache_layout
from repro.runtime.engine import SweepPlan, SweepRunner
from repro.runtime.tasks import Task, TaskRunner

__all__ = [
    "PEConfig",
    "Scenario",
    "ExperimentScenario",
    "ScenarioSuite",
    "ScenarioResult",
    "ExperimentScenarioResult",
    "SuiteResult",
    "kernel_factories",
    "build_kernel",
    "suite_names",
    "get_suite",
    "run_experiments",
    "run_suite",
    "store_for",
    "sweep_payload",
    "task_runner_for",
]

RESULT_SCHEMA = "repro-suite-result/v3"
EXPERIMENT_PAYLOAD_SCHEMA = "repro-service-experiment/v1"
SWEEP_SCHEMA = "repro-sweep-result/v1"


KERNEL_FACTORIES: dict[str, Callable[[], Kernel]] = {
    "matmul": BlockedMatrixMultiply,
    "triangularization": BlockedLUTriangularization,
    "grid1d": lambda: GridRelaxation(dimension=1),
    "grid2d": lambda: GridRelaxation(dimension=2),
    "grid3d": lambda: GridRelaxation(dimension=3),
    "grid4d": lambda: GridRelaxation(dimension=4),
    "fft": BlockedFFT,
    "sorting": ExternalMergeSort,
    "matvec": StreamingMatrixVectorProduct,
    "triangular_solve": StreamingTriangularSolve,
    "sparse_matvec": StreamingSparseMatrixVector,
}


def kernel_factories() -> dict[str, Callable[[], Kernel]]:
    """Name -> factory for every kernel a scenario can reference."""
    return dict(KERNEL_FACTORIES)


def build_kernel(name: str) -> Kernel:
    """Instantiate a scenario kernel by name."""
    try:
        factory = KERNEL_FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(KERNEL_FACTORIES))
        raise ConfigurationError(
            f"unknown scenario kernel {name!r}; known kernels: {known}"
        ) from None
    return factory()


@dataclass(frozen=True)
class PEConfig:
    """One processing element of a scenario's fleet (memory comes per point)."""

    name: str
    compute_bandwidth: float
    io_bandwidth: float

    def processing_element(self, memory_words: int) -> ProcessingElement:
        return ProcessingElement(
            compute_bandwidth=self.compute_bandwidth,
            io_bandwidth=self.io_bandwidth,
            memory_words=memory_words,
            name=self.name,
        )


@dataclass(frozen=True)
class Scenario:
    """One kernel x one problem scale x one memory grid (+ optional extras)."""

    name: str
    kernel: str
    memory_sizes: tuple[int, ...]
    scale: int
    alphas: tuple[float, ...] = ()
    pes: tuple[PEConfig, ...] = ()

    def plan(self) -> SweepPlan:
        return SweepPlan(
            kernel=build_kernel(self.kernel),
            memory_sizes=self.memory_sizes,
            scale=self.scale,
        )


# ---------------------------------------------------------------------------
# Experiment scenarios: the non-sweep experiments as declarative task batches.
# ---------------------------------------------------------------------------

#: The experiment kinds a scenario can reference.
EXPERIMENT_KINDS = (
    "figure2",
    "linear-array",
    "mesh-array",
    "systolic",
    "pebble",
    "warp",
)


@lru_cache(maxsize=1)
def _experiment_task_builders() -> dict[str, Callable[..., list[Task]]]:
    """Kind -> task-list builder, imported lazily.

    The experiment modules import :mod:`repro.runtime.tasks`, which loads
    this package; importing them at module scope would close that cycle
    before their task builders exist.
    """
    from repro.experiments.arrays_section4 import (
        linear_array_task,
        mesh_array_task,
        systolic_task,
    )
    from repro.experiments.fft_figure2 import figure2_task
    from repro.experiments.pebble_bounds import pebble_point_tasks
    from repro.experiments.warp_study import warp_task

    return {
        "figure2": lambda **params: [figure2_task(**params)],
        "linear-array": lambda **params: [linear_array_task(**params)],
        "mesh-array": lambda **params: [mesh_array_task(**params)],
        "systolic": lambda **params: [systolic_task(**params)],
        "pebble": lambda **params: pebble_point_tasks(**params),
        "warp": lambda **params: [warp_task(**params)],
    }


def _summarize_figure2(results: Sequence[Any]) -> dict[str, object]:
    (result,) = results
    return {
        "pass_count": result.pass_count,
        "blocks_per_pass": result.blocks_per_pass,
        "max_output_error": result.max_output_error,
        "correct": result.correct,
    }


def _summarize_sizing(results: Sequence[Any]) -> dict[str, object]:
    (result,) = results
    return {
        "kind": result.kind,
        "computation": result.computation_label,
        "growth_exponent": result.per_cell_growth_exponent,
        "per_cell_memory_words": list(result.per_cell_memories),
    }


def _summarize_systolic(results: Sequence[Any]) -> dict[str, object]:
    (result,) = results
    return {
        "engine": result.engine,
        "matmul_order": result.matmul_order,
        "matvec_length": result.matvec_length,
        "qr_order": result.qr_order,
        "matmul_correct": result.matmul_correct,
        "matvec_correct": result.matvec_correct,
        "qr_correct": result.qr_correct,
        "matmul_utilization": result.matmul_utilization,
        "matvec_utilization": result.matvec_utilization,
        "qr_utilization": result.qr_utilization,
        "matmul_max_abs_error": result.matmul_max_abs_error,
        "matvec_max_abs_error": result.matvec_max_abs_error,
        "qr_max_abs_error": result.qr_max_abs_error,
    }


def _summarize_pebble(points: Sequence[Any]) -> dict[str, object]:
    return {
        "all_above_lower_bound": all(
            point.measured_io >= point.lower_bound for point in points
        ),
        "points": [
            {
                "dag": point.dag_name,
                "fast_memory_words": point.fast_memory_words,
                "measured_io": point.measured_io,
                "lower_bound": point.lower_bound,
                "ratio": point.ratio,
            }
            for point in points
        ],
    }


def _summarize_warp(results: Sequence[Any]) -> dict[str, object]:
    (result,) = results
    try:
        production_memory = result.production_array_per_cell_memory
    except LookupError:
        production_memory = None
    return {
        "cell_not_io_starved": result.cell_not_io_starved,
        "production_array_per_cell_memory": production_memory,
        "memory_covers_production_array": (
            result.memory_covers_production_array
            if production_memory is not None
            else None
        ),
    }


_EXPERIMENT_SUMMARIZERS: dict[str, Callable[[Sequence[Any]], dict[str, object]]] = {
    "figure2": _summarize_figure2,
    "linear-array": _summarize_sizing,
    "mesh-array": _summarize_sizing,
    "systolic": _summarize_systolic,
    "pebble": _summarize_pebble,
    "warp": _summarize_warp,
}


@dataclass(frozen=True)
class ExperimentScenario:
    """One experiment driver at one parameterisation, as a task batch."""

    name: str
    experiment: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENT_KINDS:
            known = ", ".join(EXPERIMENT_KINDS)
            raise ConfigurationError(
                f"unknown experiment kind {self.experiment!r}; known kinds: {known}"
            )
        object.__setattr__(self, "params", dict(self.params))

    def tasks(self) -> list[Task]:
        """Lower this scenario onto runtime tasks (one or many)."""
        return _experiment_task_builders()[self.experiment](**self.params)

    def summarize(self, results: Sequence[Any]) -> dict[str, object]:
        """Reduce the task results to a JSON-serialisable headline summary."""
        return _EXPERIMENT_SUMMARIZERS[self.experiment](results)

    def as_payload(
        self, results: Sequence[Any], task_keys: Sequence[str] = ()
    ) -> dict[str, object]:
        """The ingestible experiment-result document for one execution.

        The same shape the job service returns for experiment jobs, so CLI
        drivers and service workers record identical history.
        """
        return {
            "schema": EXPERIMENT_PAYLOAD_SCHEMA,
            "experiment": self.experiment,
            "scenario": self.name,
            "tasks": len(results),
            "task_keys": list(task_keys),
            "summary": self.summarize(results),
        }


@dataclass(frozen=True)
class ScenarioSuite:
    """A named, ordered collection of sweep and experiment scenarios."""

    name: str
    description: str
    scenarios: tuple[Scenario, ...]
    experiments: tuple[ExperimentScenario, ...] = ()

    def __post_init__(self) -> None:
        names = [scenario.name for scenario in self.scenarios]
        names += [experiment.name for experiment in self.experiments]
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            raise ConfigurationError(
                f"suite {self.name!r} has duplicate scenario names: "
                + ", ".join(duplicates)
            )


def scenario_grid(
    prefix: str,
    kernels: Sequence[str],
    memory_sizes: Sequence[int],
    scales: dict[str, int],
    *,
    alphas: Sequence[float] = (),
    pes: Sequence[PEConfig] = (),
) -> tuple[Scenario, ...]:
    """Cross-product helper: one scenario per kernel over a shared grid."""
    return tuple(
        Scenario(
            name=f"{prefix}-{kernel}",
            kernel=kernel,
            memory_sizes=tuple(memory_sizes),
            scale=scales[kernel],
            alphas=tuple(alphas),
            pes=tuple(pes),
        )
        for kernel in kernels
    )


# ---------------------------------------------------------------------------
# The named suites.
# ---------------------------------------------------------------------------

_DEFAULT_ALPHAS = (1.5, 2.0, 3.0)

#: A small fleet spanning the balance spectrum: the baseline PE, one with a
#: 4x compute upgrade (the paper's rebalancing thought experiment), and one
#: with the I/O bandwidth doubled instead.
_FLEET = (
    PEConfig("baseline", compute_bandwidth=8e6, io_bandwidth=1e6),
    PEConfig("compute-4x", compute_bandwidth=32e6, io_bandwidth=1e6),
    PEConfig("io-2x", compute_bandwidth=8e6, io_bandwidth=2e6),
)


def _quick_suite() -> ScenarioSuite:
    return ScenarioSuite(
        name="quick",
        description=(
            "Small instances of every paper kernel and every experiment "
            "driver; the CI benchmark smoke suite (seconds, not minutes)."
        ),
        scenarios=(
            Scenario("quick-matmul", "matmul", (12, 27, 48, 75, 108), 24, _DEFAULT_ALPHAS),
            Scenario(
                "quick-triangularization",
                "triangularization",
                (12, 27, 48, 75, 108),
                24,
                _DEFAULT_ALPHAS,
            ),
            Scenario("quick-grid2d", "grid2d", (36, 100, 256, 576), 7, _DEFAULT_ALPHAS),
            Scenario("quick-fft", "fft", (4, 8, 64, 2048), 10, _DEFAULT_ALPHAS),
            Scenario("quick-sorting", "sorting", (8, 32, 128, 512), 16384, _DEFAULT_ALPHAS),
            Scenario("quick-matvec", "matvec", (8, 16, 32, 64, 128), 32),
            Scenario(
                "quick-triangular-solve", "triangular_solve", (8, 16, 32, 64, 128), 32
            ),
            Scenario("quick-sparse-matvec", "sparse_matvec", (8, 32, 128, 512), 48),
        ),
        experiments=(
            ExperimentScenario("quick-figure2", "figure2"),
            ExperimentScenario(
                "quick-linear-array", "linear-array", {"lengths": (2, 4, 8, 16, 32)}
            ),
            ExperimentScenario(
                "quick-mesh-array", "mesh-array", {"sides": (2, 4, 8, 16)}
            ),
            # The small instance runs on the validating reference engine so
            # the scalar specification stays exercised in CI; the large-order
            # scenarios below are what the vectorized wavefront engine buys.
            ExperimentScenario(
                "quick-systolic",
                "systolic",
                {"order": 4, "batches": 8, "engine": "reference"},
            ),
            ExperimentScenario(
                "quick-systolic-mesh32",
                "systolic",
                {"order": 32, "batches": 4, "engine": "fast"},
            ),
            ExperimentScenario(
                "quick-systolic-mesh64",
                "systolic",
                {"order": 64, "batches": 2, "engine": "fast"},
            ),
            ExperimentScenario(
                "quick-systolic-stream256",
                "systolic",
                {
                    "order": 8,
                    "batches": 16,
                    "engine": "fast",
                    "matvec_length": 256,
                    "qr_order": 16,
                },
            ),
            ExperimentScenario(
                "quick-pebble",
                "pebble",
                {
                    "matmul_order": 4,
                    "fft_points": 32,
                    "matmul_memories": (4, 8, 16),
                    "fft_memories": (4, 8, 16),
                },
            ),
            ExperimentScenario("quick-warp", "warp"),
        ),
    )


def _full_suite() -> ScenarioSuite:
    return ScenarioSuite(
        name="full",
        description=(
            "The benchmark-harness problem sizes for every paper kernel; the "
            "grids behind experiments E1-E8."
        ),
        scenarios=(
            Scenario(
                "full-matmul", "matmul", (12, 27, 48, 108, 192, 300, 432), 48, _DEFAULT_ALPHAS
            ),
            Scenario(
                "full-triangularization",
                "triangularization",
                (12, 27, 48, 108, 192, 300, 432),
                48,
                _DEFAULT_ALPHAS,
            ),
            Scenario(
                "full-grid2d", "grid2d", (36, 100, 256, 576, 1296, 2704), 7, _DEFAULT_ALPHAS
            ),
            Scenario(
                "full-grid3d", "grid3d", (64, 216, 512, 1728, 4096), 7, _DEFAULT_ALPHAS
            ),
            Scenario("full-fft", "fft", (4, 8, 16, 32, 128, 8192), 12, _DEFAULT_ALPHAS),
            Scenario("full-sorting", "sorting", (8, 32, 128, 512), 16384, _DEFAULT_ALPHAS),
            Scenario("full-matvec", "matvec", (8, 16, 32, 64, 128, 256), 64),
            Scenario(
                "full-triangular-solve",
                "triangular_solve",
                (8, 16, 32, 64, 128, 256),
                64,
            ),
            Scenario("full-sparse-matvec", "sparse_matvec", (8, 32, 128, 512, 2048), 64),
        ),
        experiments=(
            ExperimentScenario(
                "full-figure2", "figure2", {"n_points": 64, "block_points": 8}
            ),
            ExperimentScenario("full-linear-array", "linear-array"),
            ExperimentScenario("full-mesh-array", "mesh-array"),
            ExperimentScenario(
                "full-mesh-array-grid4d",
                "mesh-array",
                {
                    "sides": (2, 4, 8, 16),
                    "intensity": PowerLawIntensity(exponent=0.25),
                    "computation_label": "4-d grid relaxation (law alpha^4)",
                },
            ),
            ExperimentScenario(
                "full-systolic",
                "systolic",
                {"order": 8, "batches": 24, "engine": "reference"},
            ),
            # Large-order systolic scenarios (the wavefront engine's payoff):
            # meshes up to order 256, matvec streams up to 512 points, and
            # triangular QR arrays up to 128 columns (the banded
            # anti-diagonal engine is what makes these affordable).
            ExperimentScenario(
                "full-systolic-mesh64",
                "systolic",
                {"order": 64, "batches": 4, "engine": "fast"},
            ),
            ExperimentScenario(
                "full-systolic-mesh128",
                "systolic",
                {"order": 128, "batches": 2, "engine": "fast"},
            ),
            ExperimentScenario(
                "full-systolic-mesh256",
                "systolic",
                {"order": 256, "batches": 2, "engine": "fast"},
            ),
            ExperimentScenario(
                "full-systolic-stream256",
                "systolic",
                {
                    "order": 16,
                    "batches": 16,
                    "engine": "fast",
                    "matvec_length": 256,
                    "qr_order": 64,
                    "qr_rows": 256,
                },
            ),
            ExperimentScenario(
                "full-systolic-stream512",
                "systolic",
                {
                    "order": 16,
                    "batches": 8,
                    "engine": "fast",
                    "matvec_length": 512,
                    "qr_order": 128,
                    "qr_rows": 256,
                },
            ),
            ExperimentScenario("full-pebble", "pebble"),
            # The large-DAG scenarios: order-10 matmul (1200 nodes, a 1000-step
            # blocked schedule per memory size) and a 256-point FFT (2304
            # nodes); the pebble game's trusted fast engine is what keeps
            # these in benchmark-suite territory.
            ExperimentScenario(
                "full-pebble-large",
                "pebble",
                {
                    "matmul_order": 10,
                    "fft_points": 256,
                    "matmul_memories": (8, 16, 32, 64),
                    "fft_memories": (8, 16, 32, 64),
                },
            ),
            ExperimentScenario("full-warp", "warp"),
        ),
    )


def _fleet_suite() -> ScenarioSuite:
    scales = {"matmul": 24, "fft": 10, "grid2d": 7, "matvec": 32}
    return ScenarioSuite(
        name="fleet",
        description=(
            "One computation of each class assessed against a fleet of PE "
            "configurations (baseline, compute-upgraded, I/O-upgraded)."
        ),
        scenarios=scenario_grid(
            "fleet",
            ("matmul", "grid2d", "fft", "matvec"),
            (16, 64, 256),
            scales,
            alphas=_DEFAULT_ALPHAS,
            pes=_FLEET,
        ),
        experiments=(
            # The hardware-facing experiments: cycle-level systolic designs
            # and the Warp machine sized across a wider range of array
            # lengths than the default study.
            ExperimentScenario(
                "fleet-systolic", "systolic", {"order": 6, "batches": 12}
            ),
            ExperimentScenario(
                "fleet-warp",
                "warp",
                {"array_lengths": (2, 4, 8, 10, 16, 32, 64, 128)},
            ),
        ),
    )


def _mixed_suite() -> ScenarioSuite:
    scales = {
        "matmul": 24,
        "fft": 10,
        "sorting": 16384,
        "matvec": 32,
        "triangular_solve": 32,
    }
    return ScenarioSuite(
        name="mixed",
        description=(
            "A mixed workload: compute-bound, exponential-law and I/O-bounded "
            "kernels interleaved over one shared memory grid."
        ),
        scenarios=scenario_grid(
            "mixed",
            ("matmul", "fft", "sorting", "matvec", "triangular_solve"),
            (8, 32, 128),
            scales,
        ),
        experiments=(
            ExperimentScenario(
                "mixed-figure2", "figure2", {"n_points": 32, "block_points": 4}
            ),
            ExperimentScenario(
                "mixed-pebble",
                "pebble",
                {
                    "matmul_order": 5,
                    "fft_points": 64,
                    "matmul_memories": (4, 16),
                    "fft_memories": (4, 16),
                },
            ),
        ),
    )


_SUITES: dict[str, Callable[[], ScenarioSuite]] = {
    "quick": _quick_suite,
    "full": _full_suite,
    "fleet": _fleet_suite,
    "mixed": _mixed_suite,
}


def suite_names() -> list[str]:
    """Names of every registered scenario suite."""
    return list(_SUITES)


def get_suite(name: str) -> ScenarioSuite:
    """Look up a named suite."""
    try:
        return _SUITES[name]()
    except KeyError:
        known = ", ".join(sorted(_SUITES))
        raise ConfigurationError(
            f"unknown scenario suite {name!r}; known suites: {known}"
        ) from None


# ---------------------------------------------------------------------------
# Running a suite and serialising the result.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioResult:
    """One scenario's measurements plus the derived analysis."""

    scenario: Scenario
    sweep: MemorySweepResult

    def rows(self) -> list[dict[str, float]]:
        return self.sweep.rows()

    def fit(self) -> dict[str, object]:
        sizes = self.sweep.memory_sizes
        intensities = self.sweep.intensities
        return {
            "power_law_exponent": fit_power_law(sizes, intensities).exponent,
            "best_model": select_intensity_model(sizes, intensities),
            "computation_class": self.sweep.classification().computation_class.value,
        }

    def rebalance_rows(self) -> list[dict[str, object]]:
        if not self.scenario.alphas:
            return []
        memory_old = float(self.sweep.memory_sizes[0])
        curve = measured_rebalance_curve(self.sweep, memory_old, self.scenario.alphas)
        return [
            {
                "alpha": result.alpha,
                "memory_new": result.memory_new,
                "growth_factor": result.growth_factor,
                "feasible": result.feasible,
            }
            for result in curve
        ]

    def balance_rows(self) -> list[dict[str, object]]:
        rows: list[dict[str, object]] = []
        for pe_config in self.scenario.pes:
            for memory, execution in zip(
                self.sweep.memory_sizes, self.sweep.executions
            ):
                pe = pe_config.processing_element(memory)
                assessment = assess_balance(pe, execution.cost)
                rows.append(
                    {
                        "pe": pe_config.name,
                        "memory_words": memory,
                        "bound": assessment.bound.value,
                        "compute_time": assessment.compute_time,
                        "io_time": assessment.io_time,
                        "imbalance": assessment.imbalance,
                    }
                )
        return rows

    def point_keys(self) -> list[str]:
        """The content address of each sweep point, in memory-grid order.

        These are the keys :class:`~repro.runtime.engine.SweepRunner`
        resolved the points under, carried on the sweep result -- so store
        records join against result-cache entries with no key recomputed.
        """
        return list(self.sweep.point_keys)

    def as_dict(self) -> dict[str, object]:
        return {
            "scenario": self.scenario.name,
            "kernel": self.scenario.kernel,
            "scale": self.scenario.scale,
            "memory_sizes": list(self.sweep.memory_sizes),
            "point_keys": self.point_keys(),
            "rows": self.rows(),
            "fit": self.fit(),
            "rebalance": self.rebalance_rows(),
            "balance": self.balance_rows(),
        }


@dataclass(frozen=True)
class ExperimentScenarioResult:
    """One experiment scenario's task results plus the derived summary."""

    scenario: ExperimentScenario
    results: tuple[Any, ...]
    task_keys: tuple[str, ...] = ()

    def summary(self) -> dict[str, object]:
        return self.scenario.summarize(self.results)

    def headline(self) -> str:
        """One compact human-readable line for tables and logs."""
        summary = self.summary()
        kind = self.scenario.experiment
        if kind == "figure2":
            return (
                f"{summary['pass_count']} passes x {summary['blocks_per_pass']} "
                f"blocks, {'correct' if summary['correct'] else 'INCORRECT'}"
            )
        if kind in ("linear-array", "mesh-array"):
            return f"per-cell growth exponent {summary['growth_exponent']:.2f}"
        if kind == "systolic":
            correct = all(
                summary[key] for key in ("matmul_correct", "matvec_correct", "qr_correct")
            )
            return (
                f"{summary['engine']} engine, mesh {summary['matmul_order']}, "
                f"{'correct' if correct else 'INCORRECT'}, utilization "
                f"{summary['matmul_utilization']:.2f}/"
                f"{summary['matvec_utilization']:.2f}/{summary['qr_utilization']:.2f}"
            )
        if kind == "pebble":
            points = summary["points"]
            above = "all above bound" if summary["all_above_lower_bound"] else "BELOW BOUND"
            return f"{len(points)} points, {above}"
        if kind == "warp":
            starved = "not I/O starved" if summary["cell_not_io_starved"] else "I/O STARVED"
            return f"cell {starved}"
        return f"{len(self.results)} tasks"  # pragma: no cover - exhaustive above

    def as_dict(self) -> dict[str, object]:
        return {
            "scenario": self.scenario.name,
            "experiment": self.scenario.experiment,
            "tasks": len(self.results),
            "task_keys": list(self.task_keys),
            "summary": self.summary(),
        }


@dataclass(frozen=True)
class SuiteResult:
    """Everything one suite run produced, ready for JSON/CSV emission."""

    suite: ScenarioSuite
    results: tuple[ScenarioResult, ...]
    elapsed_seconds: float
    runtime: dict[str, object] = field(default_factory=dict)
    experiments: tuple[ExperimentScenarioResult, ...] = ()
    run_id: str = field(default_factory=lambda: uuid.uuid4().hex[:12])

    def as_dict(self) -> dict[str, object]:
        return {
            "schema": RESULT_SCHEMA,
            "suite": self.suite.name,
            "run_id": self.run_id,
            "description": self.suite.description,
            "elapsed_seconds": self.elapsed_seconds,
            "runtime": dict(self.runtime),
            "scenarios": [result.as_dict() for result in self.results],
            "experiments": [result.as_dict() for result in self.experiments],
        }

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=False)

    def write_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path

    def csv_rows(self) -> Iterable[dict[str, object]]:
        for result in self.results:
            for row in result.rows():
                yield {
                    "suite": self.suite.name,
                    "scenario": result.scenario.name,
                    "kernel": result.scenario.kernel,
                    **row,
                }

    def write_csv(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = list(self.csv_rows())
        if not rows:
            raise ConfigurationError(
                f"suite {self.suite.name!r} produced no rows to write"
            )
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        return path


def task_runner_for(runner: SweepRunner) -> TaskRunner:
    """A :class:`TaskRunner` sharing a sweep runner's pool, with a matching cache.

    Its task cache sits under the sweep cache's root (:func:`cache_layout`).
    """
    cache = None
    if runner.cache is not None:
        cache = TaskCache(cache_layout(runner.cache.root).tasks)
    return TaskRunner(
        parallel=runner.parallel,
        max_workers=runner.max_workers,
        cache=cache,
        pool=runner.pool,
    )


def store_for(runner: SweepRunner) -> Any | None:
    """The :class:`~repro.store.core.ResultStore` matching a runner's cache.

    The store sits under the sweep cache's root (:func:`cache_layout`), so
    one ``--cache-dir`` governs caches and recorded history alike.  Returns
    ``None`` when the runner is uncached -- no cache root, no history.
    """
    if runner.cache is None:
        return None
    # Imported lazily: repro.store imports this module at load time.
    from repro.store.core import ResultStore

    return ResultStore(cache_layout(runner.cache.root).store)


def sweep_payload(
    runner: SweepRunner, kernel: str, memory_sizes: Sequence[int], scale: int
) -> dict[str, object]:
    """Measure one kernel over a memory grid, as a ``repro-sweep-result/v1``.

    The document ``repro sweep`` writes and a measured ``sweep`` job
    returns.  Its ``fit`` is the one a suite scenario carries
    (:meth:`ScenarioResult.fit`), or ``None`` when no law fits the grid.
    """
    scenario = Scenario(f"sweep-{kernel}", kernel, tuple(memory_sizes), scale)
    result = ScenarioResult(scenario, runner.run_plans([scenario.plan()])[0])
    try:
        fit = result.fit()
    except ReproError:
        fit = None  # law fitting needs three or more points
    return {
        "schema": SWEEP_SCHEMA,
        "kernel": kernel,
        "scale": scale,
        "memory_sizes": [int(size) for size in result.sweep.memory_sizes],
        "rows": result.rows(),
        "fit": fit,
    }


def run_experiments(
    scenarios: Sequence[ExperimentScenario], task_runner: TaskRunner
) -> tuple[ExperimentScenarioResult, ...]:
    """Run every scenario's tasks as one flat batch, split back per scenario."""
    batches = [scenario.tasks() for scenario in scenarios]
    flat = task_runner.run([task for tasks in batches for task in tasks])
    results = []
    cursor = 0
    for scenario, tasks in zip(scenarios, batches):
        results.append(
            ExperimentScenarioResult(
                scenario=scenario,
                results=tuple(flat[cursor : cursor + len(tasks)]),
                task_keys=tuple(task.key() for task in tasks),
            )
        )
        cursor += len(tasks)
    return tuple(results)


def run_suite(
    suite: ScenarioSuite | str,
    runner: SweepRunner | None = None,
    task_runner: TaskRunner | None = None,
    *,
    record: bool = True,
) -> SuiteResult:
    """Execute a suite: sweeps as one flat point batch, experiments as tasks.

    ``task_runner`` defaults to one sharing ``runner``'s pool and cache
    location (:func:`task_runner_for`), so both halves of the suite run on
    one pool, forked once, and serial/parallel and cached/uncached behave
    consistently across them.

    When the runner is cached and ``record`` is true, the finished result is
    ingested into the result store under the same cache root, making every
    suite run queryable history (``repro report``).  Re-ingesting the
    exported JSON later is a content-addressed no-op.
    """
    if isinstance(suite, str):
        suite = get_suite(suite)
    runner = runner or SweepRunner()
    if task_runner is None:
        task_runner = task_runner_for(runner)
    plans = [scenario.plan() for scenario in suite.scenarios]

    started = time.perf_counter()
    with obs_spans.span(
        "suite.run",
        kind="suite",
        attributes={
            "suite": suite.name,
            "scenarios": len(plans),
            "experiments": len(suite.experiments),
        },
    ):
        sweeps = runner.run_plans(plans)
        experiments = run_experiments(suite.experiments, task_runner)
    elapsed = time.perf_counter() - started

    runtime_info: dict[str, object] = {
        "parallel": runner.parallel,
        "max_workers": runner.max_workers,
        "cache": None if runner.cache is None else runner.cache.stats.as_dict(),
        "task_cache": (
            None if task_runner.cache is None else task_runner.cache.stats.as_dict()
        ),
        "task_runner": task_runner.stats.as_dict(),
        "points": sum(len(plan.memory_sizes) for plan in plans),
        "experiment_tasks": sum(len(result.results) for result in experiments),
    }
    result = SuiteResult(
        suite=suite,
        results=tuple(
            ScenarioResult(scenario=scenario, sweep=sweep)
            for scenario, sweep in zip(suite.scenarios, sweeps)
        ),
        elapsed_seconds=elapsed,
        runtime=runtime_info,
        experiments=experiments,
    )
    if record:
        store = store_for(runner)
        if store is not None:
            # Imported lazily for the same cycle reason as store_for.
            from repro.store.readers import ingest_payload

            try:
                ingest_payload(store, result.as_dict())
            except OSError:
                # Recording history is best-effort: a disk error (real or
                # injected) must not fail a suite whose results are in hand.
                pass
    return result
