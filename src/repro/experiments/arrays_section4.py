"""Experiments E10-E12: parallel processor arrays (Section 4).

* E10 (Fig. 3): for a linear array of ``p`` cells running matmul-class
  computations, the per-cell memory must grow linearly with ``p``.
* E11 (Fig. 4): for a square ``p x p`` mesh, per-cell memory can stay
  constant for matmul-class computations, but must still grow for
  d-dimensional grid computations with ``d > 2``.
* E12: the decompositions assumed above are realisable -- cycle-level
  systolic simulations compute correct results with high utilization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.fitting import fit_power_law
from repro.analysis.report import Table
from repro.arrays.sizing import (
    ArraySizingResult,
    linear_array_sizing_sweep,
    mesh_sizing_sweep,
)
from repro.arrays.systolic import LinearMatvecArray, OutputStationaryMatmulArray
from repro.arrays.triangular_qr import GentlemanKungTriangularArray
from repro.core.intensity import IntensityFunction, PowerLawIntensity
from repro.core.model import ProcessingElement
from repro.exceptions import ConfigurationError
from repro.runtime.tasks import Task

__all__ = [
    "ArraySizingExperiment",
    "run_linear_array_experiment",
    "run_mesh_array_experiment",
    "SystolicExperiment",
    "run_systolic_experiment",
    "linear_array_task",
    "mesh_array_task",
    "systolic_task",
    "DEFAULT_REFERENCE_PE",
]

#: A reference single PE balanced for matmul at M = 1024 words:
#: intensity sqrt(1024) = 32, so C/IO = 32.
DEFAULT_REFERENCE_PE = ProcessingElement(
    compute_bandwidth=32e6,
    io_bandwidth=1e6,
    memory_words=1024,
    name="reference PE",
)


@dataclass(frozen=True)
class ArraySizingExperiment:
    """Per-cell memory requirement as a function of the array size."""

    kind: str
    computation_label: str
    array_sizes: tuple[int, ...]
    results: tuple[ArraySizingResult, ...]

    @property
    def per_cell_memories(self) -> tuple[float, ...]:
        return tuple(r.per_cell_memory_words for r in self.results)

    @property
    def per_cell_growth_exponent(self) -> float:
        """Fitted exponent of per-cell memory against array size.

        The paper predicts 1 for the linear array with matmul-class
        computations (E10), 0 for the square mesh with matmul-class
        computations, and ``d - 2`` for d-dimensional grid computations on
        the mesh (E11).
        """
        sizes = [float(p) for p in self.array_sizes if p > 1]
        memories = [
            m for p, m in zip(self.array_sizes, self.per_cell_memories) if p > 1
        ]
        if len(sizes) < 2:
            raise ConfigurationError("need at least two array sizes above 1")
        fit = fit_power_law(sizes, memories)
        return fit.exponent

    def table(self) -> Table:
        table = Table(
            columns=(
                "array size p",
                "cells",
                "alpha",
                "total memory (words)",
                "per-cell memory (words)",
                "per-cell growth vs reference",
            ),
            title=f"{self.kind}: per-cell memory for {self.computation_label}",
        )
        for p, result in zip(self.array_sizes, self.results):
            table.add_row(
                p,
                result.cell_count,
                result.alpha,
                result.total_memory_words,
                result.per_cell_memory_words,
                result.per_cell_growth,
            )
        return table


def run_linear_array_experiment(
    lengths: Sequence[int] = (2, 4, 8, 16, 32, 64),
    *,
    reference_pe: ProcessingElement = DEFAULT_REFERENCE_PE,
    intensity: IntensityFunction | None = None,
    computation_label: str = "matrix multiplication (law alpha^2)",
) -> ArraySizingExperiment:
    """E10: linear array of ``p`` cells; per-cell memory should grow like ``p``."""
    intensity = intensity or PowerLawIntensity(exponent=0.5)
    results = linear_array_sizing_sweep(intensity, reference_pe, list(lengths))
    return ArraySizingExperiment(
        kind="one-dimensional processor array (Fig. 3)",
        computation_label=computation_label,
        array_sizes=tuple(int(p) for p in lengths),
        results=tuple(results),
    )


def run_mesh_array_experiment(
    sides: Sequence[int] = (2, 4, 8, 16, 32),
    *,
    reference_pe: ProcessingElement = DEFAULT_REFERENCE_PE,
    intensity: IntensityFunction | None = None,
    computation_label: str = "matrix multiplication (law alpha^2)",
) -> ArraySizingExperiment:
    """E11: square mesh of ``p x p`` cells; per-cell memory behaviour depends on the law."""
    intensity = intensity or PowerLawIntensity(exponent=0.5)
    results = mesh_sizing_sweep(intensity, reference_pe, list(sides))
    return ArraySizingExperiment(
        kind="two-dimensional processor array (Fig. 4)",
        computation_label=computation_label,
        array_sizes=tuple(int(p) for p in sides),
        results=tuple(results),
    )


@dataclass(frozen=True)
class SystolicExperiment:
    """Correctness and utilization of the cycle-level systolic simulations."""

    matmul_order: int
    matmul_batches: int
    matmul_correct: bool
    matmul_utilization: float
    matvec_length: int
    matvec_batches: int
    matvec_correct: bool
    matvec_utilization: float
    qr_order: int = 0
    qr_rows: int = 0
    qr_correct: bool = True
    qr_utilization: float = 0.0
    engine: str = "fast"
    matmul_max_abs_error: float = 0.0
    matvec_max_abs_error: float = 0.0
    qr_max_abs_error: float = 0.0

    def table(self) -> Table:
        table = Table(
            columns=("design", "size", "workload", "correct", "utilization"),
            title=(
                "Cycle-level systolic array simulations "
                f"(Section 4.2 feasibility, {self.engine} engine)"
            ),
        )
        table.add_row(
            "output-stationary matmul mesh",
            f"{self.matmul_order} x {self.matmul_order}",
            f"{self.matmul_batches} products",
            "yes" if self.matmul_correct else "NO",
            self.matmul_utilization,
        )
        table.add_row(
            "linear matvec array",
            self.matvec_length,
            f"{self.matvec_batches} products",
            "yes" if self.matvec_correct else "NO",
            self.matvec_utilization,
        )
        if self.qr_order:
            table.add_row(
                "Gentleman-Kung triangular QR array",
                f"{self.qr_order} columns",
                f"{self.qr_rows} rows streamed",
                "yes" if self.qr_correct else "NO",
                self.qr_utilization,
            )
        return table


def run_systolic_experiment(
    *,
    order: int = 8,
    batches: int = 24,
    seed: int = 4,
    engine: str = "fast",
    matvec_length: int | None = None,
    qr_order: int | None = None,
    qr_rows: int | None = None,
) -> SystolicExperiment:
    """E12: run the systolic designs on streams of random problem instances.

    ``batches`` matrix products are streamed through the matmul mesh and the
    matvec array; the triangular QR array absorbs ``qr_rows`` rows (default
    ``batches * qr_order``).  ``matvec_length`` and ``qr_order`` default to
    ``order``, but can be set independently so large-order scenarios can
    stress one design without inflating the others.  ``engine`` selects the
    validating scalar simulators (``"reference"``) or the fast engines of
    :mod:`repro.arrays.wavefront` (``"fast"``, bitwise identical).
    """
    matvec_length = order if matvec_length is None else matvec_length
    qr_order = order if qr_order is None else qr_order
    qr_rows = batches * qr_order if qr_rows is None else qr_rows

    rng = np.random.default_rng(seed)
    matmul_problems = [
        (rng.standard_normal((order, order)), rng.standard_normal((order, order)))
        for _ in range(batches)
    ]
    matmul_report = OutputStationaryMatmulArray(order, engine=engine).verify(
        matmul_problems
    )

    matvec_problems = [
        (
            rng.standard_normal((matvec_length, matvec_length)),
            rng.standard_normal(matvec_length),
        )
        for _ in range(batches)
    ]
    matvec_report = LinearMatvecArray(matvec_length, engine=engine).verify(
        matvec_problems
    )

    qr_input = rng.standard_normal((qr_rows, qr_order))
    qr_report = GentlemanKungTriangularArray(qr_order, engine=engine).verify(qr_input)

    return SystolicExperiment(
        matmul_order=order,
        matmul_batches=batches,
        matmul_correct=matmul_report.ok,
        matmul_utilization=matmul_report.result.utilization,
        matvec_length=matvec_length,
        matvec_batches=batches,
        matvec_correct=matvec_report.ok,
        matvec_utilization=matvec_report.result.utilization,
        qr_order=qr_order,
        qr_rows=qr_rows,
        qr_correct=qr_report.ok,
        qr_utilization=qr_report.result.utilization,
        engine=engine,
        matmul_max_abs_error=matmul_report.max_abs_error,
        matvec_max_abs_error=matvec_report.max_abs_error,
        qr_max_abs_error=qr_report.max_abs_error,
    )


# ---------------------------------------------------------------------------
# Runtime tasks: E10-E12 as cacheable, pool-schedulable units.
# ---------------------------------------------------------------------------


def linear_array_task(
    lengths: Sequence[int] = (2, 4, 8, 16, 32, 64),
    *,
    intensity: IntensityFunction | None = None,
    computation_label: str | None = None,
) -> Task:
    """Experiment E10 as a runtime task (defaults match the direct driver)."""
    params: dict = {"lengths": tuple(int(p) for p in lengths)}
    if intensity is not None:
        params["intensity"] = intensity
    if computation_label is not None:
        params["computation_label"] = computation_label
    return Task(
        fn=run_linear_array_experiment,
        params=params,
        name=f"arrays-linear[p={max(lengths)}]",
    )


def mesh_array_task(
    sides: Sequence[int] = (2, 4, 8, 16, 32),
    *,
    intensity: IntensityFunction | None = None,
    computation_label: str | None = None,
) -> Task:
    """Experiment E11 as a runtime task (defaults match the direct driver)."""
    params: dict = {"sides": tuple(int(p) for p in sides)}
    if intensity is not None:
        params["intensity"] = intensity
    if computation_label is not None:
        params["computation_label"] = computation_label
    return Task(
        fn=run_mesh_array_experiment,
        params=params,
        name=f"arrays-mesh[p={max(sides)}]",
    )


def systolic_task(
    *,
    order: int = 8,
    batches: int = 24,
    seed: int = 4,
    engine: str = "fast",
    matvec_length: int | None = None,
    qr_order: int | None = None,
    qr_rows: int | None = None,
) -> Task:
    """Experiment E12 as a runtime task (seeded, hence deterministic)."""
    params: dict = {
        "order": int(order),
        "batches": int(batches),
        "seed": int(seed),
        "engine": str(engine),
    }
    sizes = ""
    if matvec_length is not None:
        params["matvec_length"] = int(matvec_length)
        sizes += f",matvec={int(matvec_length)}"
    if qr_order is not None:
        params["qr_order"] = int(qr_order)
        sizes += f",qr={int(qr_order)}"
    if qr_rows is not None:
        params["qr_rows"] = int(qr_rows)
        sizes += f",qr_rows={int(qr_rows)}"
    return Task(
        fn=run_systolic_experiment,
        params=params,
        name=f"systolic[order={order},batches={batches}{sizes},{engine}]",
    )
