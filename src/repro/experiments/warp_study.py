"""Experiment E13: the CMU Warp machine case study (Section 5).

The paper argues that the Warp cell's design point -- 10 MFLOPS of compute,
20 Mwords/s of inter-cell bandwidth, and a comparatively large 64K-word
local memory -- "reflects the results of this paper".  This experiment makes
the claim quantitative:

* the memory the balance condition requires of a single cell for
  matmul-class computations (with ``C/IO = 0.5`` this is tiny), and the
  resulting headroom of the actual 64K-word memory;
* the per-cell memory a ``p``-cell Warp-like linear array needs as ``p``
  grows (the 10-cell production Warp in particular), since Section 4.1 shows
  that requirement grows linearly with ``p``;
* a hypothetical compute-bandwidth sweep showing how quickly the required
  memory would grow if the cell's FPU were made faster without more I/O.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.report import Table
from repro.arrays.sizing import ArraySizingResult
from repro.core.model import BoundKind
from repro.runtime.tasks import Task
from repro.warp.machine import (
    WARP_CELL,
    WarpCaseStudy,
    analyse_cell,
    compute_bandwidth_sweep,
    warp_array_sizing,
)

__all__ = ["WarpExperiment", "run_warp_experiment", "warp_task"]


@dataclass(frozen=True)
class WarpExperiment:
    """Results of the Warp case study."""

    cell_study: WarpCaseStudy
    array_lengths: tuple[int, ...]
    array_sizing: tuple[ArraySizingResult, ...]
    alpha_sweep: tuple[tuple[float, float], ...]

    @property
    def production_array_per_cell_memory(self) -> float:
        """Per-cell memory the 10-cell Warp needs to stay balanced (words)."""
        for length, result in zip(self.array_lengths, self.array_sizing):
            if length == 10:
                return result.per_cell_memory_words
        raise LookupError("the sizing sweep does not include the 10-cell array")

    @property
    def memory_covers_production_array(self) -> bool:
        """Whether the 64K-word memory covers the 10-cell array's requirement."""
        return self.production_array_per_cell_memory <= WARP_CELL.memory_words

    @property
    def cell_not_io_starved(self) -> bool:
        return self.cell_study.bound_at_full_memory is not BoundKind.IO_BOUND

    def cell_table(self) -> Table:
        table = Table(
            columns=("quantity", "value"),
            title="Warp cell balance analysis (matrix-multiplication class)",
        )
        cell = self.cell_study.cell
        table.add_row("compute bandwidth (ops/s)", cell.compute_bandwidth)
        table.add_row("I/O bandwidth (words/s)", cell.io_bandwidth)
        table.add_row("local memory (words)", cell.memory_words)
        table.add_row("C/IO ratio", cell.compute_io_ratio)
        table.add_row(
            "memory required for balance (words)",
            self.cell_study.memory_required_for_balance,
        )
        table.add_row("memory headroom (x)", self.cell_study.memory_headroom)
        table.add_row(
            "bound at full memory", self.cell_study.bound_at_full_memory.value
        )
        return table

    def array_table(self) -> Table:
        table = Table(
            columns=("cells p", "alpha", "per-cell memory required (words)", "fits in 64K words"),
            title="Warp-like linear array: per-cell memory requirement (Section 4.1)",
        )
        for length, result in zip(self.array_lengths, self.array_sizing):
            table.add_row(
                length,
                result.alpha,
                result.per_cell_memory_words,
                "yes" if result.per_cell_memory_words <= WARP_CELL.memory_words else "no",
            )
        return table

    def alpha_table(self) -> Table:
        table = Table(
            columns=("compute scaling alpha", "required memory (words)"),
            title="Hypothetical faster Warp cell: memory needed to stay balanced",
        )
        for alpha, memory in self.alpha_sweep:
            table.add_row(alpha, memory)
        return table


def run_warp_experiment(
    *,
    array_lengths: Sequence[int] = (2, 4, 8, 10, 16, 32, 64),
    alphas: Sequence[float] = (1.0, 2.0, 4.0, 8.0, 16.0),
) -> WarpExperiment:
    """Run the full Warp case study with the published cell parameters."""
    cell_study = analyse_cell()
    sizing = warp_array_sizing(tuple(array_lengths))
    sweep = compute_bandwidth_sweep(tuple(alphas))
    return WarpExperiment(
        cell_study=cell_study,
        array_lengths=tuple(int(p) for p in array_lengths),
        array_sizing=tuple(sizing),
        alpha_sweep=tuple(sweep),
    )


def warp_task(
    *,
    array_lengths: Sequence[int] = (2, 4, 8, 10, 16, 32, 64),
    alphas: Sequence[float] = (1.0, 2.0, 4.0, 8.0, 16.0),
) -> Task:
    """Experiment E13 as a runtime task (defaults match the direct driver)."""
    return Task(
        fn=run_warp_experiment,
        params={
            "array_lengths": tuple(int(p) for p in array_lengths),
            "alphas": tuple(float(a) for a in alphas),
        },
        name=f"warp[p<={max(array_lengths)}]",
    )
