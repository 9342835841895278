"""Cycle-level systolic-array simulations (Section 4.2's feasibility claim).

The paper's Section 4.2 argues that a square mesh can stay balanced for
matrix computations *provided the computation can actually be decomposed for
parallel execution on the array*, and points at the classical systolic
designs (Kung & Leiserson 1978; Gentleman & Kung 1981) as the demonstration.
This module provides executable, cycle-accurate models of two such designs:

* :class:`OutputStationaryMatmulArray` -- the ``n x n`` output-stationary
  mesh for matrix multiplication: ``A`` streams in from the left, ``B`` from
  the top, each skewed by one cycle per row/column; every cell performs one
  multiply-accumulate per cycle and forwards its operands.
* :class:`LinearMatvecArray` -- a linear array for matrix-vector
  multiplication with the vector preloaded (one element per cell) and the
  partial sums marching through the array.

Both simulations verify their numerical results against numpy and report the
cell utilization achieved, including the pipelined steady state reached when
several problem instances are streamed back to back.

Each simulator runs on one of two engines (see
:mod:`repro.arrays.wavefront`): ``engine="reference"`` walks every cell with
the scalar Python loops below -- the validating specification -- while
``engine="fast"`` (the default) applies each cell's multiply-adds as
whole-batch updates in the same order and takes the cycle and active-cell
counts from the skew schedule's closed forms, producing bitwise-identical
outputs and counts at a fraction of the interpreter cost.

The reference engine treats a NaN in a register as "no operand here", so
a NaN operand would silently drop terms from its instance and misplace
others into the next; :meth:`run` rejects NaN operands before either
engine starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.arrays.wavefront import (
    VerificationReport,
    batched_verification_report,
    matmul_wavefront,
    matvec_wavefront,
    validate_engine,
)
from repro.exceptions import ConfigurationError, SimulationError

__all__ = [
    "SystolicRunResult",
    "VerificationReport",
    "OutputStationaryMatmulArray",
    "LinearMatvecArray",
]


def _reject_nan_operands(batch: int, *operands: np.ndarray) -> None:
    """Refuse a problem instance holding NaN: the cells read it as no operand."""
    if any(np.isnan(operand).any() for operand in operands):
        raise ConfigurationError(
            f"problem instance {batch} has a NaN operand; the array reads NaN "
            "as an empty register"
        )


@dataclass(frozen=True)
class SystolicRunResult:
    """Outcome of a cycle-level systolic simulation."""

    outputs: list[np.ndarray]
    cycles: int
    cell_count: int
    active_cell_cycles: int

    @property
    def utilization(self) -> float:
        """Fraction of cell-cycles that performed useful arithmetic.

        A run of zero cycles has utilization 0.0: no time passed, so no
        useful work was done.  This is the repo-wide convention for idle
        schedules (see :class:`repro.machine.engine.Schedule`).
        """
        if self.cycles == 0:
            return 0.0
        return self.active_cell_cycles / (self.cycles * self.cell_count)


class OutputStationaryMatmulArray:
    """``n x n`` mesh computing ``C = A @ B`` with stationary accumulators.

    ``A[i, k]`` enters row ``i`` at cycle ``i + k`` (one-cycle skew per row);
    ``B[k, j]`` enters column ``j`` at cycle ``j + k``.  Both operands of the
    multiply for ``C[i, j]`` then meet in cell ``(i, j)`` at cycle
    ``i + j + k``.  Streaming several problem instances back to back keeps
    the array busy and pushes the utilization toward 1.
    """

    def __init__(self, order: int, *, engine: str = "fast") -> None:
        if order < 1:
            raise ConfigurationError(f"array order must be >= 1, got {order}")
        self.order = order
        self.engine = validate_engine(engine)

    def run(
        self, problems: Sequence[tuple[np.ndarray, np.ndarray]]
    ) -> SystolicRunResult:
        """Stream the given ``(A, B)`` problem instances through the array."""
        n = self.order
        if not problems:
            raise ConfigurationError("at least one problem instance is required")
        a_list = []
        b_list = []
        for batch, (a, b) in enumerate(problems):
            a = np.asarray(a, dtype=float)
            b = np.asarray(b, dtype=float)
            if a.shape != (n, n) or b.shape != (n, n):
                raise ConfigurationError(
                    f"problem matrices must be {n} x {n}, got {a.shape} and {b.shape}"
                )
            _reject_nan_operands(batch, a, b)
            a_list.append(a)
            b_list.append(b)

        if self.engine == "fast":
            stacked, total_cycles, active_cell_cycles = matmul_wavefront(
                np.stack(a_list), np.stack(b_list)
            )
            outputs = list(stacked)
        else:
            outputs, total_cycles, active_cell_cycles = self._run_reference(
                a_list, b_list
            )

        return SystolicRunResult(
            outputs=outputs,
            cycles=total_cycles,
            cell_count=n * n,
            active_cell_cycles=active_cell_cycles,
        )

    def _run_reference(
        self, a_list: list[np.ndarray], b_list: list[np.ndarray]
    ) -> tuple[list[np.ndarray], int, int]:
        """The validating scalar engine: every cell stepped in Python."""
        n = self.order
        batches = len(a_list)

        total_cycles = batches * n + 2 * (n - 1)
        accumulators = np.zeros((n, n))
        accumulated_terms = np.zeros((n, n), dtype=int)
        a_regs = np.full((n, n), np.nan)
        b_regs = np.full((n, n), np.nan)
        outputs = [np.zeros((n, n)) for _ in range(batches)]
        active_cell_cycles = 0

        def a_source(row: int, cycle: int) -> float:
            index = cycle - row
            if 0 <= index < batches * n:
                return a_list[index // n][row, index % n]
            return float("nan")

        def b_source(col: int, cycle: int) -> float:
            index = cycle - col
            if 0 <= index < batches * n:
                return b_list[index // n][index % n, col]
            return float("nan")

        for cycle in range(total_cycles):
            new_a = np.full((n, n), np.nan)
            new_b = np.full((n, n), np.nan)
            for i in range(n):
                for j in range(n):
                    a_in = a_source(i, cycle) if j == 0 else a_regs[i, j - 1]
                    b_in = b_source(j, cycle) if i == 0 else b_regs[i - 1, j]
                    if not (np.isnan(a_in) or np.isnan(b_in)):
                        accumulators[i, j] += a_in * b_in
                        accumulated_terms[i, j] += 1
                        active_cell_cycles += 1
                        if accumulated_terms[i, j] == n:
                            batch = (cycle - i - j) // n
                            if not 0 <= batch < batches:
                                raise SimulationError(
                                    "systolic dataflow produced a result outside "
                                    "any problem instance"
                                )
                            outputs[batch][i, j] = accumulators[i, j]
                            accumulators[i, j] = 0.0
                            accumulated_terms[i, j] = 0
                    new_a[i, j] = a_in
                    new_b[i, j] = b_in
            a_regs, b_regs = new_a, new_b

        return outputs, total_cycles, active_cell_cycles

    def verify(
        self, problems: Sequence[tuple[np.ndarray, np.ndarray]]
    ) -> VerificationReport:
        """Run the array and check every product against numpy.

        Returns a :class:`VerificationReport` carrying the run result (so
        the simulation is not discarded), the maximum absolute error across
        all batches, and the indices of any mismatching batches.
        """
        result = self.run(problems)
        return batched_verification_report(
            result,
            result.outputs,
            [np.asarray(a) @ np.asarray(b) for a, b in problems],
        )


class LinearMatvecArray:
    """Linear array of ``n`` cells computing ``y = A @ x`` with ``x`` preloaded.

    Cell ``j`` holds ``x[j]``.  The partial sum for ``y[i]`` enters cell 0 at
    cycle ``i`` and moves one cell per cycle; cell ``j`` adds
    ``A[i, j] * x[j]`` at cycle ``i + j``, so column ``j`` of ``A`` is fed to
    cell ``j`` skewed by ``j`` cycles.  The completed ``y[i]`` emerges from
    the last cell at cycle ``i + n``.
    """

    def __init__(self, length: int, *, engine: str = "fast") -> None:
        if length < 1:
            raise ConfigurationError(f"array length must be >= 1, got {length}")
        self.length = length
        self.engine = validate_engine(engine)

    def run(self, problems: Sequence[tuple[np.ndarray, np.ndarray]]) -> SystolicRunResult:
        """Stream the given ``(A, x)`` instances through the array back to back."""
        n = self.length
        if not problems:
            raise ConfigurationError("at least one problem instance is required")
        a_list = []
        x_list = []
        for batch, (a, x) in enumerate(problems):
            a = np.asarray(a, dtype=float)
            x = np.asarray(x, dtype=float)
            if a.shape != (n, n) or x.shape != (n,):
                raise ConfigurationError(
                    f"problem must be an {n} x {n} matrix and length-{n} vector"
                )
            _reject_nan_operands(batch, a, x)
            a_list.append(a)
            x_list.append(x)

        if self.engine == "fast":
            stacked, total_cycles, active_cell_cycles = matvec_wavefront(
                np.stack(a_list), np.stack(x_list)
            )
            outputs = list(stacked)
        else:
            outputs, total_cycles, active_cell_cycles = self._run_reference(
                a_list, x_list
            )

        return SystolicRunResult(
            outputs=outputs,
            cycles=total_cycles,
            cell_count=n,
            active_cell_cycles=active_cell_cycles,
        )

    def _run_reference(
        self, a_list: list[np.ndarray], x_list: list[np.ndarray]
    ) -> tuple[list[np.ndarray], int, int]:
        """The validating scalar engine: every cell stepped in Python."""
        n = self.length
        batches = len(a_list)

        total_cycles = batches * n + n
        outputs = [np.zeros(n) for _ in range(batches)]
        partial_regs = np.full(n, np.nan)   # value leaving cell j at previous cycle
        active_cell_cycles = 0

        def row_index(cycle: int, cell: int) -> int:
            return cycle - cell

        for cycle in range(total_cycles):
            new_partial = np.full(n, np.nan)
            for j in range(n):
                global_row = row_index(cycle, j)
                if not 0 <= global_row < batches * n:
                    continue
                batch, i = divmod(global_row, n)
                incoming = 0.0 if j == 0 else partial_regs[j - 1]
                if np.isnan(incoming):
                    raise SimulationError(
                        "partial sum missing where the dataflow expects one"
                    )
                x_value = x_list[batch][j]
                updated = incoming + a_list[batch][i, j] * x_value
                active_cell_cycles += 1
                if j == n - 1:
                    outputs[batch][i] = updated
                new_partial[j] = updated
            partial_regs = new_partial

        return outputs, total_cycles, active_cell_cycles

    def verify(
        self, problems: Sequence[tuple[np.ndarray, np.ndarray]]
    ) -> VerificationReport:
        """Run the array and check every product against numpy.

        Returns a :class:`VerificationReport`; see
        :meth:`OutputStationaryMatmulArray.verify`.
        """
        result = self.run(problems)
        return batched_verification_report(
            result,
            result.outputs,
            [np.asarray(a) @ np.asarray(x) for a, x in problems],
        )
