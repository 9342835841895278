"""Gentleman-Kung triangular systolic array for QR / matrix triangularization.

Section 4.2 argues that a square (here triangular) array of mesh-connected
cells can stay balanced for matrix triangularization *because* the
computation decomposes onto the array -- and cites Gentleman & Kung (1981)
for the construction.  This module provides an executable model of that
array:

* cell ``(i, j)`` with ``i <= j`` stores element ``r[i][j]`` of the evolving
  upper-triangular factor;
* rows of the input matrix enter at the top, one per time step, skewed by one
  cycle per column;
* a **boundary** cell ``(i, i)`` receives an incoming value, generates the
  Givens rotation ``(c, s)`` that annihilates it against its stored ``r`` and
  passes the rotation to the right;
* an **internal** cell ``(i, j)``, ``j > i``, applies the rotation it
  receives from the left to its stored ``r`` and the incoming value, and
  passes the rotated value down and the rotation to the right.

After all rows have been absorbed the stored values form ``R`` with
``Q A = R`` for an orthogonal ``Q`` (the result is verified against
``numpy.linalg.qr`` up to the usual row-sign ambiguity).  The simulation also
counts each cell's busy steps to report utilization, using the skewed
schedule's cycle count ``m + 2n - 1`` for an ``m x n`` input.

Like the simulators in :mod:`repro.arrays.systolic`, the array runs on one
of two engines: ``engine="reference"`` applies every rotation cell by cell
in Python (the validating specification), ``engine="fast"`` (the default)
applies each wavefront step's rotations as whole-band numpy row updates
(:func:`repro.arrays.wavefront.qr_wavefront`), bitwise identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.arrays.wavefront import (
    VerificationReport,
    max_abs_deviation,
    qr_wavefront,
    validate_engine,
)
from repro.exceptions import ConfigurationError
from repro.obs import spans as obs_spans

__all__ = [
    "TriangularQRResult",
    "GentlemanKungTriangularArray",
    "VerificationReport",
    "givens_rotation",
]


def givens_rotation(
    a: float | np.ndarray, b: float | np.ndarray
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Return ``(c, s)`` with ``[[c, s], [-s, c]] @ [a, b] = [r, 0]`` and ``r >= 0``.

    The inputs are scaled by ``max(|a|, |b|)`` before normalizing (LAPACK's
    ``dlartg`` approach): dividing subnormal inputs by their own tiny norm
    loses most of the quotient's precision (``hypot(5e-324, 5e-324)`` rounds
    to a neighbouring subnormal, so the naive ``a / r`` is far from
    ``1/sqrt(2)``), and squaring huge inputs overflows.  After scaling, both
    components lie in ``[-1, 1]`` and the normalization is exact to working
    precision for any finite, representable inputs.

    Array inputs generate one rotation per element -- the banded wavefront
    engine hands in a whole anti-diagonal at once -- with every element
    **bitwise identical** to the scalar path on the same pair.  That
    contract decides the implementation details below: the elementwise
    max/zero handling mirrors the scalar control flow exactly, and the
    hypotenuse is still computed by ``math.hypot``, because ``numpy.hypot``
    defers to the platform libm and disagrees with CPython's
    correctly-rounded implementation in the last ulp on roughly 1 in 1e5
    pairs (measured on glibc) -- close, but not the bitwise identity the
    equivalence suite asserts.
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return _givens_rotation_batch(
            np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        )
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 1.0, 0.0
    an = a / scale
    bn = b / scale
    h = math.hypot(an, bn)
    return an / h, bn / h


def _givens_rotation_batch(
    a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise :func:`givens_rotation`, bitwise equal to the scalar path.

    ``scale`` is spelled as a comparison-and-select rather than
    ``np.maximum`` because Python's ``max(x, y)`` returns ``y`` only when
    ``y > x`` -- on a NaN operand the two differ (``max`` keeps the first
    argument, ``np.maximum`` propagates the NaN), and the batch path must
    reproduce the scalar path's NaN wake exactly.  Idle pairs (both inputs
    zero) take the scalar early return ``(1, 0)`` via masking, with the
    divisors swapped to 1 so no warning-raising 0/0 is ever evaluated.
    """
    # Aggregated under one phase name.  The per-element ``math.hypot`` loop
    # is ~20% of an order-256 QR on 512 rows (52-66 ms of 264-287 ms traced,
    # 2-vCPU x86-64 VM); qr_wavefront's band apply is most of the rest.
    with obs_spans.phase("givens_rotation_batch"):
        a, b = np.broadcast_arrays(a, b)
        abs_a = np.abs(a)
        abs_b = np.abs(b)
        scale = np.where(abs_b > abs_a, abs_b, abs_a)
        idle = scale == 0.0
        safe_scale = np.where(idle, 1.0, scale)
        an = a / safe_scale
        bn = b / safe_scale
        flat_an = an.ravel()
        flat_bn = bn.ravel()
        h = np.fromiter(
            (math.hypot(x, y) for x, y in zip(flat_an.tolist(), flat_bn.tolist())),
            dtype=float,
            count=flat_an.size,
        ).reshape(an.shape)
        safe_h = np.where(idle, 1.0, h)
        c = np.where(idle, 1.0, an / safe_h)
        s = np.where(idle, 0.0, bn / safe_h)
        return c, s


@dataclass(frozen=True)
class TriangularQRResult:
    """Outcome of streaming a matrix through the triangular array."""

    r_factor: np.ndarray
    cycles: int
    cell_count: int
    active_cell_steps: int
    rotations_generated: int

    @property
    def utilization(self) -> float:
        """Fraction of cell-cycles spent generating or applying rotations.

        A run of zero cycles (no rows streamed) has utilization 0.0: no
        time passed, so no useful work was done.  This is the repo-wide
        convention for idle schedules (see
        :class:`repro.machine.engine.Schedule`).
        """
        if self.cycles == 0:
            return 0.0
        return self.active_cell_steps / (self.cycles * self.cell_count)


class GentlemanKungTriangularArray:
    """Triangular systolic array of ``n (n + 1) / 2`` cells computing ``R``."""

    def __init__(self, order: int, *, engine: str = "fast") -> None:
        if order < 1:
            raise ConfigurationError(f"array order must be >= 1, got {order}")
        self.order = order
        self.engine = validate_engine(engine)

    @property
    def cell_count(self) -> int:
        return self.order * (self.order + 1) // 2

    def run(self, a: np.ndarray) -> TriangularQRResult:
        """Stream the rows of ``a`` through the array and return ``R``.

        The simulation is wave-accurate: row ``k`` interacts with array row
        ``i`` exactly ``i`` steps after row ``k-1`` did, which is what the
        one-cycle-per-column skew of the systolic schedule realises.  Cell
        activity is accumulated per interaction and the cycle count follows
        the skewed schedule (``m + 2n - 1`` cycles for ``m`` input rows).
        """
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[1] != self.order:
            raise ConfigurationError(
                f"input must have {self.order} columns, got shape {a.shape}"
            )
        m = a.shape[0]
        n = self.order

        if self.engine == "fast":
            r, active_cell_steps, rotations = qr_wavefront(a, n)
        else:
            r, active_cell_steps, rotations = self._run_reference(a)

        cycles = m + 2 * n - 1 if m else 0
        return TriangularQRResult(
            r_factor=r,
            cycles=cycles,
            cell_count=self.cell_count,
            active_cell_steps=active_cell_steps,
            rotations_generated=rotations,
        )

    def _run_reference(self, a: np.ndarray) -> tuple[np.ndarray, int, int]:
        """The validating scalar engine: every cell's rotation in Python."""
        n = self.order
        r = np.zeros((n, n))
        active_cell_steps = 0
        rotations = 0

        for row in a:
            vector = row.copy()
            for i in range(n):
                # Boundary cell (i, i): generate the rotation.
                c, s = givens_rotation(r[i, i], vector[i])
                rotations += 1
                active_cell_steps += 1
                if c == 1.0 and s == 0.0 and r[i, i] == 0.0 and vector[i] == 0.0:
                    # A completely idle wavefront still occupies the cell slot.
                    pass
                r_ii_new = c * r[i, i] + s * vector[i]
                r[i, i] = r_ii_new
                # Internal cells (i, j), j > i: apply the rotation.
                for j in range(i + 1, n):
                    r_ij, x_j = r[i, j], vector[j]
                    r[i, j] = c * r_ij + s * x_j
                    vector[j] = -s * r_ij + c * x_j
                    active_cell_steps += 1
                vector[i] = 0.0

        return r, active_cell_steps, rotations

    def verify(self, a: np.ndarray, *, rtol: float = 1e-8) -> VerificationReport:
        """Check the array's ``R`` against ``numpy.linalg.qr`` up to row signs.

        Returns a :class:`VerificationReport` carrying the run result (the
        simulation is not discarded) and the maximum absolute deviation from
        the sign-fixed LAPACK factor; ``mismatched_batches`` stays empty
        because a QR run absorbs a single matrix.
        """
        a = np.asarray(a, dtype=float)
        result = self.run(a)
        expected = np.linalg.qr(a, mode="r")
        rows = min(expected.shape[0], self.order)
        produced = result.r_factor[:rows, :]
        expected = expected[:rows, :]
        # Givens elimination fixes non-negative diagonals; LAPACK's R may not.
        signs = np.sign(np.diag(expected))
        signs[signs == 0] = 1.0
        expected = signs[:, None] * expected
        max_abs_error = max_abs_deviation(produced, expected)
        return VerificationReport(
            ok=bool(np.allclose(produced, expected, rtol=rtol, atol=1e-8)),
            result=result,
            max_abs_error=max_abs_error,
        )
