"""Fast engines for the cycle-level systolic simulators.

The reference simulators in :mod:`repro.arrays.systolic` and
:mod:`repro.arrays.triangular_qr` walk every cell with Python loops --
O(cycles x cells) interpreter operations -- which is the right shape for a
*validating* model but caps the simulated array orders at toy sizes.  This
module provides the trusted fast engines behind the shared
``engine="reference" | "fast"`` selector, mirroring the pebble game's
trusted-fast design (``repro.pebble.game``): the scalar engines remain the
specification, and the fast engines compute what they compute without
replaying their cycles.

* **Matmul mesh and matvec array: schedule-free.**  Their register shifts
  only route operands; no datum depends on when it moves.  Each output
  cell accumulates ``acc + a*b`` from +0.0 over ascending ``k`` (the mesh)
  or ``j`` (the matvec array), so the engines apply one whole-batch update
  per ``k`` or ``j`` in that order and never step a cycle.  The cycle and
  active-cell counts follow in closed form from the paper's skew schedule:
  ``batches*n + 2(n-1)`` and ``batches*n**3`` for the mesh,
  ``batches*n + n`` and ``batches*n**2`` for the matvec array.
* **Triangular QR array: banded anti-diagonal steps.**  Its boundary cells
  generate data-dependent rotations, so the engine keeps the wavefront
  order and runs each anti-diagonal as unmasked whole-band updates (see
  :func:`qr_wavefront`).

Every elementary floating-point operation is performed in the same order as
in the reference engine, so outputs are *bitwise* identical -- not merely
close -- and cycle counts and active-cell counts match exactly.  The
equivalence suite (``tests/arrays/test_wavefront_equivalence.py``) asserts
this over random orders, batch counts, signed zeros and the degenerate
one-cell arrays.  With infinite operands the NaN results (``inf - inf``,
``inf * 0``) agree in position and every finite result in its bits; IEEE
754 leaves the NaNs' sign and payload unspecified.  NaN operands are
rejected before either engine runs, because the scalar engines read NaN as
an empty register.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, SimulationError
from repro.obs import spans as obs_spans

__all__ = [
    "ENGINES",
    "validate_engine",
    "VerificationReport",
    "batched_verification_report",
    "max_abs_deviation",
    "matmul_wavefront",
    "matvec_wavefront",
    "qr_wavefront",
]

#: The recognised simulation engines, in trust order: ``reference`` is the
#: scalar per-cell specification, ``fast`` the vectorized engines below.
ENGINES = ("reference", "fast")


def validate_engine(engine: str) -> str:
    """Return ``engine`` if it names a known simulation engine."""
    if engine not in ENGINES:
        known = ", ".join(ENGINES)
        raise ConfigurationError(
            f"unknown simulation engine {engine!r}; known engines: {known}"
        )
    return engine


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking a systolic simulation against the numpy reference.

    ``verify()`` used to return a bare bool and discard the simulation it had
    just paid for; the report keeps the run result (so utilization and cycle
    counts are reusable) plus the mismatch details needed to debug a failure.
    Truthiness delegates to ``ok``, so ``assert array.verify(...)`` still
    reads naturally.
    """

    ok: bool
    result: Any
    max_abs_error: float
    mismatched_batches: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def max_abs_deviation(produced: np.ndarray, expected: np.ndarray) -> float:
    """Largest absolute elementwise deviation, with NaN surfacing as inf.

    ``max(0.0, nan)`` is 0.0 in Python, so a NaN in a corrupted output would
    otherwise masquerade as a perfect match -- exactly the failure mode an
    error report must not hide.
    """
    if not expected.size:
        return 0.0
    deviation = float(np.max(np.abs(produced - expected)))
    return math.inf if math.isnan(deviation) else deviation


def batched_verification_report(
    result: Any,
    produced: Sequence[np.ndarray],
    expected: Sequence[np.ndarray],
) -> VerificationReport:
    """Compare per-batch outputs against their expectations into a report.

    A length mismatch between ``produced`` and ``expected`` is itself a
    verification failure: ``zip`` would silently truncate to the shorter
    sequence, so an engine that dropped trailing batches could still report
    ``ok=True``.  Instead every missing (or surplus) batch index is marked
    mismatched and the error saturates to ``inf`` -- absent output is
    infinitely wrong, not absent evidence.
    """
    max_abs_error = 0.0
    mismatched = []
    for batch, (got, want) in enumerate(zip(produced, expected)):
        max_abs_error = max(max_abs_error, max_abs_deviation(got, want))
        if not np.allclose(got, want):
            mismatched.append(batch)
    compared = min(len(produced), len(expected))
    missing = max(len(produced), len(expected))
    if compared != missing:
        max_abs_error = math.inf
        mismatched.extend(range(compared, missing))
    return VerificationReport(
        ok=not mismatched,
        result=result,
        max_abs_error=max_abs_error,
        mismatched_batches=tuple(mismatched),
    )


# ---------------------------------------------------------------------------
# Output-stationary matmul mesh.
# ---------------------------------------------------------------------------


def matmul_wavefront(
    a_stack: np.ndarray, b_stack: np.ndarray
) -> tuple[np.ndarray, int, int]:
    """Schedule-free engine for the output-stationary mesh.

    ``a_stack`` and ``b_stack`` are the problem instances stacked to shape
    ``(batches, n, n)``; every operand must be non-NaN (the scalar engine
    reads NaN as an empty register, so the array classes reject it).
    Returns ``(outputs, cycles, active_cell_cycles)`` with ``outputs`` of
    shape ``(batches, n, n)``.

    Cell ``(i, j)`` of batch ``b`` starts from +0.0 and adds
    ``A[i, k] * B[k, j]`` at cycle ``b*n + i + j + k``, in ascending ``k``
    -- so each ``k`` is one whole-batch rank-1 update.  The sum is never
    handed to ``a @ b``: BLAS reorders and fuses it, which changes bits.
    """
    batches, n, _ = a_stack.shape
    outputs = np.zeros((batches, n, n))
    with obs_spans.phase("matmul_wavefront.cycles"):
        for k in range(n):
            outputs += a_stack[:, :, k, None] * b_stack[:, None, k, :]
    # The last multiply-add (batch B-1, k = n-1, cell (n-1, n-1)) falls on
    # cycle B*n + 2(n-1) - 1; each cell is busy n cycles per instance.
    return outputs, batches * n + 2 * (n - 1), batches * n**3


# ---------------------------------------------------------------------------
# Linear matvec array.
# ---------------------------------------------------------------------------


def matvec_wavefront(
    a_stack: np.ndarray, x_stack: np.ndarray
) -> tuple[np.ndarray, int, int]:
    """Schedule-free engine for the linear matvec array.

    ``a_stack`` has shape ``(batches, n, n)``, ``x_stack`` ``(batches, n)``.
    Returns ``(outputs, cycles, active_cell_cycles)`` with ``outputs`` of
    shape ``(batches, n)``.  The partial sum of ``y[i]`` starts from 0.0
    and cell ``j`` adds ``A[i, j] * x[j]``, so the columns are added in
    ascending order, one whole-batch update each.

    A NaN partial sum entering cells ``1..n-1`` (e.g. after ``inf - inf``)
    is a missing partial sum to the dataflow, which raises
    :class:`~repro.exceptions.SimulationError`.  NaN is sticky under
    addition, so checking the sums once, before the last column's term,
    catches every such cell.
    """
    batches, n, _ = a_stack.shape
    outputs = np.zeros((batches, n))
    with obs_spans.phase("matvec_wavefront.cycles"):
        for j in range(n - 1):
            outputs += a_stack[:, :, j] * x_stack[:, j, None]
        if np.isnan(outputs).any():
            raise SimulationError("partial sum missing where the dataflow expects one")
        outputs += a_stack[:, :, n - 1] * x_stack[:, n - 1, None]
    # Stream row r enters cell 0 at cycle r and leaves cell n-1 at cycle
    # r + n, so the last of the B*n rows is out after B*n + n cycles.
    return outputs, batches * n + n, batches * n * n


# ---------------------------------------------------------------------------
# Gentleman-Kung triangular QR array.
# ---------------------------------------------------------------------------


#: Rows per sub-band of a QR step's band.  Sub-band rows ``[a0, a1)`` update
#: columns ``a0:`` only, so a taller sub-band computes more dead lanes and a
#: shorter one issues more numpy calls.  At order 256 with 512 rows (2-vCPU
#: x86-64 VM, numpy 2.4), heights of 32 to 96 rows timed within 2% of each
#: other (best of 8), 16 rows 24% slower and one unsplit band 32% slower.
_SUB_BAND_ROWS = 48


def qr_wavefront(a: np.ndarray, order: int) -> tuple[np.ndarray, int, int]:
    """Banded anti-diagonal replay of the triangular array's dataflow.

    Returns ``(r_factor, active_cell_steps, rotations_generated)``.

    In the Gentleman-Kung schedule, input row ``k`` interacts with array row
    ``i`` at wavefront step ``k + i``, and the interactions of one step --
    the pairs on the active anti-diagonal ``k + i = step`` -- touch disjoint
    state (distinct array rows ``i``, distinct in-flight input rows ``k``),
    so they are mutually independent.  Each step therefore runs as whole-band
    array updates:

    * the active boundary values ``r[i, i]`` are a slice of the diagonal
      view, the incoming values ``vec[k, i]`` an anti-diagonal gather of the
      in-flight row block;
    * every Givens rotation of the step is generated by **one** array-input
      :func:`~repro.arrays.triangular_qr.givens_rotation` call;
    * the cell updates apply as two row expressions, ``c*r + s*v`` and
      ``-s*r + c*v``, over ``r``'s band rows and the matching (reversed)
      block of in-flight rows, per sub-band of ``_SUB_BAND_ROWS`` rows
      sliced from the sub-band's first row's column on.

    The updates need no mask.  They never mix columns (lanes), and for
    array row ``i`` lane ``j`` is live in both ``r[i]`` and the in-flight
    row exactly when ``j >= i``; lane ``i`` is the boundary cell's
    ``c*r[i, i] + s*vec[k, i]``.  The dead lanes ``j < i`` -- ``r``'s strict
    lower triangle and the in-flight row's consumed entries -- only combine
    with each other, so they never reach a live lane, and one ``np.triu``
    at the end restores the reference's +0.0 below the diagonal.

    Every live lane evaluates the exact expression the reference engine
    evaluates for that cell, and the dependency order (``(k, i)`` after
    ``(k-1, i)`` and ``(k, i-1)``) is preserved by the step ordering, so
    for finite inputs the result is bitwise identical.  A NaN/inf input row
    smears the same NaN/inf wake across both engines, but only up to NaN
    sign/payload: IEEE 754 leaves NaN propagation through two-NaN operands
    unspecified, and CPython's scalar ``+`` keeps the second operand's NaN
    where numpy's vector loop keeps the first -- ``verify()`` surfaces
    either wake as ``max_abs_error=inf``.
    """
    # Imported lazily: this module is the shared engine layer both simulator
    # modules import at load time, so a module-scope import would be a cycle.
    from repro.arrays.triangular_qr import givens_rotation

    n = order
    m = a.shape[0]
    r = np.zeros((n, n))
    if m == 0:
        return r, 0, 0

    work = np.array(a, dtype=float)  # the in-flight (partially rotated) rows
    work_flat = work.reshape(-1)
    diagonal = r.reshape(-1)[:: n + 1]  # view of r's diagonal

    # Per-step phases aggregate (total seconds + call count per name), so an
    # order-128 QR's ~380 steps cost ~380 clock-read pairs and flush as two
    # phase spans, not 380.  The phases partition each step disjointly --
    # gather | rotation generation (timed inside ``_givens_rotation_batch``)
    # | band apply -- so exclusive-time rollups never double-count.
    for step in range(m + n - 1):
        lo = max(0, step - m + 1)  # first active array row i on the diagonal
        hi = min(n - 1, step) + 1  # one past the last active array row
        with obs_spans.phase("qr_wavefront.gather"):
            # Input row k = step - i meets boundary cell (i, i) at this step;
            # vec[k, i] sits at flat index k*n + i = step*n - i*(n - 1).
            boundary = diagonal[lo:hi]
            incoming = work_flat[step * n - (n - 1) * np.arange(lo, hi)]
        c, s = givens_rotation(boundary, incoming)
        with obs_spans.phase("qr_wavefront.apply"):
            for a0 in range(lo, hi, _SUB_BAND_ROWS):
                a1 = min(a0 + _SUB_BAND_ROWS, hi)
                # Rows ordered by i ascending; the matching in-flight rows
                # k = step - i come out of a reversed slice of the block.
                r_band = r[a0:a1, a0:]
                v_band = work[step - a1 + 1 : step - a0 + 1, a0:][::-1]
                c_band = c[a0 - lo : a1 - lo, None]
                s_band = s[a0 - lo : a1 - lo, None]
                new_r = c_band * r_band + s_band * v_band
                v_band[...] = -s_band * r_band + c_band * v_band
                r_band[...] = new_r

    # One boundary + (n - i - 1) internal interactions per (k, i) pair --
    # every pair occurs exactly once, so the totals close over the schedule.
    active_cell_steps = m * n * (n + 1) // 2
    rotations = m * n
    return np.triu(r), active_cell_steps, rotations
