"""Blocked out-of-core matrix triangularization (Section 3.2).

The paper's decomposition performs ``N / sqrt(M)`` steps, each annihilating
``sqrt(M)`` consecutive columns and updating the trailing matrix; one step
costs ``Theta(N**2 * sqrt(M))`` operations against ``Theta(N**2)`` word
transfers, so -- as for matrix multiplication -- the intensity is
``Theta(sqrt(M))`` and the rebalancing law is ``M_new = alpha**2 * M_old``.

:class:`BlockedLUTriangularization` implements this as a right-looking
blocked LU factorization (Gaussian elimination) without pivoting: the tile
side is ``Theta(sqrt(M))`` and every tile that participates in a panel
factorization or trailing-matrix update is staged through the bounded local
memory, with all operations and word transfers counted.  The kernel charges
each step in closed form; its specification is the tile-by-tile loop in
``tests/kernels/test_triangularization.py``, which holds every buffer and
charges every op and word as the tile is processed, and whose equivalence
suite holds the kernel bitwise- and count-identical to it.

The test problems are diagonally dominant so that the absence of pivoting is
numerically harmless; a pivoted variant would change constant factors only,
not the intensity's dependence on ``M``.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.core.model import ComputationCost
from repro.exceptions import ConfigurationError
from repro.kernels.base import ExecutionContext, Kernel
from repro.kernels.matmul import tile_side_for_memory

__all__ = ["BlockedLUTriangularization", "unblocked_lu", "make_diagonally_dominant"]


def make_diagonally_dominant(n: int, *, seed: int = 0) -> np.ndarray:
    """Random ``n x n`` matrix made strictly diagonally dominant.

    Used as the default test problem so that LU without pivoting is stable.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a += np.diag(np.abs(a).sum(axis=1) + 1.0)
    return a


def unblocked_lu(a: np.ndarray) -> np.ndarray:
    """In-core Doolittle LU without pivoting, packed into one matrix.

    Returns a matrix whose strict lower triangle holds the multipliers of
    ``L`` (unit diagonal implied) and whose upper triangle holds ``U``.  This
    is the reference answer the blocked kernel is verified against.
    """
    a = np.array(a, dtype=float, copy=True)
    n = a.shape[0]
    for k in range(n - 1):
        pivot = a[k, k]
        if pivot == 0:
            raise ConfigurationError("zero pivot encountered; matrix needs pivoting")
        a[k + 1 :, k] /= pivot
        a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k], a[k, k + 1 :])
    return a


class BlockedLUTriangularization(Kernel):
    """Right-looking blocked Gaussian elimination through a bounded local memory."""

    registry_name = "triangularization"
    minimum_memory_words = 3

    def default_problem(self, scale: int) -> dict[str, Any]:
        n = max(2, int(scale))
        return {"a": make_diagonally_dominant(n, seed=scale)}

    def reference(self, *, a: np.ndarray) -> np.ndarray:
        return unblocked_lu(np.asarray(a, dtype=float))

    def analytic_cost(self, memory_words: int, *, a: np.ndarray) -> ComputationCost:
        n = int(np.asarray(a).shape[0])
        s = tile_side_for_memory(memory_words)
        steps = math.ceil(n / s)
        compute_ops = 0.0
        io_words = 0.0
        for step in range(steps):
            remaining = n - step * s
            width = min(s, remaining)
            trailing = max(0, remaining - width)
            # diagonal block factorization
            compute_ops += (2.0 / 3.0) * width**3
            io_words += 2.0 * width * width
            # panel solves (L21 and U12)
            compute_ops += 2.0 * trailing * width * width
            io_words += 4.0 * trailing * width + 2.0 * steps * width * width
            # trailing update
            compute_ops += 2.0 * trailing * trailing * width
            io_words += 2.0 * trailing * trailing + 2.0 * trailing * width * math.ceil(
                max(1, trailing) / max(1, s)
            )
        return ComputationCost(compute_ops, io_words)

    def _run(self, ctx: ExecutionContext, *, a: np.ndarray) -> np.ndarray:
        a = np.array(a, dtype=float, copy=True)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ConfigurationError("triangularization requires a square matrix")
        n = a.shape[0]
        s = tile_side_for_memory(ctx.memory.capacity_words)

        # The first step holds the largest buffers of the loop: its diagonal
        # block with one panel block, then one trailing tile with its L and U
        # tiles.  Holding them once charges the loop's peak residency.
        if n:
            w = min(s, n)
            t = min(s, n - w)
            with ctx.memory.buffer("diag", w * w), ctx.memory.buffer("panel_block", w * t):
                pass
            with ctx.memory.buffer("c_tile", t * t), ctx.memory.buffer("l_tile", t * w), \
                    ctx.memory.buffer("u_tile", w * t):
                pass

        # The same numpy calls, in the same order, as the reference loop; each
        # step is charged in closed form.
        for k0 in range(0, n, s):
            k1 = min(k0 + s, n)
            w = k1 - k0
            trailing = n - k1
            blocks = range(k1, n, s)

            # 1. Factor the diagonal block (the unblocked loop, pivot check
            #    included).
            diag = unblocked_lu(a[k0:k1, k0:k1])
            a[k0:k1, k0:k1] = diag
            lower = np.tril(diag, -1) + np.eye(w)
            upper = np.triu(diag)

            # 2. Column panel: L21 = A21 @ inv(U11), one row block at a time.
            for i0 in blocks:
                block = np.array(a[i0 : i0 + s, k0:k1], copy=True)
                for j in range(w):
                    block[:, j] -= block[:, :j] @ upper[:j, j]
                    block[:, j] /= upper[j, j]
                a[i0 : i0 + s, k0:k1] = block

            # 3. Row panel: U12 = inv(L11) @ A12, one column block at a time.
            for j0 in blocks:
                block = np.array(a[k0:k1, j0 : j0 + s], copy=True)
                for i in range(w):
                    block[i, :] -= lower[i, :i] @ block[:i, :]
                a[k0:k1, j0 : j0 + s] = block

            # 4. Trailing-matrix update, one tile at a time.
            l_panels = [a[i0 : i0 + s, k0:k1] for i0 in blocks]
            u_panels = [a[k0:k1, j0 : j0 + s] for j0 in blocks]
            for i0, l_panel in zip(blocks, l_panels):
                for j0, u_panel in zip(blocks, u_panels):
                    a[i0 : i0 + s, j0 : j0 + s] -= l_panel @ u_panel

            step_ops = float(
                (w - 1) * w // 2  # diagonal block: divisions
                + (w - 1) * w * (2 * w - 1) // 3  # diagonal block: updates
                + trailing * w * w  # column panel
                + trailing * w * (w - 1)  # row panel
                + 2 * trailing * trailing * w  # trailing update
            )
            # Diagonal block, both panels and every trailing tile are read
            # and written back; each trailing tile also reads its L and U
            # tiles.
            written = w * w + 2 * trailing * w + trailing * trailing
            read = written + 2 * trailing * w * len(blocks)
            ctx.ops.add(step_ops)
            ctx.io.read(read)
            ctx.io.write(written)
            ctx.phases.record(f"panel[{k0}:{k1}]", step_ops, float(read + written))
        return a
