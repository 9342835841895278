"""Blocked out-of-core matrix multiplication (Section 3.1).

The decomposition scheme is the one the paper analyses: the ``N x N`` product
matrix is computed one ``s x s`` output tile at a time, where the tile side
``s`` is chosen so that the output tile plus one ``s x s`` panel chunk of each
input matrix fit simultaneously in the ``M``-word local memory
(``3 s**2 <= M``, i.e. ``s = Theta(sqrt(M))``).

For every output tile the kernel streams the corresponding ``s x N`` row
panel of ``A`` and ``N x s`` column panel of ``B`` through the local memory
in ``s``-wide chunks, accumulating into the resident output tile.  Per tile
this costs ``Theta(N * M)`` arithmetic operations against ``Theta(N * sqrt(M))``
word transfers, so the measured intensity is ``Theta(sqrt(M))`` and the
rebalancing law is ``M_new = alpha**2 * M_old``.

The kernel charges each output tile in closed form.  Its specification is
the chunk-by-chunk loop in ``tests/kernels/test_matmul.py``, which holds
every buffer and charges every op and word as the chunk is processed; that
file's equivalence suite holds the kernel bitwise- and count-identical to it.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.core.model import ComputationCost
from repro.exceptions import ConfigurationError
from repro.kernels.base import ExecutionContext, Kernel

__all__ = ["BlockedMatrixMultiply", "tile_side_for_memory"]


def tile_side_for_memory(memory_words: int, *, buffers: int = 3) -> int:
    """Largest square-tile side such that ``buffers`` tiles fit in ``memory_words``."""
    if memory_words < buffers:
        raise ConfigurationError(
            f"memory of {memory_words} words cannot hold {buffers} one-word tiles"
        )
    return max(1, int(math.floor(math.sqrt(memory_words / buffers))))


class BlockedMatrixMultiply(Kernel):
    """Compute ``C = A @ B`` with square output tiles staged through local memory.

    ``tile_shape`` overrides the default square ``s x s`` output tile with an
    explicit ``(rows, cols)`` shape.  The paper's decomposition uses square
    tiles, which maximise the intensity for a given memory; the tiling
    ablation (A3 in DESIGN.md) uses skinny tiles to show how much intensity a
    poorly shaped tile loses.
    """

    registry_name = "matmul"
    minimum_memory_words = 3

    def __init__(
        self, name: str | None = None, *, tile_shape: tuple[int, int] | None = None
    ) -> None:
        super().__init__(name=name)
        if tile_shape is not None:
            rows, cols = tile_shape
            if rows < 1 or cols < 1:
                raise ConfigurationError(
                    f"tile_shape must have positive dimensions, got {tile_shape!r}"
                )
        self.tile_shape = tile_shape

    def _tile_geometry(self, memory_words: int) -> tuple[int, int, int]:
        """Output-tile rows, columns and the k-chunk width for this memory size."""
        if self.tile_shape is None:
            side = tile_side_for_memory(memory_words)
            return side, side, side
        rows, cols = self.tile_shape
        if rows * cols >= memory_words:
            raise ConfigurationError(
                f"a {rows} x {cols} output tile does not leave room for input "
                f"panels in {memory_words} words of local memory"
            )
        chunk = max(1, (memory_words - rows * cols) // (rows + cols))
        return rows, cols, chunk

    def default_problem(self, scale: int) -> dict[str, Any]:
        """Random square matrices of order ``scale`` (deterministic seed)."""
        rng = np.random.default_rng(scale)
        n = max(2, int(scale))
        return {
            "a": rng.standard_normal((n, n)),
            "b": rng.standard_normal((n, n)),
        }

    def reference(self, *, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.asarray(a) @ np.asarray(b)

    def analytic_cost(
        self, memory_words: int, *, a: np.ndarray, b: np.ndarray
    ) -> ComputationCost:
        """Closed-form cost of the tile decomposition at this memory size."""
        n = int(np.asarray(a).shape[0])
        rows, cols, chunk = self._tile_geometry(memory_words)
        tiles = math.ceil(n / rows) * math.ceil(n / cols)
        chunks = math.ceil(n / chunk)
        ops_per_tile = 2.0 * rows * cols * n
        io_per_tile = (rows + cols) * chunk * chunks + rows * cols
        return ComputationCost(ops_per_tile * tiles, io_per_tile * tiles)

    def _run(self, ctx: ExecutionContext, *, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = _operands(a, b)
        n_rows, n_inner = a.shape
        n_cols = b.shape[1]
        rows, cols, chunk_width = self._tile_geometry(ctx.memory.capacity_words)

        # The first tile with its first chunk is the largest working set the
        # loop holds, so holding it once charges the loop's peak residency
        # (and raises its MemoryCapacityError, if any).
        if n_rows and n_cols:
            tile_rows, tile_cols = min(rows, n_rows), min(cols, n_cols)
            chunk = min(chunk_width, n_inner)
            with ctx.memory.buffer("c_tile", tile_rows * tile_cols), \
                    ctx.memory.buffer("a_chunk", tile_rows * chunk), \
                    ctx.memory.buffer("b_chunk", chunk * tile_cols):
                pass

        # The same ``c_tile += a_chunk @ b_chunk`` per chunk, in the same
        # order, as the reference loop; each tile is charged in closed form.
        c = np.zeros((n_rows, n_cols), dtype=float)
        k_spans = [slice(k0, k0 + chunk_width) for k0 in range(0, n_inner, chunk_width)]
        b_panels = [
            [b[k_span, j0 : j0 + cols] for k_span in k_spans]
            for j0 in range(0, n_cols, cols)
        ]
        for i0 in range(0, n_rows, rows):
            i1 = min(i0 + rows, n_rows)
            a_panel = [a[i0:i1, k_span] for k_span in k_spans]
            for j0, b_panel in zip(range(0, n_cols, cols), b_panels):
                j1 = min(j0 + cols, n_cols)
                tile_rows, tile_cols = i1 - i0, j1 - j0
                c_tile = np.zeros((tile_rows, tile_cols))
                for a_chunk, b_chunk in zip(a_panel, b_panel):
                    c_tile += a_chunk @ b_chunk
                c[i0:i1, j0:j1] = c_tile
                tile_ops = 2.0 * tile_rows * tile_cols * n_inner
                tile_reads = (tile_rows + tile_cols) * n_inner
                ctx.ops.add(tile_ops)
                ctx.io.read(tile_reads)
                ctx.io.write(tile_rows * tile_cols)
                ctx.phases.record(
                    f"tile[{i0}:{i1},{j0}:{j1}]",
                    tile_ops,
                    float(tile_reads + tile_rows * tile_cols),
                )
        return c


def _operands(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a`` and ``b`` as float matrices, checked to be multipliable."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2:
        raise ConfigurationError("matrix multiplication requires 2-D operands")
    if a.shape[1] != b.shape[0]:
        raise ConfigurationError(
            f"incompatible shapes for multiplication: {a.shape} and {b.shape}"
        )
    return a, b
