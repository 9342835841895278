"""Tests for the blocked matrix-multiplication kernel (Section 3.1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, MemoryCapacityError
from repro.kernels.base import ExecutionContext
from repro.kernels.matmul import (
    BlockedMatrixMultiply,
    _operands,
    tile_side_for_memory,
)


def _blocked_matmul_reference(
    kernel: BlockedMatrixMultiply, ctx: ExecutionContext, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """The chunk-by-chunk specification of :meth:`BlockedMatrixMultiply._run`:
    every buffer held and every op and word charged as the chunk is
    processed."""
    a, b = _operands(a, b)
    n_rows, n_inner = a.shape
    n_cols = b.shape[1]
    rows, cols, chunk_width = kernel._tile_geometry(ctx.memory.capacity_words)

    # External memory holds the operands and the result; only tiles are
    # ever resident in the PE.
    c = np.zeros((n_rows, n_cols), dtype=float)

    for i0 in range(0, n_rows, rows):
        i1 = min(i0 + rows, n_rows)
        for j0 in range(0, n_cols, cols):
            j1 = min(j0 + cols, n_cols)
            tile_rows, tile_cols = i1 - i0, j1 - j0
            tile_ops = 0.0
            tile_io = 0.0
            with ctx.memory.buffer("c_tile", tile_rows * tile_cols):
                c_tile = np.zeros((tile_rows, tile_cols))
                for k0 in range(0, n_inner, chunk_width):
                    k1 = min(k0 + chunk_width, n_inner)
                    chunk = k1 - k0
                    with ctx.memory.buffer("a_chunk", tile_rows * chunk), \
                            ctx.memory.buffer("b_chunk", chunk * tile_cols):
                        a_chunk = a[i0:i1, k0:k1]
                        b_chunk = b[k0:k1, j0:j1]
                        ctx.io.read(tile_rows * chunk)
                        ctx.io.read(chunk * tile_cols)
                        tile_io += tile_rows * chunk + chunk * tile_cols
                        c_tile += a_chunk @ b_chunk
                        ops = 2.0 * tile_rows * tile_cols * chunk
                        ctx.ops.add(ops)
                        tile_ops += ops
                c[i0:i1, j0:j1] = c_tile
                ctx.io.write(tile_rows * tile_cols)
                tile_io += tile_rows * tile_cols
            ctx.phases.record(f"tile[{i0}:{i1},{j0}:{j1}]", tile_ops, tile_io)
    return c


class TestTileSideForMemory:
    def test_three_tiles_fit(self):
        side = tile_side_for_memory(300)
        assert 3 * side * side <= 300

    def test_small_memory_gives_unit_tile(self):
        assert tile_side_for_memory(3) == 1

    def test_larger_memory_gives_larger_tile(self):
        assert tile_side_for_memory(1200) > tile_side_for_memory(300)

    def test_too_small_memory_rejected(self):
        with pytest.raises(ConfigurationError):
            tile_side_for_memory(2)


class TestBlockedMatrixMultiplyCorrectness:
    def test_matches_numpy_square(self, small_matrices):
        a, b = small_matrices
        kernel = BlockedMatrixMultiply()
        execution = kernel.execute(48, a=a, b=b)
        np.testing.assert_allclose(execution.output, a @ b, rtol=1e-10)

    def test_matches_numpy_rectangular(self, rng):
        a = rng.standard_normal((9, 14))
        b = rng.standard_normal((14, 5))
        execution = BlockedMatrixMultiply().execute(27, a=a, b=b)
        np.testing.assert_allclose(execution.output, a @ b, rtol=1e-10)

    def test_matches_numpy_when_matrix_smaller_than_tile(self, rng):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        execution = BlockedMatrixMultiply().execute(10_000, a=a, b=b)
        np.testing.assert_allclose(execution.output, a @ b, rtol=1e-10)

    def test_verify_helper(self, small_matrices):
        a, b = small_matrices
        kernel = BlockedMatrixMultiply()
        assert kernel.verify(kernel.execute(48, a=a, b=b))

    def test_incompatible_shapes_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            BlockedMatrixMultiply().execute(
                48, a=rng.standard_normal((4, 5)), b=rng.standard_normal((4, 5))
            )

    def test_non_2d_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            BlockedMatrixMultiply().execute(
                48, a=rng.standard_normal(4), b=rng.standard_normal((4, 4))
            )

    def test_memory_below_minimum_rejected(self, small_matrices):
        a, b = small_matrices
        with pytest.raises(ConfigurationError):
            BlockedMatrixMultiply().execute(2, a=a, b=b)

    @given(
        n=st.integers(min_value=2, max_value=10),
        k=st.integers(min_value=2, max_value=10),
        m=st.integers(min_value=2, max_value=10),
        memory=st.integers(min_value=3, max_value=200),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_correct_for_random_shapes_and_memories(self, n, k, m, memory, seed):
        """Property: blocked result equals numpy for arbitrary shapes/memories."""
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, k))
        b = rng.standard_normal((k, m))
        execution = BlockedMatrixMultiply().execute(memory, a=a, b=b)
        np.testing.assert_allclose(execution.output, a @ b, rtol=1e-9, atol=1e-9)


class TestBlockedMatrixMultiplyCosts:
    def test_peak_residency_within_budget(self, rng):
        a = rng.standard_normal((20, 20))
        b = rng.standard_normal((20, 20))
        for memory in (12, 48, 108, 300):
            execution = BlockedMatrixMultiply().execute(memory, a=a, b=b)
            assert execution.peak_memory_words <= memory

    def test_compute_ops_are_2n_cubed(self, rng):
        n = 16
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        execution = BlockedMatrixMultiply().execute(75, a=a, b=b)
        assert execution.cost.compute_ops == pytest.approx(2 * n**3)

    def test_io_decreases_as_memory_grows(self, rng):
        n = 24
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        kernel = BlockedMatrixMultiply()
        io = [kernel.execute(m, a=a, b=b).cost.io_words for m in (12, 48, 192)]
        assert io[0] > io[1] > io[2]

    def test_intensity_grows_like_sqrt_memory(self, rng):
        """Doubling the tile side (4x memory) roughly doubles the intensity."""
        n = 36
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        kernel = BlockedMatrixMultiply()
        f_small = kernel.execute(27, a=a, b=b).intensity   # tile side 3
        f_large = kernel.execute(108, a=a, b=b).intensity  # tile side 6
        assert f_large / f_small == pytest.approx(2.0, rel=0.25)

    def test_analytic_cost_tracks_measured_cost(self, rng):
        n = 24
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        kernel = BlockedMatrixMultiply()
        for memory in (27, 108):
            measured = kernel.execute(memory, a=a, b=b).cost
            analytic = kernel.analytic_cost(memory, a=a, b=b)
            assert measured.compute_ops == pytest.approx(analytic.compute_ops, rel=0.05)
            assert measured.io_words == pytest.approx(analytic.io_words, rel=0.20)

    def test_phases_sum_to_total_cost(self, rng):
        a = rng.standard_normal((12, 12))
        b = rng.standard_normal((12, 12))
        execution = BlockedMatrixMultiply().execute(48, a=a, b=b)
        assert execution.phases.total.compute_ops == pytest.approx(
            execution.cost.compute_ops
        )
        assert execution.phases.total.io_words == pytest.approx(execution.cost.io_words)

    def test_default_problem_is_deterministic(self):
        kernel = BlockedMatrixMultiply()
        p1 = kernel.default_problem(8)
        p2 = kernel.default_problem(8)
        np.testing.assert_array_equal(p1["a"], p2["a"])


def _outcome(run):
    """What one run gave: output bytes and the reprs of its cost, peak and
    phases (so an int where the other gives a float shows), or the type and
    message of the error it raised."""
    try:
        with np.errstate(all="ignore"):
            output, cost, peak, phases = run()
    except Exception as exc:  # the error is the outcome
        return type(exc), str(exc)
    return output.tobytes(), repr(cost), peak, repr(phases)


class TestFastPathMatchesChunkReference:
    """The tile-at-a-time kernel against the chunk-by-chunk loop: bitwise
    outputs, identical cost, peak residency and phase list, and the same
    error wherever one raises."""

    @staticmethod
    def _assert_equivalent(a, b, memory, tile_shape=None):
        kernel = BlockedMatrixMultiply(tile_shape=tile_shape)

        def fast():
            execution = kernel.execute(memory, a=a, b=b)
            return (
                execution.output,
                execution.cost,
                execution.peak_memory_words,
                execution.phases.phases,
            )

        def reference():
            ctx = ExecutionContext.with_capacity(memory)
            output = _blocked_matmul_reference(kernel, ctx, a, b)
            return output, ctx.cost(), ctx.memory.peak_words, ctx.phases.phases

        outcome = _outcome(fast)
        assert outcome == _outcome(reference)
        return outcome

    @given(
        n_rows=st.integers(min_value=0, max_value=20),
        n_inner=st.integers(min_value=0, max_value=20),
        n_cols=st.integers(min_value=0, max_value=20),
        memory=st.one_of(
            st.integers(min_value=3, max_value=60),
            st.integers(min_value=3, max_value=2000),
        ),
        tile_shape=st.one_of(
            st.none(),
            st.tuples(
                st.integers(min_value=1, max_value=12),
                st.integers(min_value=1, max_value=12),
            ),
        ),
        specials=st.sampled_from([0.0, 0.3]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(
        self, n_rows, n_inner, n_cols, memory, tile_shape, specials, seed
    ):
        """Any rectangular shape (empty ones too), any memory and tile shape,
        including tiles that overflow the memory; a share of the entries
        set to +-0.0 or NaN."""
        rng = np.random.default_rng(seed)
        operands = []
        for shape in ((n_rows, n_inner), (n_inner, n_cols)):
            x = rng.standard_normal(shape)
            mask = rng.random(shape) < specials
            x[mask] = rng.choice([0.0, -0.0, np.nan], size=int(mask.sum()))
            operands.append(x)
        self._assert_equivalent(*operands, memory, tile_shape)

    def test_same_errors(self, rng):
        a = rng.standard_normal((6, 5))
        b = rng.standard_normal((5, 7))
        # A 3 x 3 tile fills 9 of 10 words; the clamped one-word chunks
        # then overflow the memory.
        clamped = self._assert_equivalent(a, b, 10, (3, 3))
        assert clamped[0] is MemoryCapacityError
        assert "'a_chunk'" in clamped[1]
        # A tile that fills the whole memory leaves no room for panels.
        assert self._assert_equivalent(a, b, 9, (3, 3))[0] is ConfigurationError
        assert self._assert_equivalent(a, b.T, 48)[0] is ConfigurationError

    def test_full_suite_points(self):
        kernel = BlockedMatrixMultiply()
        for memory in (12, 27, 48, 108, 192, 300, 432):
            problem = kernel.problem_for_memory(memory, 48)
            self._assert_equivalent(problem["a"], problem["b"], memory)
