"""Tests for the blocked LU triangularization kernel (Section 3.2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.kernels.base import ExecutionContext
from repro.kernels.matmul import tile_side_for_memory
from repro.kernels.triangularization import (
    BlockedLUTriangularization,
    make_diagonally_dominant,
    unblocked_lu,
)


def _blocked_lu_reference(ctx: ExecutionContext, a: np.ndarray) -> np.ndarray:
    """The tile-by-tile specification of :meth:`BlockedLUTriangularization._run`:
    every buffer held and every op and word charged as the tile is
    processed."""
    a = np.array(a, dtype=float, copy=True)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigurationError("triangularization requires a square matrix")
    n = a.shape[0]
    s = tile_side_for_memory(ctx.memory.capacity_words)

    for k0 in range(0, n, s):
        k1 = min(k0 + s, n)
        w = k1 - k0
        step_ops = 0.0
        step_io = 0.0

        # 1. Factor the diagonal block in local memory.
        with ctx.memory.buffer("diag", w * w):
            ctx.io.read(w * w)
            step_io += w * w
            diag = np.array(a[k0:k1, k0:k1], copy=True)
            for k in range(w - 1):
                pivot = diag[k, k]
                if pivot == 0:
                    raise ConfigurationError(
                        "zero pivot encountered; matrix needs pivoting"
                    )
                diag[k + 1 :, k] /= pivot
                diag[k + 1 :, k + 1 :] -= np.outer(diag[k + 1 :, k], diag[k, k + 1 :])
                ops = (w - k - 1) + 2.0 * (w - k - 1) ** 2
                ctx.ops.add(ops)
                step_ops += ops
            a[k0:k1, k0:k1] = diag
            ctx.io.write(w * w)
            step_io += w * w

            lower = np.tril(diag, -1) + np.eye(w)
            upper = np.triu(diag)

            # 2. Column panel: L21 = A21 @ inv(U11), one row block at a time.
            for i0 in range(k1, n, s):
                i1 = min(i0 + s, n)
                rows = i1 - i0
                with ctx.memory.buffer("panel_block", rows * w):
                    ctx.io.read(rows * w)
                    step_io += rows * w
                    block = np.array(a[i0:i1, k0:k1], copy=True)
                    # Solve X @ U11 = block by back substitution on columns.
                    for j in range(w):
                        block[:, j] -= block[:, :j] @ upper[:j, j]
                        block[:, j] /= upper[j, j]
                        ops = 2.0 * rows * j + rows
                        ctx.ops.add(ops)
                        step_ops += ops
                    a[i0:i1, k0:k1] = block
                    ctx.io.write(rows * w)
                    step_io += rows * w

            # 3. Row panel: U12 = inv(L11) @ A12, one column block at a time.
            for j0 in range(k1, n, s):
                j1 = min(j0 + s, n)
                cols = j1 - j0
                with ctx.memory.buffer("panel_block", w * cols):
                    ctx.io.read(w * cols)
                    step_io += w * cols
                    block = np.array(a[k0:k1, j0:j1], copy=True)
                    for i in range(w):
                        block[i, :] -= lower[i, :i] @ block[:i, :]
                        ops = 2.0 * cols * i
                        ctx.ops.add(ops)
                        step_ops += ops
                    a[k0:k1, j0:j1] = block
                    ctx.io.write(w * cols)
                    step_io += w * cols

        # 4. Trailing-matrix update with matmul-style tiling.
        for i0 in range(k1, n, s):
            i1 = min(i0 + s, n)
            rows = i1 - i0
            for j0 in range(k1, n, s):
                j1 = min(j0 + s, n)
                cols = j1 - j0
                with ctx.memory.buffer("c_tile", rows * cols), \
                        ctx.memory.buffer("l_tile", rows * w), \
                        ctx.memory.buffer("u_tile", w * cols):
                    ctx.io.read(rows * cols)
                    ctx.io.read(rows * w)
                    ctx.io.read(w * cols)
                    step_io += rows * cols + rows * w + w * cols
                    a[i0:i1, j0:j1] -= a[i0:i1, k0:k1] @ a[k0:k1, j0:j1]
                    ops = 2.0 * rows * cols * w
                    ctx.ops.add(ops)
                    step_ops += ops
                    ctx.io.write(rows * cols)
                    step_io += rows * cols

        ctx.phases.record(f"panel[{k0}:{k1}]", step_ops, step_io)
    return a


def _unpack(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lower = np.tril(packed, -1) + np.eye(packed.shape[0])
    upper = np.triu(packed)
    return lower, upper


class TestUnblockedLU:
    def test_factors_reconstruct_matrix(self):
        a = make_diagonally_dominant(8, seed=3)
        lower, upper = _unpack(unblocked_lu(a))
        np.testing.assert_allclose(lower @ upper, a, rtol=1e-9)

    def test_upper_is_triangular(self):
        a = make_diagonally_dominant(6, seed=1)
        _, upper = _unpack(unblocked_lu(a))
        np.testing.assert_allclose(np.tril(upper, -1), 0, atol=1e-12)

    def test_zero_pivot_detected(self):
        a = np.zeros((3, 3))
        with pytest.raises(ConfigurationError):
            unblocked_lu(a)

    def test_does_not_mutate_input(self):
        a = make_diagonally_dominant(5, seed=2)
        copy = a.copy()
        unblocked_lu(a)
        np.testing.assert_array_equal(a, copy)


class TestBlockedLUCorrectness:
    @pytest.mark.parametrize("memory", [3, 12, 27, 75, 300])
    def test_matches_unblocked_reference(self, memory):
        a = make_diagonally_dominant(13, seed=7)
        kernel = BlockedLUTriangularization()
        execution = kernel.execute(memory, a=a)
        np.testing.assert_allclose(execution.output, unblocked_lu(a), rtol=1e-8, atol=1e-8)

    def test_factors_reconstruct_original_matrix(self):
        a = make_diagonally_dominant(16, seed=11)
        execution = BlockedLUTriangularization().execute(48, a=a)
        lower, upper = _unpack(np.asarray(execution.output))
        np.testing.assert_allclose(lower @ upper, a, rtol=1e-8, atol=1e-8)

    def test_non_square_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            BlockedLUTriangularization().execute(48, a=rng.standard_normal((4, 6)))

    def test_verify_helper(self):
        kernel = BlockedLUTriangularization()
        problem = kernel.default_problem(10)
        assert kernel.verify(kernel.execute(27, **problem))

    @given(
        n=st.integers(min_value=2, max_value=14),
        memory=st.integers(min_value=3, max_value=150),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_reconstruction_property(self, n, memory, seed):
        """Property: L @ U always reconstructs A, for any blocking."""
        a = make_diagonally_dominant(n, seed=seed)
        execution = BlockedLUTriangularization().execute(memory, a=a)
        lower, upper = _unpack(np.asarray(execution.output))
        np.testing.assert_allclose(lower @ upper, a, rtol=1e-7, atol=1e-7)


class TestBlockedLUCosts:
    def test_peak_residency_within_budget(self):
        a = make_diagonally_dominant(20, seed=5)
        for memory in (12, 48, 147):
            execution = BlockedLUTriangularization().execute(memory, a=a)
            assert execution.peak_memory_words <= memory

    def test_compute_ops_scale_as_n_cubed(self):
        kernel = BlockedLUTriangularization()
        ops = []
        for n in (12, 24):
            a = make_diagonally_dominant(n, seed=n)
            ops.append(kernel.execute(48, a=a).cost.compute_ops)
        assert ops[1] / ops[0] == pytest.approx(8.0, rel=0.35)

    def test_io_decreases_as_memory_grows(self):
        a = make_diagonally_dominant(24, seed=9)
        kernel = BlockedLUTriangularization()
        io = [kernel.execute(m, a=a).cost.io_words for m in (12, 48, 192)]
        assert io[0] > io[1] > io[2]

    def test_intensity_grows_like_sqrt_memory(self):
        a = make_diagonally_dominant(36, seed=13)
        kernel = BlockedLUTriangularization()
        f_small = kernel.execute(27, a=a).intensity
        f_large = kernel.execute(108, a=a).intensity
        assert f_large / f_small == pytest.approx(2.0, rel=0.3)

    def test_phases_cover_every_panel(self):
        a = make_diagonally_dominant(12, seed=17)
        execution = BlockedLUTriangularization().execute(27, a=a)
        # tile side 3 -> 4 panel steps for a 12 x 12 matrix
        assert len(execution.phases) == 4
        assert execution.phases.total.io_words == pytest.approx(execution.cost.io_words)

    def test_make_diagonally_dominant_is_dominant(self):
        a = make_diagonally_dominant(10, seed=21)
        off_diagonal = np.abs(a).sum(axis=1) - np.abs(np.diag(a))
        assert np.all(np.abs(np.diag(a)) > off_diagonal - 1e-9)


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


class TestFastPathMatchesTileReference:
    """The step-at-a-time kernel against the tile-by-tile loop: bitwise
    outputs, identical cost, peak residency and phase list, and the same
    error wherever one raises."""

    @staticmethod
    def _assert_equivalent(a, memory):
        kernel = BlockedLUTriangularization()

        def fast():
            execution = kernel.execute(memory, a=a)
            return (
                execution.output,
                execution.cost,
                execution.peak_memory_words,
                execution.phases.phases,
            )

        def reference():
            ctx = ExecutionContext.with_capacity(memory)
            output = _blocked_lu_reference(ctx, a)
            return output, ctx.cost(), ctx.memory.peak_words, ctx.phases.phases

        outcome = _outcome(fast)
        assert outcome == _outcome(reference)
        return outcome

    @given(
        n=st.integers(min_value=0, max_value=24),
        memory=st.one_of(
            st.integers(min_value=3, max_value=60),
            st.integers(min_value=3, max_value=2000),
        ),
        dominant=st.booleans(),
        specials=st.sampled_from([0.0, 0.2]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, n, memory, dominant, specials, seed):
        """Any order (empty too) and any memory, on diagonally dominant or
        plain random matrices; a share of the entries set to +-0.0 or NaN,
        so zero pivots and NaN propagation both occur."""
        rng = np.random.default_rng(seed)
        a = make_diagonally_dominant(n, seed=seed) if dominant else rng.standard_normal((n, n))
        mask = rng.random((n, n)) < specials
        a[mask] = rng.choice([0.0, -0.0, np.nan], size=int(mask.sum()))
        self._assert_equivalent(a, memory)

    @pytest.mark.parametrize("memory", [3, 12, 27, 300])
    @pytest.mark.parametrize("where", [0, 1])
    def test_zero_pivot_raises_the_same_error(self, memory, where):
        """A zero first pivot, or one that elimination makes exactly zero."""
        a = make_diagonally_dominant(9, seed=4)
        a[where, where] = a[where, 0] / a[0, 0] * a[0, where] if where else 0.0
        outcome = self._assert_equivalent(a, memory)
        # Only a block's last pivot goes unchecked, so a one-column block
        # (M < 12) checks none, and a two-column one misses the second.
        if tile_side_for_memory(memory) > where + 1:
            assert outcome == (
                ConfigurationError,
                "zero pivot encountered; matrix needs pivoting",
            )

    def test_full_suite_points(self):
        kernel = BlockedLUTriangularization()
        for memory in (12, 27, 48, 108, 192, 300, 432):
            self._assert_equivalent(kernel.problem_for_memory(memory, 48)["a"], memory)
