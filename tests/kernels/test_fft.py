"""Tests for the blocked FFT kernel and the Figure 2 decomposition (Section 3.4)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.kernels.base import ExecutionContext
from repro.kernels.fft import (
    OPS_PER_BUTTERFLY,
    WORDS_PER_COMPLEX,
    BlockedFFT,
    _bit_reversed_copy,
    block_points_for_memory,
    decomposition_plan,
)


def _blocked_fft_reference(ctx: ExecutionContext, x: np.ndarray) -> np.ndarray:
    """The scalar specification of :meth:`BlockedFFT._run`: block by block,
    one butterfly at a time."""
    data = _bit_reversed_copy(x)
    n = data.shape[0]
    plan = decomposition_plan(n, ctx.memory.capacity_words)
    for fft_pass in plan:
        pass_ops = 0.0
        pass_io = 0.0
        for group in fft_pass.groups:
            group_size = len(group)
            words = group_size * WORDS_PER_COMPLEX
            with ctx.memory.buffer("fft_block", words):
                ctx.io.read(words)
                pass_io += words
                block = data[list(group)]

                for stage in range(fft_pass.first_stage, fft_pass.last_stage):
                    local_bit = stage - fft_pass.first_stage
                    half = 1 << local_bit
                    span = 1 << (stage + 1)
                    for j in range(group_size):
                        if j & half:
                            continue
                        partner = j | half
                        global_index = group[j]
                        twiddle_exponent = global_index % (1 << stage)
                        w = np.exp(-2j * np.pi * twiddle_exponent / span)
                        t = w * block[partner]
                        u = block[j]
                        block[j] = u + t
                        block[partner] = u - t
                        ctx.ops.add(OPS_PER_BUTTERFLY)
                        pass_ops += OPS_PER_BUTTERFLY

                data[list(group)] = block
                ctx.io.write(words)
                pass_io += words
        ctx.phases.record(
            f"stages[{fft_pass.first_stage}:{fft_pass.last_stage}]",
            pass_ops,
            pass_io,
        )
    return data


class TestBlockPointsForMemory:
    def test_power_of_two(self):
        assert block_points_for_memory(8) == 4
        assert block_points_for_memory(9) == 4
        assert block_points_for_memory(64) == 32

    def test_too_small_memory_rejected(self):
        with pytest.raises(ConfigurationError):
            block_points_for_memory(2)


class TestDecompositionPlan:
    def test_figure2_shape_n16_m4(self):
        """The paper's Figure 2: N=16 points, 4-point blocks, two passes of 4 blocks."""
        plan = decomposition_plan(16, 4 * WORDS_PER_COMPLEX)
        assert len(plan) == 2
        for fft_pass in plan:
            assert fft_pass.group_size == 4
            assert len(fft_pass.groups) == 4

    def test_groups_partition_all_indices(self):
        plan = decomposition_plan(64, 16)
        for fft_pass in plan:
            seen = sorted(i for group in fft_pass.groups for i in group)
            assert seen == list(range(64))

    def test_groups_are_shuffled_between_passes(self):
        """Blocks of consecutive passes interleave (the Figure 2 shuffle)."""
        plan = decomposition_plan(16, 4 * WORDS_PER_COMPLEX)
        first_groups = {frozenset(g) for g in plan[0].groups}
        second_groups = {frozenset(g) for g in plan[1].groups}
        assert first_groups.isdisjoint(second_groups)

    def test_pass_stages_cover_log2_n(self):
        plan = decomposition_plan(256, 32)
        covered = []
        for fft_pass in plan:
            covered.extend(range(fft_pass.first_stage, fft_pass.last_stage))
        assert covered == list(range(8))

    def test_single_pass_when_memory_holds_everything(self):
        plan = decomposition_plan(32, 1024)
        assert len(plan) == 1
        assert plan[0].group_size == 32

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigurationError):
            decomposition_plan(12, 16)

    @given(
        log_n=st.integers(min_value=2, max_value=8),
        log_b=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40)
    def test_every_pass_partitions_indices(self, log_n, log_b):
        """Property: each pass's groups are a partition of all N lines."""
        n = 1 << log_n
        memory = (1 << log_b) * WORDS_PER_COMPLEX
        plan = decomposition_plan(n, memory)
        for fft_pass in plan:
            flat = sorted(i for g in fft_pass.groups for i in g)
            assert flat == list(range(n))
            assert all(len(g) == fft_pass.group_size for g in fft_pass.groups)


class TestBlockedFFTCorrectness:
    @pytest.mark.parametrize("n,memory", [(8, 4), (16, 8), (16, 32), (64, 8), (64, 16), (128, 64)])
    def test_matches_numpy_fft(self, n, memory, rng):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        execution = BlockedFFT().execute(memory, x=x)
        np.testing.assert_allclose(execution.output, np.fft.fft(x), rtol=1e-9, atol=1e-9)

    def test_real_input(self, rng):
        x = rng.standard_normal(32)
        execution = BlockedFFT().execute(16, x=x)
        np.testing.assert_allclose(execution.output, np.fft.fft(x), rtol=1e-9, atol=1e-9)

    def test_whole_transform_in_memory(self, rng):
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        execution = BlockedFFT().execute(4096, x=x)
        np.testing.assert_allclose(execution.output, np.fft.fft(x), rtol=1e-9, atol=1e-9)

    def test_non_power_of_two_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            BlockedFFT().execute(16, x=rng.standard_normal(12))

    def test_verify_helper(self):
        kernel = BlockedFFT()
        problem = kernel.default_problem(5)
        assert kernel.verify(kernel.execute(16, **problem))

    @given(
        log_n=st.integers(min_value=1, max_value=7),
        log_b=st.integers(min_value=1, max_value=7),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_correct_for_any_block_size(self, log_n, log_b, seed):
        """Property: the blocked FFT equals numpy's FFT for any decomposition."""
        rng = np.random.default_rng(seed)
        n = 1 << log_n
        memory = (1 << log_b) * WORDS_PER_COMPLEX
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        execution = BlockedFFT().execute(memory, x=x)
        np.testing.assert_allclose(execution.output, np.fft.fft(x), rtol=1e-8, atol=1e-8)


class TestBlockedFFTCosts:
    def test_peak_residency_within_budget(self, rng):
        x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        for memory in (8, 32, 128):
            execution = BlockedFFT().execute(memory, x=x)
            assert execution.peak_memory_words <= memory

    def test_total_butterfly_count(self, rng):
        n = 64
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        execution = BlockedFFT().execute(16, x=x)
        butterflies = execution.cost.compute_ops / 10.0
        assert butterflies == pytest.approx(n / 2 * math.log2(n))

    def test_io_proportional_to_pass_count(self, rng):
        """With stage counts dividing log2 N, I/O = 2 * N * words * passes."""
        n = 4096
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        kernel = BlockedFFT()
        io_by_memory = {}
        for memory, expected_passes in ((8, 6), (32, 3), (128, 2)):
            execution = kernel.execute(memory, x=x)
            io_by_memory[memory] = execution.cost.io_words
            assert execution.cost.io_words == pytest.approx(
                2 * n * WORDS_PER_COMPLEX * expected_passes
            )
        assert io_by_memory[8] > io_by_memory[32] > io_by_memory[128]

    def test_intensity_proportional_to_log_block(self, rng):
        """Intensity ratio between divisible block sizes follows log2 B."""
        n = 4096
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        kernel = BlockedFFT()
        f_small = kernel.execute(8, x=x).intensity      # B=4, 2 stages/pass
        f_large = kernel.execute(128, x=x).intensity    # B=64, 6 stages/pass
        assert f_large / f_small == pytest.approx(3.0, rel=0.05)

    def test_analytic_cost_matches_measured(self, rng):
        n = 256
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        kernel = BlockedFFT()
        for memory in (8, 32, 512):
            measured = kernel.execute(memory, x=x).cost
            analytic = kernel.analytic_cost(memory, x=x)
            assert measured.compute_ops == pytest.approx(analytic.compute_ops, rel=0.01)
            assert measured.io_words == pytest.approx(analytic.io_words, rel=0.01)


class TestVectorizedPassesMatchScalarReference:
    """The stage-at-a-time kernel against the block-by-block butterfly loop:
    bitwise outputs, identical cost, peak residency and phase list."""

    @staticmethod
    def _assert_equivalent(x: np.ndarray, memory: int) -> None:
        fast = BlockedFFT().execute(memory, x=x)
        ctx = ExecutionContext.with_capacity(memory)
        reference = _blocked_fft_reference(ctx, x)
        assert fast.output.tobytes() == reference.tobytes()
        assert fast.cost == ctx.cost()
        assert fast.peak_memory_words == ctx.memory.peak_words
        assert fast.phases.phases == ctx.phases.phases

    @given(
        log_n=st.integers(min_value=2, max_value=10),
        memory=st.one_of(
            st.integers(min_value=4, max_value=64),
            st.sampled_from([4, 8, 16, 128, 1024, 2048, 4096]),
        ),
        zeros=st.sampled_from([0.0, 0.2]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_reference(self, log_n, memory, zeros, seed):
        """Any size, any memory (non-powers of two round down to a block),
        with a share of the real and imaginary parts set to +-0.0."""
        rng = np.random.default_rng(seed)
        n = 1 << log_n
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        parts = x.view(np.float64)
        mask = rng.random(parts.shape) < zeros
        parts[mask] = rng.choice([0.0, -0.0], size=int(mask.sum()))
        self._assert_equivalent(x, memory)

    def test_real_input_and_two_points(self, rng):
        self._assert_equivalent(rng.standard_normal(2), 4)
        self._assert_equivalent(rng.standard_normal(64), 9)
