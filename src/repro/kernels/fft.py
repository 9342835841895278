"""Blocked out-of-core fast Fourier transform (Section 3.4, Figure 2).

The paper decomposes an ``N``-point FFT into subcomputation blocks that each
fit entirely inside the ``M``-word local memory (Figure 2 shows the
decomposition for ``N = 16`` and ``M = 4``): results of blocks are shuffled
before being used as the inputs of later blocks.  Each block performs
``Theta(M log2 M)`` arithmetic operations against ``Theta(M)`` word
transfers, so the intensity is ``Theta(log2 M)`` and rebalancing requires
``M_new = M_old ** alpha`` -- exponential memory growth.

:class:`BlockedFFT` implements the radix-2 decimation-in-time FFT with its
``log2 N`` butterfly stages grouped into passes of ``log2 B`` stages, where
``B`` is the largest block (in complex points) fitting in local memory.
Within a pass, the indices that interact form independent groups of ``B``
points; every group is gathered into local memory, its butterflies are
applied with the correct global twiddle factors, and it is scattered back.
The result is verified against ``numpy.fft.fft``.  The groups of a pass are
disjoint, so the kernel runs each stage over all of a pass's groups at once
and charges the pass once.  Its specification is the block-by-block scalar
butterfly loop in ``tests/kernels/test_fft.py``, whose equivalence suite
holds the kernel bitwise- and count-identical to it.

:func:`decomposition_plan` exposes the pass/group structure itself so the
Figure 2 experiment can reconstruct the paper's picture for ``N=16, M=4``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.model import ComputationCost
from repro.exceptions import ConfigurationError
from repro.kernels.base import ExecutionContext, Kernel

__all__ = ["BlockedFFT", "decomposition_plan", "FFTPass", "block_points_for_memory"]

#: Real words per complex point (one word each for the real and imaginary parts).
WORDS_PER_COMPLEX = 2

#: Real arithmetic operations per radix-2 butterfly (complex multiply + two adds).
OPS_PER_BUTTERFLY = 10


def block_points_for_memory(memory_words: int) -> int:
    """Largest power-of-two block size (complex points) fitting in local memory."""
    max_points = memory_words // WORDS_PER_COMPLEX
    if max_points < 2:
        raise ConfigurationError(
            f"a local memory of {memory_words} words cannot hold a 2-point FFT block"
        )
    return 1 << int(math.floor(math.log2(max_points)))


@dataclass(frozen=True)
class FFTPass:
    """One pass of the blocked FFT: a contiguous range of butterfly stages."""

    first_stage: int
    last_stage: int
    group_size: int
    groups: tuple[tuple[int, ...], ...]

    @property
    def stage_count(self) -> int:
        return self.last_stage - self.first_stage


def _bit_reverse_indices(n: int) -> np.ndarray:
    bits = int(math.log2(n))
    indices = np.arange(n)
    reversed_indices = np.zeros(n, dtype=int)
    for bit in range(bits):
        reversed_indices |= ((indices >> bit) & 1) << (bits - 1 - bit)
    return reversed_indices


def decomposition_plan(n_points: int, memory_words: int) -> list[FFTPass]:
    """The Figure-2 decomposition: passes and per-pass index groups.

    Each returned :class:`FFTPass` covers ``log2 B`` butterfly stages (fewer
    for the final pass when ``log2 N`` is not a multiple of ``log2 B``) and
    lists the groups of global indices that are co-resident in local memory.
    """
    _check_size(n_points)
    passes: list[FFTPass] = []
    for stage, last in _pass_stages(n_points, memory_words):
        group_size = 1 << (last - stage)
        mid_mask = ((1 << last) - 1) ^ ((1 << stage) - 1)
        groups: list[tuple[int, ...]] = []
        seen: set[int] = set()
        for index in range(n_points):
            key = index & ~mid_mask
            if key in seen:
                continue
            seen.add(key)
            members = tuple(key | (j << stage) for j in range(group_size))
            groups.append(members)
        passes.append(
            FFTPass(
                first_stage=stage,
                last_stage=last,
                group_size=group_size,
                groups=tuple(groups),
            )
        )
    return passes


def _check_size(n_points: int) -> None:
    if n_points < 2 or n_points & (n_points - 1):
        raise ConfigurationError(f"FFT size must be a power of two >= 2, got {n_points}")


def _pass_stages(n_points: int, memory_words: int) -> list[tuple[int, int]]:
    """``(first_stage, last_stage)`` of each pass: ``log2 B`` stages apiece."""
    block = min(block_points_for_memory(memory_words), n_points)
    total_stages = n_points.bit_length() - 1
    stages_per_pass = block.bit_length() - 1
    return [
        (stage, min(stage + stages_per_pass, total_stages))
        for stage in range(0, total_stages, stages_per_pass)
    ]


def _bit_reversed_copy(x: np.ndarray) -> np.ndarray:
    """The input as complex points in the bit-reversed order DIT starts from.

    As in Figure 2, the shuffles between subcomputation blocks are realised
    purely by how blocks gather and scatter their words in external memory
    -- they move no data of their own -- so the bit-reversal is an
    addressing convention, not an I/O pass: every word is still charged
    exactly once per pass when its block reads and writes it.
    """
    data = np.array(x, dtype=complex, copy=True)
    _check_size(data.shape[0])
    return data[_bit_reverse_indices(data.shape[0])]


def _butterfly_stage(data: np.ndarray, stage: int) -> None:
    """Apply butterfly stage ``stage`` to every pair of ``data`` in place.

    The pairs ``(low, low + half)`` of one stage are disjoint, so running
    them all at once gives each point the operation sequence the per-block
    loop gives it.  The twiddle of a pair depends on ``low % half`` only.
    The product ``w * high`` is written out in real arithmetic, which rounds
    exactly as numpy's scalar complex product does.  Numpy's SIMD complex
    multiply fuses its multiply-adds: on an x86-64 host with FMA it differed
    from the scalar product in the last bit for about half of 10,000 random
    operand pairs.
    """
    half = 1 << stage
    pairs = data.reshape(-1, 2, half)
    low = pairs[:, 0, :]
    high = pairs[:, 1, :]
    w = np.exp(-2j * np.pi * np.arange(half) / (2 * half))
    t = np.empty_like(high)
    t.real = w.real * high.real - w.imag * high.imag
    t.imag = w.real * high.imag + w.imag * high.real
    upper = low + t
    high[...] = low - t
    low[...] = upper


class BlockedFFT(Kernel):
    """Radix-2 DIT FFT whose butterfly stages are executed in memory-sized blocks."""

    registry_name = "fft"
    minimum_memory_words = 2 * WORDS_PER_COMPLEX

    def default_problem(self, scale: int) -> dict[str, Any]:
        n = 1 << max(2, int(scale))
        rng = np.random.default_rng(scale)
        return {"x": rng.standard_normal(n) + 1j * rng.standard_normal(n)}

    def reference(self, *, x: np.ndarray) -> np.ndarray:
        return np.fft.fft(np.asarray(x, dtype=complex))

    def analytic_cost(self, memory_words: int, *, x: np.ndarray) -> ComputationCost:
        n = len(x)
        block = min(block_points_for_memory(memory_words), n)
        total_stages = math.log2(n)
        stages_per_pass = math.log2(block)
        passes = math.ceil(total_stages / stages_per_pass)
        # Every pass touches all N points once: N/B blocks of B points.
        io_words = passes * 2.0 * n * WORDS_PER_COMPLEX
        ops = OPS_PER_BUTTERFLY * (n / 2.0) * total_stages
        return ComputationCost(ops, io_words)

    def _run(self, ctx: ExecutionContext, *, x: np.ndarray) -> np.ndarray:
        data = _bit_reversed_copy(x)
        n = data.shape[0]
        # Every pass reads and writes all N points, one memory-sized group of
        # B points at a time; the groups of a pass are disjoint and equally
        # sized, so each pass is charged once and runs stage by stage over
        # all of its groups at the same time.
        pass_io = 2.0 * n * WORDS_PER_COMPLEX
        for first, last in _pass_stages(n, ctx.memory.capacity_words):
            pass_ops = float(OPS_PER_BUTTERFLY * (n // 2) * (last - first))
            block_words = (1 << (last - first)) * WORDS_PER_COMPLEX
            with ctx.memory.buffer("fft_block", block_words):
                ctx.io.read(n * WORDS_PER_COMPLEX)
                for stage in range(first, last):
                    _butterfly_stage(data, stage)
                ctx.ops.add(pass_ops)
                ctx.io.write(n * WORDS_PER_COMPLEX)
            ctx.phases.record(f"stages[{first}:{last}]", pass_ops, pass_io)
        return data
