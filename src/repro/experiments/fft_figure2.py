"""Experiment E6: the Figure 2 FFT decomposition.

Figure 2 of the paper shows a sixteen-point FFT decomposed into
subcomputation blocks of four points each (``N = 16``, ``M = 4`` complex
points): two passes of four blocks, with a shuffle between them.  This
experiment reconstructs that decomposition from the blocked-FFT kernel's
planner, checks its structural properties (pass count, block sizes, the
shuffle between passes), renders it as text, and runs the actual kernel at
the same parameters to confirm the decomposition computes the correct DFT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.report import Table
from repro.exceptions import ConfigurationError
from repro.kernels.fft import WORDS_PER_COMPLEX, BlockedFFT, FFTPass, decomposition_plan
from repro.runtime.tasks import Task

__all__ = [
    "Figure2Result",
    "figure2_task",
    "run_figure2_experiment",
    "render_decomposition",
]


@dataclass(frozen=True)
class Figure2Result:
    """Reconstruction of the paper's Figure 2 for given ``N`` and ``M``."""

    n_points: int
    block_points: int
    passes: tuple[FFTPass, ...]
    max_output_error: float

    @property
    def pass_count(self) -> int:
        return len(self.passes)

    @property
    def blocks_per_pass(self) -> int:
        return self.n_points // self.block_points

    @property
    def correct(self) -> bool:
        return self.max_output_error < 1e-9

    def table(self) -> Table:
        table = Table(
            columns=("pass", "stages", "blocks", "block size (points)"),
            title=(
                f"Figure 2 decomposition: {self.n_points}-point FFT with "
                f"{self.block_points}-point blocks"
            ),
        )
        for index, fft_pass in enumerate(self.passes):
            table.add_row(
                index + 1,
                f"{fft_pass.first_stage}..{fft_pass.last_stage - 1}",
                len(fft_pass.groups),
                fft_pass.group_size,
            )
        return table


def render_decomposition(result: Figure2Result) -> str:
    """Text rendering of the block structure (which lines co-reside per pass)."""
    lines = [
        f"{result.n_points}-point FFT, blocks of {result.block_points} points "
        f"({result.pass_count} passes):"
    ]
    for index, fft_pass in enumerate(result.passes):
        lines.append(
            f"  pass {index + 1} (butterfly stages "
            f"{fft_pass.first_stage}..{fft_pass.last_stage - 1}):"
        )
        for group in fft_pass.groups:
            members = ", ".join(f"{i:>2d}" for i in group)
            lines.append(f"    block [{members}]")
    return "\n".join(lines)


def run_figure2_experiment(
    n_points: int = 16, block_points: int = 4
) -> Figure2Result:
    """Reconstruct Figure 2 (defaults ``N=16``, ``M=4``) and verify the FFT."""
    if block_points < 2:
        raise ConfigurationError("block_points must be at least 2")
    memory_words = block_points * WORDS_PER_COMPLEX
    passes = tuple(decomposition_plan(n_points, memory_words))

    kernel = BlockedFFT()
    rng = np.random.default_rng(16)
    x = rng.standard_normal(n_points) + 1j * rng.standard_normal(n_points)
    execution = kernel.execute(memory_words, x=x)
    expected = np.fft.fft(x)
    max_error = float(np.max(np.abs(np.asarray(execution.output) - expected)))

    return Figure2Result(
        n_points=n_points,
        block_points=block_points,
        passes=passes,
        max_output_error=max_error,
    )


def figure2_task(n_points: int = 16, block_points: int = 4) -> Task:
    """Experiment E6 as a cacheable runtime task."""
    return Task(
        fn=run_figure2_experiment,
        params={"n_points": int(n_points), "block_points": int(block_points)},
        name=f"figure2[N={n_points},M={block_points}]",
    )
