"""Memory-sweep results: measured ``F(M)`` and rebalancing curves.

A :class:`MemorySweepResult` holds one instrumented kernel's executions on
one problem at a series of local-memory sizes, as the sweep engine
(:class:`~repro.runtime.engine.SweepRunner`) returns them.  The result can be

* fitted (power law vs logarithmic law, :mod:`repro.analysis.fitting`),
* classified into the paper's taxonomy (:mod:`repro.core.classification`),
* wrapped into a :class:`~repro.core.intensity.TabulatedIntensity` so the
  generic rebalancing solver operates on *measured* data, which is how the
  benchmarks recover ``M_new = alpha**2 M_old`` and friends experimentally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.fitting import (
    LogLawFit,
    PowerLawFit,
    fit_log_law,
    fit_power_law,
    select_intensity_model,
)
from repro.core.classification import ClassificationResult, classify_samples
from repro.core.intensity import TabulatedIntensity
from repro.core.rebalance import RebalanceResult, rebalance_memory
from repro.exceptions import ConfigurationError
from repro.kernels.base import KernelExecution

__all__ = [
    "MemorySweepResult",
    "measured_rebalance_curve",
    "normalize_memory_sizes",
]


def normalize_memory_sizes(memory_sizes: Sequence[int]) -> tuple[int, ...]:
    """Validate and sort a sweep's memory grid.

    Returns the sizes as a sorted tuple of ints; rejects an empty grid and
    duplicated sizes, naming the offending values in the error message.
    """
    if not memory_sizes:
        raise ConfigurationError("memory_sizes must not be empty")
    sizes = sorted(int(m) for m in memory_sizes)
    duplicates = sorted({m for m in sizes if sizes.count(m) > 1})
    if duplicates:
        raise ConfigurationError(
            "memory_sizes must be distinct; duplicated values: "
            + ", ".join(str(m) for m in duplicates)
        )
    return tuple(sizes)


@dataclass(frozen=True)
class MemorySweepResult:
    """Measured intensity of one kernel on one problem across memory sizes.

    ``point_keys``: the keys the sweep engine resolved each point under.
    """

    kernel_name: str
    memory_sizes: tuple[int, ...]
    executions: tuple[KernelExecution, ...]
    point_keys: tuple[str, ...]

    @property
    def intensities(self) -> tuple[float, ...]:
        return tuple(e.intensity for e in self.executions)

    @property
    def io_words(self) -> tuple[float, ...]:
        return tuple(e.cost.io_words for e in self.executions)

    @property
    def compute_ops(self) -> tuple[float, ...]:
        return tuple(e.cost.compute_ops for e in self.executions)

    def tabulated_intensity(self) -> TabulatedIntensity:
        """The measured curve as an invertible intensity function."""
        return TabulatedIntensity(self.memory_sizes, self.intensities)

    def power_law_fit(self) -> PowerLawFit:
        """Best power-law fit of intensity against memory."""
        return fit_power_law(self.memory_sizes, self.intensities)

    def log_law_fit(self) -> LogLawFit:
        """Best ``a + b log2 M`` fit of intensity against memory."""
        return fit_log_law(self.memory_sizes, self.intensities)

    def best_model(self) -> str:
        """``"constant"``, ``"logarithmic"`` or ``"power-law"``."""
        return select_intensity_model(self.memory_sizes, self.intensities)

    def classification(self) -> ClassificationResult:
        """Classification into the paper's taxonomy, from the measurements."""
        return classify_samples(self.memory_sizes, self.intensities)

    def rows(self) -> list[dict[str, float]]:
        """One dict per memory size, ready for table rendering or CSV export."""
        return [
            {
                "memory_words": float(m),
                "compute_ops": e.cost.compute_ops,
                "io_words": e.cost.io_words,
                "intensity": e.intensity,
                "peak_resident_words": float(e.peak_memory_words),
            }
            for m, e in zip(self.memory_sizes, self.executions)
        ]


def measured_rebalance_curve(
    sweep: MemorySweepResult,
    memory_old: float,
    alphas: Sequence[float],
) -> list[RebalanceResult]:
    """Rebalancing curve computed from a *measured* intensity table.

    The balanced memory for each ``alpha`` is obtained by inverting the
    measured ``F(M)`` curve (log-log interpolation), not the analytic
    formula -- this is the experiment that recovers the paper's laws from
    simulation data alone.
    """
    intensity = sweep.tabulated_intensity()
    return [
        rebalance_memory(intensity, memory_old, alpha, allow_infeasible=True)
        for alpha in alphas
    ]
