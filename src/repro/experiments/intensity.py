"""Experiments E2-E8: per-computation intensity and rebalancing curves.

For each computation of Section 3 this module measures the intensity curve
``F(M)`` of the corresponding instrumented kernel, fits its scaling law, and
derives the *measured* rebalancing curve ``M_new(alpha)`` by inverting the
measured curve -- the experimental counterpart of the paper's ``alpha**2``,
``alpha**d`` and ``M**alpha`` results.  For the I/O-bounded kernels it
verifies that no finite memory rebalances the PE (E8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.analysis.fitting import estimate_growth_exponent, fit_power_law
from repro.analysis.report import Table
from repro.analysis.sweep import MemorySweepResult, measured_rebalance_curve
from repro.core.registry import get as get_spec
from repro.core.rebalance import RebalanceResult
from repro.kernels.base import Kernel
from repro.runtime.engine import SweepRunner

__all__ = ["IntensityExperiment", "run_intensity_experiment", "DEFAULT_ALPHAS"]

DEFAULT_ALPHAS: tuple[float, ...] = (1.0, 1.5, 2.0, 3.0, 4.0)


@dataclass(frozen=True)
class IntensityExperiment:
    """Measured intensity curve and rebalancing behaviour of one kernel."""

    kernel_name: str
    registry_name: str
    sweep: MemorySweepResult
    rebalance_results: tuple[RebalanceResult, ...]
    alphas: tuple[float, ...]

    # -- derived quantities ------------------------------------------------

    @property
    def intensity_exponent(self) -> float:
        """Fitted exponent of ``F(M) ~ M**e`` (log-log least squares)."""
        return fit_power_law(self.sweep.memory_sizes, self.sweep.intensities).exponent

    @property
    def memory_growth_exponent(self) -> float:
        """Fitted exponent of the measured ``M_new = alpha**k * M_old`` curve.

        ``inf`` when rebalancing was infeasible for any ``alpha > 1``,
        ``nan`` when no growth points are available.
        """
        feasible = [r for r in self.rebalance_results if r.alpha > 1.0]
        if any(not r.feasible for r in feasible):
            return math.inf
        if len(feasible) < 2:
            return math.nan
        return estimate_growth_exponent(
            [r.alpha for r in feasible], [r.growth_factor for r in feasible]
        )

    @property
    def rebalancable(self) -> bool:
        return all(r.feasible for r in self.rebalance_results)

    @property
    def predicted_law_label(self) -> str:
        return get_spec(self.registry_name).law_label

    def table(self) -> Table:
        """Per-memory-size measurements plus the derived rebalancing curve."""
        table = Table(
            columns=("memory_words", "compute_ops", "io_words", "intensity"),
            title=f"{self.kernel_name}: measured intensity F(M)",
        )
        for m, e in zip(self.sweep.memory_sizes, self.sweep.executions):
            table.add_row(m, e.cost.compute_ops, e.cost.io_words, e.intensity)
        return table

    def rebalance_table(self) -> Table:
        table = Table(
            columns=("alpha", "memory_new", "growth_factor", "feasible"),
            title=f"{self.kernel_name}: measured rebalancing curve",
        )
        for result in self.rebalance_results:
            table.add_row(
                result.alpha,
                result.memory_new,
                result.growth_factor,
                "yes" if result.feasible else "no",
            )
        return table


def run_intensity_experiment(
    kernel: Kernel,
    memory_sizes: Sequence[int],
    scale: int,
    *,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    base_memory: float | None = None,
) -> IntensityExperiment:
    """Sweep ``kernel`` over ``memory_sizes`` and derive its rebalancing curve.

    The rebalancing base point ``M_old`` defaults to the smallest memory in
    the sweep, so that every inverted target stays within (or close to) the
    measured range; pass ``base_memory`` to start from a larger balanced
    point (useful for the FFT/sorting laws, whose ``M_old ** alpha`` form is
    asymptotic and distorted by additive constants at very small memories).

    The sweep runs serially and uncached on a
    :class:`~repro.runtime.engine.SweepRunner`.
    """
    sweep = SweepRunner().run_default(kernel, memory_sizes, scale)
    memory_old = float(base_memory) if base_memory is not None else float(sweep.memory_sizes[0])
    results = measured_rebalance_curve(sweep, memory_old, alphas)
    return IntensityExperiment(
        kernel_name=kernel.name,
        registry_name=kernel.registry_name,
        sweep=sweep,
        rebalance_results=tuple(results),
        alphas=tuple(float(a) for a in alphas),
    )
