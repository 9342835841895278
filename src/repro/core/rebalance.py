"""Rebalancing: how much memory restores balance after ``C/IO`` grows.

This module answers the paper's central question (Section 2):

    Assume a PE is balanced for a given computation.  Now ``C/IO`` is
    increased by a factor of ``alpha``.  To rebalance the PE for the same
    computation (without increasing ``IO``), by how much must ``M`` be
    increased?

By Equation (1), rebalancing requires the computation's intensity
``F(M) = C_comp / C_io`` to grow by the same factor ``alpha``; the required
memory is therefore ``M_new = F^{-1}(alpha * F(M_old))``.

The solver works with any :class:`~repro.core.intensity.IntensityFunction`,
including tabulated intensities measured by the simulator, and reports the
result together with the closed-form law when one is known.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.intensity import IntensityFunction
from repro.core.model import ProcessingElement
from repro.exceptions import ConfigurationError, RebalanceInfeasibleError

__all__ = [
    "RebalanceResult",
    "rebalance_memory",
    "rebalance_pe",
    "memory_for_ratio",
    "balanced_memory_for_pe",
    "rebalance_curve",
]


@dataclass(frozen=True)
class RebalanceResult:
    """Outcome of a rebalancing computation.

    Attributes
    ----------
    memory_old:
        Original local-memory size (words).
    memory_new:
        Minimum memory restoring balance (words); ``math.inf`` when
        rebalancing is infeasible and ``allow_infeasible`` was requested.
    alpha:
        The factor by which ``C/IO`` grew.
    growth_factor:
        ``memory_new / memory_old``.
    feasible:
        Whether a finite memory restores balance.
    """

    memory_old: float
    memory_new: float
    alpha: float
    feasible: bool

    @property
    def growth_factor(self) -> float:
        if not self.feasible:
            return math.inf
        return self.memory_new / self.memory_old

    @property
    def implied_exponent(self) -> float:
        """``k`` such that ``memory_new = alpha**k * memory_old``.

        Useful when checking measured growth against the paper's
        ``alpha**2`` / ``alpha**d`` laws.  Undefined (NaN) for ``alpha == 1``.
        """
        if not self.feasible:
            return math.inf
        if self.alpha == 1.0:
            return math.nan
        return math.log(self.memory_new / self.memory_old) / math.log(self.alpha)

    def describe(self) -> str:
        if not self.feasible:
            return (
                f"alpha={self.alpha:g}: infeasible -- no finite memory restores balance"
            )
        return (
            f"alpha={self.alpha:g}: M {self.memory_old:g} -> {self.memory_new:g} words "
            f"(x{self.growth_factor:g}, implied exponent {self.implied_exponent:.3g})"
        )


def rebalance_memory(
    intensity: IntensityFunction,
    memory_old: float,
    alpha: float,
    *,
    allow_infeasible: bool = False,
) -> RebalanceResult:
    """Compute the memory required to rebalance after a factor-``alpha`` increase.

    Parameters
    ----------
    intensity:
        The computation's intensity function ``F(M)``.
    memory_old:
        Local-memory size at which the PE was balanced.
    alpha:
        Factor by which ``C/IO`` increased (``>= 1``).
    allow_infeasible:
        When ``True``, an I/O-bounded computation yields a result with
        ``feasible=False`` and ``memory_new = inf`` instead of raising
        :class:`RebalanceInfeasibleError`.
    """
    if memory_old < 1:
        raise ConfigurationError(f"memory_old must be >= 1 word, got {memory_old!r}")
    if alpha < 1:
        raise ConfigurationError(f"alpha must be >= 1, got {alpha!r}")
    try:
        memory_new = intensity.rebalanced_memory(memory_old, alpha)
    except RebalanceInfeasibleError:
        if not allow_infeasible:
            raise
        return RebalanceResult(
            memory_old=float(memory_old),
            memory_new=math.inf,
            alpha=float(alpha),
            feasible=False,
        )
    return RebalanceResult(
        memory_old=float(memory_old),
        memory_new=float(memory_new),
        alpha=float(alpha),
        feasible=True,
    )


def rebalance_pe(
    pe: ProcessingElement,
    intensity: IntensityFunction,
    alpha: float,
    *,
    allow_infeasible: bool = False,
) -> ProcessingElement:
    """Return a new PE with ``C`` scaled by ``alpha`` and ``M`` enlarged to match.

    The input PE is assumed to be balanced for the computation described by
    ``intensity`` at its current memory size.
    """
    result = rebalance_memory(
        intensity, pe.memory_words, alpha, allow_infeasible=allow_infeasible
    )
    if not result.feasible:
        raise RebalanceInfeasibleError(
            f"{pe.name} cannot be rebalanced for this computation by memory alone"
        )
    return pe.with_compute_scaled(alpha).with_memory(result.memory_new)


def memory_for_ratio(intensity: IntensityFunction, compute_io_ratio: float) -> float:
    """Return the smallest memory whose intensity matches ``C/IO``.

    This is the *design* direction of the balance condition: given hardware
    with a fixed ``C/IO``, how much local memory makes the PE balanced for
    the computation?  (Used by the Warp case study, Section 5.)
    """
    if compute_io_ratio <= 0:
        raise ConfigurationError(
            f"compute_io_ratio must be positive, got {compute_io_ratio!r}"
        )
    return intensity.invert(compute_io_ratio)


def balanced_memory_for_pe(
    pe: ProcessingElement, intensity: IntensityFunction
) -> float:
    """Memory that balances ``pe`` for the computation described by ``intensity``."""
    return memory_for_ratio(intensity, pe.compute_io_ratio)


def rebalance_curve(
    intensity: IntensityFunction,
    memory_old: float,
    alphas: list[float] | tuple[float, ...],
    *,
    allow_infeasible: bool = True,
) -> list[RebalanceResult]:
    """Rebalance for each ``alpha`` in ``alphas`` and return the result series.

    The series is the raw material of the paper's summary table and of the
    scaling-law fits in :mod:`repro.analysis.fitting`.
    """
    return [
        rebalance_memory(
            intensity, memory_old, alpha, allow_infeasible=allow_infeasible
        )
        for alpha in alphas
    ]
