"""Memory rebalancing laws ``M_new = g(M_old, alpha)``.

Section 3 of the paper summarises, for each computation, how much the local
memory of a balanced PE must grow when its compute-to-I/O bandwidth ratio
``C/IO`` grows by a factor ``alpha``:

* matrix multiplication / triangularization / 2-D grid: ``M_new = alpha**2 * M_old``
* d-dimensional grid relaxation:                         ``M_new = alpha**d * M_old``
* FFT and sorting:                                       ``M_new = M_old ** alpha``
* I/O-bounded computations (matrix-vector, triangular solve): impossible.

A :class:`MemoryLaw` captures one of these closed forms.  Laws can be derived
automatically from an :class:`~repro.core.intensity.IntensityFunction` via
:func:`law_from_intensity`, and fitted from measurements by
:mod:`repro.analysis.fitting`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.core.intensity import (
    ConstantIntensity,
    IntensityFunction,
    LogarithmicIntensity,
    PowerLawIntensity,
)
from repro.exceptions import ConfigurationError, RebalanceInfeasibleError

__all__ = [
    "MemoryLaw",
    "PolynomialMemoryLaw",
    "ExponentialMemoryLaw",
    "InfeasibleMemoryLaw",
    "law_from_intensity",
]


class MemoryLaw(ABC):
    """How the balanced memory size responds to a bandwidth-ratio increase."""

    @abstractmethod
    def required_memory(self, memory_old: float, alpha: float) -> float:
        """Return ``M_new`` for an original memory ``M_old`` and increase ``alpha``."""

    @abstractmethod
    def describe(self) -> str:
        """Return the law as a short formula string, e.g. ``M_new = alpha^2 M_old``."""

    @property
    def feasible(self) -> bool:
        """Whether rebalancing by memory growth alone is possible at all."""
        return True

    def growth_factor(self, memory_old: float, alpha: float) -> float:
        """Return ``M_new / M_old``."""
        return self.required_memory(memory_old, alpha) / float(memory_old)


def _validate_inputs(memory_old: float, alpha: float) -> None:
    if memory_old < 1:
        raise ConfigurationError(f"memory_old must be >= 1 word, got {memory_old!r}")
    if alpha < 1:
        raise ConfigurationError(f"alpha must be >= 1, got {alpha!r}")


@dataclass(frozen=True)
class PolynomialMemoryLaw(MemoryLaw):
    """``M_new = alpha**degree * M_old``.

    ``degree = 2`` covers matrix multiplication, triangularization and the
    2-D grid; ``degree = d`` covers the d-dimensional grid relaxation.
    """

    degree: float

    def __post_init__(self) -> None:
        if self.degree <= 0:
            raise ConfigurationError(
                f"polynomial law degree must be positive, got {self.degree!r}"
            )

    def required_memory(self, memory_old: float, alpha: float) -> float:
        _validate_inputs(memory_old, alpha)
        return float(memory_old) * float(alpha) ** self.degree

    def describe(self) -> str:
        if self.degree == int(self.degree):
            return f"M_new = alpha^{int(self.degree)} * M_old"
        return f"M_new = alpha^{self.degree:g} * M_old"


@dataclass(frozen=True)
class ExponentialMemoryLaw(MemoryLaw):
    """``M_new = M_old ** alpha`` (FFT, sorting).

    The memory must grow *exponentially* in the bandwidth-ratio increase:
    even a modest ``alpha`` makes the required memory -- and the problem size
    needed to use it -- unrealistically large, which is the paper's argument
    that FFT-class computations cannot be sped up substantially without more
    I/O bandwidth.
    """

    def required_memory(self, memory_old: float, alpha: float) -> float:
        _validate_inputs(memory_old, alpha)
        if memory_old < 2:
            # A one-word memory has zero logarithmic intensity; treat the
            # minimum meaningful original size as two words.
            memory_old = 2.0
        return float(memory_old) ** float(alpha)

    def describe(self) -> str:
        return "M_new = M_old ^ alpha"


@dataclass(frozen=True)
class InfeasibleMemoryLaw(MemoryLaw):
    """Rebalancing by memory growth alone is impossible (I/O bounded)."""

    reason: str = (
        "inputs and intermediate results are reused only a constant number of "
        "times, so enlarging the local memory cannot reduce the I/O requirement"
    )

    @property
    def feasible(self) -> bool:
        return False

    def required_memory(self, memory_old: float, alpha: float) -> float:
        _validate_inputs(memory_old, alpha)
        if alpha == 1.0:
            return float(memory_old)
        raise RebalanceInfeasibleError(
            f"cannot rebalance an I/O-bounded computation by memory alone: {self.reason}"
        )

    def describe(self) -> str:
        return "impossible (I/O bounded)"


def law_from_intensity(intensity: IntensityFunction) -> MemoryLaw:
    """Derive the closed-form memory law implied by an intensity function.

    * ``F(M) = c M^e``       implies ``M_new = alpha**(1/e) * M_old``.
    * ``F(M) = c log_b M``   implies ``M_new = M_old ** alpha``.
    * ``F(M) = c``           implies rebalancing is infeasible.

    Tabulated (measured) intensities do not map onto a single closed form;
    use :class:`repro.analysis.fitting.LawFit` to identify the best match, or
    call :meth:`IntensityFunction.rebalanced_memory` directly.
    """
    if isinstance(intensity, PowerLawIntensity):
        return PolynomialMemoryLaw(degree=1.0 / intensity.exponent)
    if isinstance(intensity, LogarithmicIntensity):
        return ExponentialMemoryLaw()
    if isinstance(intensity, ConstantIntensity):
        return InfeasibleMemoryLaw()
    raise ConfigurationError(
        "no closed-form memory law for intensity of type "
        f"{type(intensity).__name__}; rebalance numerically via "
        "IntensityFunction.rebalanced_memory instead"
    )
