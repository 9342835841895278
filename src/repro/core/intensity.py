"""Operational-intensity functions ``F(M) = C_comp / C_io``.

The central quantity in Kung's balance model is the ratio between the number
of arithmetic operations and the number of I/O word transfers a computation
performs when it is given a local memory of ``M`` words.  The paper calls
this ratio ``C_comp / C_io``; modern literature calls it *operational
intensity*.  A processing element is balanced when this ratio equals its
hardware ratio ``C / IO`` (Equation (1) of the paper).

This module provides a small family of intensity-function classes:

* :class:`PowerLawIntensity`  -- ``F(M) = c * M**e`` (matrix multiplication,
  triangularization, d-dimensional grid relaxation, ...),
* :class:`LogarithmicIntensity` -- ``F(M) = c * log_b(M)`` (FFT, sorting),
* :class:`ConstantIntensity`  -- ``F(M) = c`` (I/O-bounded computations such
  as matrix-vector multiplication),
* :class:`TabulatedIntensity` -- a measured intensity curve, interpolated in
  log-log space, used to rebalance from simulator measurements rather than
  from closed forms.

Every intensity function supports evaluation, inversion (find the smallest
memory achieving a target intensity), and reports whether it is unbounded in
``M`` (the prerequisite for rebalancing by memory growth alone).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import ConfigurationError, RebalanceInfeasibleError

__all__ = [
    "IntensityFunction",
    "PowerLawIntensity",
    "LogarithmicIntensity",
    "ConstantIntensity",
    "TabulatedIntensity",
]

_MIN_MEMORY_WORDS = 1.0


class IntensityFunction(ABC):
    """Abstract operational-intensity function ``F(M)``.

    Implementations must be non-decreasing in ``M`` over ``M >= 1``; the
    rebalancing machinery relies on monotonicity when inverting.
    """

    @abstractmethod
    def __call__(self, memory_words: float) -> float:
        """Return ``F(M)`` for a local memory of ``memory_words`` words."""

    @abstractmethod
    def invert(self, target_intensity: float) -> float:
        """Return the smallest memory ``M`` with ``F(M) >= target_intensity``.

        Raises
        ------
        RebalanceInfeasibleError
            If no finite memory reaches ``target_intensity``.
        """

    @property
    @abstractmethod
    def unbounded(self) -> bool:
        """``True`` when ``F(M)`` grows without bound as ``M`` grows."""

    def describe(self) -> str:
        """Return a short human-readable formula for the intensity."""
        return repr(self)

    def batch(self, memory_words: np.ndarray | Sequence[float]) -> np.ndarray:
        """Evaluate ``F(M)`` over a whole numpy grid in one array pass.

        Closed-form subclasses override :meth:`_batch` with a vectorized
        formula; the fallback loops over the grid, so ``batch`` is always
        numerically equivalent to calling the function point by point.
        """
        grid = np.asarray(memory_words, dtype=float)
        if grid.size and np.any(grid < _MIN_MEMORY_WORDS):
            offending = np.min(grid)
            raise ConfigurationError(
                f"local memory must be at least {_MIN_MEMORY_WORDS} word, "
                f"smallest grid value is {offending!r}"
            )
        return self._batch(grid)

    def _batch(self, grid: np.ndarray) -> np.ndarray:
        return np.asarray(
            [self(value) for value in grid.ravel()], dtype=float
        ).reshape(grid.shape)

    def rebalanced_memory(self, memory_old: float, alpha: float) -> float:
        """Memory needed after ``C/IO`` grows by ``alpha`` (Section 2).

        The PE was balanced at ``memory_old``; restoring balance requires
        ``F(M_new) = alpha * F(M_old)`` (Equation (1) of the paper).
        """
        _validate_memory(memory_old)
        _validate_alpha(alpha)
        if alpha == 1.0:
            return float(memory_old)
        target = alpha * self(memory_old)
        return self.invert(target)

    def growth_factor(self, memory_old: float, alpha: float) -> float:
        """Return ``M_new / M_old`` for a bandwidth-ratio increase ``alpha``."""
        return self.rebalanced_memory(memory_old, alpha) / float(memory_old)


def _validate_memory(memory_words: float) -> None:
    if not memory_words >= _MIN_MEMORY_WORDS:
        raise ConfigurationError(
            f"local memory must be at least {_MIN_MEMORY_WORDS} word, "
            f"got {memory_words!r}"
        )


def _validate_alpha(alpha: float) -> None:
    if not alpha >= 1.0:
        raise ConfigurationError(
            f"bandwidth-ratio increase alpha must be >= 1, got {alpha!r}"
        )


@dataclass(frozen=True)
class PowerLawIntensity(IntensityFunction):
    """``F(M) = coefficient * M ** exponent`` with ``exponent > 0``.

    Matrix multiplication and triangularization have ``exponent = 1/2``; a
    d-dimensional grid relaxation has ``exponent = 1/d``.  Rebalancing after
    a factor-``alpha`` increase in ``C/IO`` multiplies the memory by
    ``alpha ** (1 / exponent)`` -- the paper's ``alpha**2`` and ``alpha**d``
    laws.
    """

    exponent: float
    coefficient: float = 1.0

    def __post_init__(self) -> None:
        if self.exponent <= 0:
            raise ConfigurationError(
                f"power-law exponent must be positive, got {self.exponent!r}"
            )
        if self.coefficient <= 0:
            raise ConfigurationError(
                f"power-law coefficient must be positive, got {self.coefficient!r}"
            )

    def __call__(self, memory_words: float) -> float:
        _validate_memory(memory_words)
        return self.coefficient * float(memory_words) ** self.exponent

    def _batch(self, grid: np.ndarray) -> np.ndarray:
        return self.coefficient * grid**self.exponent

    def invert(self, target_intensity: float) -> float:
        if target_intensity <= 0:
            return _MIN_MEMORY_WORDS
        memory = (target_intensity / self.coefficient) ** (1.0 / self.exponent)
        return max(memory, _MIN_MEMORY_WORDS)

    @property
    def unbounded(self) -> bool:
        return True

    def describe(self) -> str:
        return f"F(M) = {self.coefficient:g} * M^{self.exponent:g}"


@dataclass(frozen=True)
class LogarithmicIntensity(IntensityFunction):
    """``F(M) = coefficient * log_base(M)``.

    The FFT and comparison sorting have logarithmic intensity: processing an
    ``M``-word block costs ``Theta(M log M)`` operations but only ``Theta(M)``
    word transfers.  Rebalancing raises the memory to the ``alpha`` power:
    ``M_new = M_old ** alpha`` (Equations (4) and (5) of the paper).
    """

    coefficient: float = 1.0
    base: float = 2.0

    def __post_init__(self) -> None:
        if self.coefficient <= 0:
            raise ConfigurationError(
                f"logarithmic coefficient must be positive, got {self.coefficient!r}"
            )
        if self.base <= 1:
            raise ConfigurationError(
                f"logarithm base must exceed 1, got {self.base!r}"
            )

    def __call__(self, memory_words: float) -> float:
        _validate_memory(memory_words)
        return self.coefficient * math.log(float(memory_words), self.base)

    def _batch(self, grid: np.ndarray) -> np.ndarray:
        return self.coefficient * np.log(grid) / math.log(self.base)

    def invert(self, target_intensity: float) -> float:
        if target_intensity <= 0:
            return _MIN_MEMORY_WORDS
        memory = self.base ** (target_intensity / self.coefficient)
        return max(memory, _MIN_MEMORY_WORDS)

    @property
    def unbounded(self) -> bool:
        return True

    def describe(self) -> str:
        return f"F(M) = {self.coefficient:g} * log_{self.base:g}(M)"


@dataclass(frozen=True)
class ConstantIntensity(IntensityFunction):
    """``F(M) = value`` independent of the local-memory size.

    This models I/O-bounded computations (Section 3.6): inputs and
    intermediate results are reused at most a constant number of times, so a
    larger local memory does not reduce the I/O requirement and rebalancing
    by memory growth alone is impossible.
    """

    value: float = 1.0

    def __post_init__(self) -> None:
        if self.value <= 0:
            raise ConfigurationError(
                f"constant intensity must be positive, got {self.value!r}"
            )

    def __call__(self, memory_words: float) -> float:
        _validate_memory(memory_words)
        return self.value

    def _batch(self, grid: np.ndarray) -> np.ndarray:
        return np.full(grid.shape, self.value, dtype=float)

    def invert(self, target_intensity: float) -> float:
        if target_intensity <= self.value:
            return _MIN_MEMORY_WORDS
        raise RebalanceInfeasibleError(
            "computation is I/O bounded: intensity is constant in M, so no "
            f"finite local memory reaches intensity {target_intensity:g} "
            f"(maximum attainable is {self.value:g})"
        )

    @property
    def unbounded(self) -> bool:
        return False

    def describe(self) -> str:
        return f"F(M) = {self.value:g}"


class TabulatedIntensity(IntensityFunction):
    """Intensity measured at discrete memory sizes, interpolated in log-log.

    This is the bridge between the analytical model and the simulator: a
    memory sweep (:class:`~repro.runtime.engine.SweepRunner`) measures
    ``F(M)`` at a set of memory sizes, and its
    :class:`~repro.analysis.sweep.MemorySweepResult` wraps the samples in a
    :class:`TabulatedIntensity` so the generic rebalancing machinery can be
    applied to measured data.

    Extrapolation beyond the largest sample continues the slope of the final
    segment; inverting to a target beyond that extrapolation range raises
    :class:`RebalanceInfeasibleError` only if the measured curve is flat
    (non-increasing) at its tail.
    """

    def __init__(
        self,
        memory_words: Sequence[float],
        intensities: Sequence[float],
        *,
        max_extrapolation_factor: float = 1e12,
    ) -> None:
        if len(memory_words) != len(intensities):
            raise ConfigurationError(
                "memory_words and intensities must have the same length"
            )
        if len(memory_words) < 2:
            raise ConfigurationError(
                "a tabulated intensity needs at least two samples"
            )
        pairs = sorted(zip(memory_words, intensities))
        mems = [float(m) for m, _ in pairs]
        vals = [float(v) for _, v in pairs]
        if any(m <= 0 for m in mems) or any(v <= 0 for v in vals):
            raise ConfigurationError(
                "tabulated memory sizes and intensities must be positive"
            )
        if any(b <= a for a, b in zip(mems, mems[1:])):
            raise ConfigurationError("memory sizes must be strictly increasing")
        self._log_m = [math.log(m) for m in mems]
        self._log_f = [math.log(v) for v in vals]
        self._mems = mems
        self._vals = vals
        self._max_extrapolation_factor = max_extrapolation_factor

    @property
    def samples(self) -> list[tuple[float, float]]:
        """Return the ``(memory, intensity)`` sample points."""
        return list(zip(self._mems, self._vals))

    def _tail_slope(self) -> float:
        return (self._log_f[-1] - self._log_f[-2]) / (
            self._log_m[-1] - self._log_m[-2]
        )

    def _head_slope(self) -> float:
        return (self._log_f[1] - self._log_f[0]) / (self._log_m[1] - self._log_m[0])

    def __call__(self, memory_words: float) -> float:
        _validate_memory(memory_words)
        x = math.log(float(memory_words))
        log_m, log_f = self._log_m, self._log_f
        if x <= log_m[0]:
            slope = self._head_slope()
            return math.exp(log_f[0] + slope * (x - log_m[0]))
        if x >= log_m[-1]:
            slope = self._tail_slope()
            return math.exp(log_f[-1] + slope * (x - log_m[-1]))
        for i in range(len(log_m) - 1):
            if log_m[i] <= x <= log_m[i + 1]:
                t = (x - log_m[i]) / (log_m[i + 1] - log_m[i])
                return math.exp(log_f[i] + t * (log_f[i + 1] - log_f[i]))
        raise AssertionError("unreachable: x within table bounds")  # pragma: no cover

    def _batch(self, grid: np.ndarray) -> np.ndarray:
        x = np.log(grid)
        log_m = np.asarray(self._log_m)
        log_f = np.asarray(self._log_f)
        interior = np.interp(x, log_m, log_f)
        head = log_f[0] + self._head_slope() * (x - log_m[0])
        tail = log_f[-1] + self._tail_slope() * (x - log_m[-1])
        return np.exp(
            np.where(x <= log_m[0], head, np.where(x >= log_m[-1], tail, interior))
        )

    @property
    def unbounded(self) -> bool:
        return self._tail_slope() > 1e-9

    def invert(self, target_intensity: float) -> float:
        if target_intensity <= 0:
            return _MIN_MEMORY_WORDS
        if target_intensity <= self._vals[0]:
            return max(self._mems[0], _MIN_MEMORY_WORDS)
        # Within the measured range: binary search on the monotone segments.
        # A step depends only on (lo, hi), so once one leaves them unchanged
        # every later step would too: stopping there returns the same bits.
        if target_intensity <= self._vals[-1]:
            lo, hi = self._mems[0], self._mems[-1]
            for _ in range(200):
                mid = math.sqrt(lo * hi)
                step = (mid, hi) if self(mid) < target_intensity else (lo, mid)
                if step == (lo, hi):
                    break
                lo, hi = step
            return hi
        # Beyond the measured range: extrapolate along the tail slope.
        slope = self._tail_slope()
        if slope <= 1e-9:
            raise RebalanceInfeasibleError(
                "measured intensity curve is flat at its tail; the computation "
                "appears I/O bounded and cannot be rebalanced by memory alone"
            )
        log_target = math.log(target_intensity)
        log_m = self._log_m[-1] + (log_target - self._log_f[-1]) / slope
        memory = math.exp(log_m)
        if memory > self._mems[-1] * self._max_extrapolation_factor:
            raise RebalanceInfeasibleError(
                f"target intensity {target_intensity:g} requires extrapolating "
                f"memory beyond {self._max_extrapolation_factor:g}x the largest "
                "measured size"
            )
        return memory

    def describe(self) -> str:
        return (
            f"tabulated F(M) over M in [{self._mems[0]:g}, {self._mems[-1]:g}] "
            f"({len(self._mems)} samples)"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TabulatedIntensity({self.describe()})"
