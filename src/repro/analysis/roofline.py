"""Roofline view of the balance condition.

Kung's balance condition is the ancestor of the roofline model: a PE with
compute bandwidth ``C`` and I/O bandwidth ``IO`` can sustain at most

    ``attainable(F) = min(C, IO * F)``

operations per second on a computation with operational intensity ``F``.
The *ridge point* ``F = C / IO`` is exactly the balance condition of
Equation (1); the paper's question "how much memory do I need?" is the
question of pushing a computation's intensity ``F(M)`` past the ridge point
by enlarging ``M``.

This module provides the roofline quantities for a
:class:`~repro.core.model.ProcessingElement` and an intensity function, plus
a helper that renders the roofline (and where a set of kernels sits on it)
as an ASCII chart.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.analysis.plotting import ascii_chart
from repro.core.intensity import IntensityFunction
from repro.core.model import ProcessingElement
from repro.exceptions import ConfigurationError

__all__ = ["attainable_performance", "ridge_point", "roofline_chart", "memory_for_ridge"]


def ridge_point(pe: ProcessingElement) -> float:
    """The intensity at which the PE turns from I/O bound to compute bound."""
    return pe.compute_io_ratio


def attainable_performance(pe: ProcessingElement, intensity: float) -> float:
    """``min(C, IO * F)`` -- the classical roofline ceiling."""
    if intensity < 0:
        raise ConfigurationError(f"intensity must be non-negative, got {intensity!r}")
    return min(pe.compute_bandwidth, pe.io_bandwidth * intensity)


def memory_for_ridge(pe: ProcessingElement, intensity: IntensityFunction) -> float:
    """Memory at which the computation's ``F(M)`` reaches the PE's ridge point.

    This is the same quantity as :func:`repro.core.rebalance.memory_for_ratio`
    expressed in roofline language: below it the computation sits on the
    slanted (bandwidth) roof, above it on the flat (compute) roof.
    """
    return intensity.invert(ridge_point(pe))


def roofline_chart(
    pe: ProcessingElement,
    workloads: Mapping[str, float],
    *,
    intensity_range: Sequence[float] | None = None,
    width: int = 70,
    height: int = 18,
) -> str:
    """ASCII roofline for ``pe`` with each workload marked at its intensity.

    ``workloads`` maps a label to a measured operational intensity.  The roof
    itself is sampled over ``intensity_range`` (defaults to two decades
    around the ridge point).
    """
    if not workloads:
        raise ConfigurationError("at least one workload is required")
    ridge = ridge_point(pe)
    if intensity_range is None:
        lo, hi = ridge / 16.0, ridge * 16.0
        samples = [lo * (hi / lo) ** (i / 63.0) for i in range(64)]
    else:
        samples = [float(f) for f in intensity_range]
        if any(f <= 0 for f in samples):
            raise ConfigurationError("intensity samples must be positive")
    roof = [attainable_performance(pe, f) for f in samples]
    series: dict[str, tuple[Sequence[float], Sequence[float]]] = {
        "roofline": (samples, roof)
    }
    for label, intensity in workloads.items():
        series[label] = ([intensity], [attainable_performance(pe, intensity)])
    return ascii_chart(
        series,
        log_x=True,
        log_y=True,
        width=width,
        height=height,
        title=f"Roofline of {pe.name} (ridge at F = {ridge:g})",
        x_label="operational intensity F (ops/word)",
        y_label="attainable ops/s",
    )
