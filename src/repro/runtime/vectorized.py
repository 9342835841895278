"""Vectorized analytic evaluation over ``(N, M, alpha)`` grids.

The paper's analytic artifacts -- intensity curves ``F(M)``, cost tables
``(C_comp, C_io)(N, M)`` and rebalancing laws ``M_new(M_old, alpha)`` -- are
all closed forms.  Evaluating them point by point through the scalar registry
API costs one Python call per grid point; this module batch-evaluates cost
tables and rebalancing laws over numpy grids in a single array pass.

Numerical equivalence with the scalar path is guaranteed by construction:
the registry's scalar cost models are thin wrappers around the same numpy
expressions (see ``repro.core.registry._scalarize``), and the intensity
classes implement ``batch`` with the same formulas as ``__call__``.

:func:`analytic_sweep_payload` is the analytic sweep of one kernel over a
memory grid, the rows behind ``repro sweep --analytic`` and the service's
analytic sweep jobs.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from repro.core.laws import (
    ExponentialMemoryLaw,
    InfeasibleMemoryLaw,
    MemoryLaw,
    PolynomialMemoryLaw,
)
from repro.core.model import BatchCost
from repro.core.registry import ComputationSpec, get
from repro.exceptions import ConfigurationError
from repro.obs import spans as obs_spans
from repro.runtime.suites import build_kernel

__all__ = [
    "cost_grid",
    "rebalance_grid",
    "analytic_sweep_payload",
]

ANALYTIC_SWEEP_SCHEMA = "repro-service-analytic-sweep/v1"


def _spec_of(computation: str | ComputationSpec) -> ComputationSpec:
    if isinstance(computation, ComputationSpec):
        return computation
    return get(computation)


def cost_grid(
    computation: str | ComputationSpec,
    problem_sizes: np.ndarray | Sequence[float],
    memory_words: np.ndarray | Sequence[float],
) -> BatchCost:
    """Cost model over the full ``N x M`` cross-product grid.

    ``problem_sizes`` become the rows and ``memory_words`` the columns of the
    returned arrays.
    """
    n = np.asarray(problem_sizes, dtype=float).reshape(-1, 1)
    m = np.asarray(memory_words, dtype=float).reshape(1, -1)
    # Sweeps call this once per computation; the aggregating phase timer
    # keeps the whole N x M evaluation down to one sample per call.
    with obs_spans.phase("cost_grid"):
        return _spec_of(computation).batch_costs(n, m)


def rebalance_grid(
    law: MemoryLaw,
    memory_old: np.ndarray | float,
    alphas: np.ndarray | Sequence[float],
) -> np.ndarray:
    """``M_new`` for broadcast grids of ``M_old`` and ``alpha``, vectorized.

    Closed forms of the paper's three law families:

    * polynomial: ``M_new = alpha**degree * M_old``,
    * exponential: ``M_new = M_old ** alpha``,
    * infeasible:  ``M_new = inf`` for any ``alpha > 1``.

    ``inf`` entries (rather than an exception) mark infeasible points so a
    whole fan of curves can be computed in one call.
    """
    m = np.asarray(memory_old, dtype=float)
    a = np.asarray(alphas, dtype=float)
    if m.size and np.min(m) < 1:
        raise ConfigurationError(
            f"memory_old must be >= 1 word, smallest grid value is {np.min(m)!r}"
        )
    if a.size and np.min(a) < 1:
        raise ConfigurationError(
            f"alpha must be >= 1, smallest grid value is {np.min(a)!r}"
        )
    m, a = np.broadcast_arrays(m, a)
    if isinstance(law, PolynomialMemoryLaw):
        return m * a**law.degree
    if isinstance(law, ExponentialMemoryLaw):
        # Matches ExponentialMemoryLaw.required_memory: a one-word memory has
        # zero logarithmic intensity, so the minimum meaningful base is 2.
        return np.maximum(m, 2.0) ** a
    if isinstance(law, InfeasibleMemoryLaw):
        return np.where(a == 1.0, m.astype(float), math.inf)
    # Unknown closed form: fall back to the scalar law, point by point.
    out = np.empty(m.shape, dtype=float)
    flat = out.ravel()
    for i, (mi, ai) in enumerate(zip(m.ravel(), a.ravel())):
        flat[i] = law.required_memory(float(mi), float(ai))
    return out


def analytic_sweep_payload(
    kernel: str, memory_sizes: Sequence[int], problem_size: int
) -> dict[str, Any]:
    """The cost model of one kernel over a memory grid, at one problem size."""
    # The registry may know a kernel under a different name than the scenario
    # factory (e.g. sparse_matvec -> spmv); resolve through the kernel class.
    spec = get(build_kernel(kernel).registry_name or kernel)
    sizes = [int(size) for size in memory_sizes]
    costs = cost_grid(spec, [int(problem_size)], sizes)
    intensities = spec.batch_intensity(np.asarray(sizes, dtype=float))
    return {
        "schema": ANALYTIC_SWEEP_SCHEMA,
        "kernel": kernel,
        "computation": spec.name,
        "problem_size": int(problem_size),
        "memory_sizes": sizes,
        "rows": [
            {
                "memory_words": float(size),
                "model_intensity": float(intensities[j]),
                "cost_intensity": float(costs.intensity[0, j]),
                "compute_ops": float(costs.compute_ops[0, j]),
                "io_words": float(costs.io_words[0, j]),
            }
            for j, size in enumerate(sizes)
        ],
    }
