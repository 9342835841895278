"""Registry of the computations analysed in the paper.

Each entry bundles, for one computation (Section 3):

* its analytic intensity function ``F(M) = C_comp / C_io``,
* its closed-form rebalancing law (``alpha**2``, ``alpha**d``, ``M**alpha`` or
  infeasible),
* closed-form total-cost models ``C_comp(N, M)`` and ``C_io(N, M)`` matching
  the decomposition schemes the paper uses,
* its classification in the paper's taxonomy, and
* metadata (paper section, description).

The registry is the single source of truth for experiment E1 (the Section 3
summary table) and is used by the experiments to pair measured kernels with
their theoretical predictions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.classification import ComputationClass
from repro.core.intensity import (
    ConstantIntensity,
    IntensityFunction,
    LogarithmicIntensity,
    PowerLawIntensity,
)
from repro.core.laws import (
    ExponentialMemoryLaw,
    InfeasibleMemoryLaw,
    MemoryLaw,
    PolynomialMemoryLaw,
)
from repro.core.model import BatchCost, ComputationCost
from repro.exceptions import ConfigurationError, UnknownComputationError

__all__ = [
    "ComputationSpec",
    "register",
    "get",
    "names",
    "all_specs",
    "paper_summary_rows",
]

CostModel = Callable[[int, int], ComputationCost]

#: Vectorized cost model: maps broadcast ``(N, M)`` float arrays to
#: ``(compute_ops, io_words)`` arrays of the same shape.
ArrayCostModel = Callable[[np.ndarray, np.ndarray], "tuple[np.ndarray, np.ndarray]"]


@dataclass(frozen=True)
class ComputationSpec:
    """Analytic description of one computation from the paper."""

    name: str
    title: str
    intensity: IntensityFunction
    law: MemoryLaw
    computation_class: ComputationClass
    cost_model: CostModel
    paper_section: str
    description: str
    law_label: str
    parameters: dict = field(default_factory=dict)
    array_cost_model: ArrayCostModel | None = None

    def costs(self, problem_size: int, memory_words: int) -> ComputationCost:
        """Closed-form total ``C_comp`` and ``C_io`` for the paper's decomposition."""
        if problem_size < 1:
            raise ConfigurationError(
                f"problem_size must be >= 1, got {problem_size!r}"
            )
        if memory_words < 1:
            raise ConfigurationError(
                f"memory_words must be >= 1, got {memory_words!r}"
            )
        return self.cost_model(problem_size, memory_words)

    def batch_costs(
        self,
        problem_sizes: np.ndarray | int | Sequence,
        memory_words: np.ndarray | int | Sequence,
    ) -> BatchCost:
        """Evaluate the cost model over broadcast ``(N, M)`` grids in one pass.

        The two arguments are broadcast against each other, so a column of
        problem sizes against a row of memory sizes yields the full
        cross-product grid.  Equivalent to calling :meth:`costs` at every
        grid point, but in a single numpy array pass.
        """
        n = np.asarray(problem_sizes, dtype=float)
        m = np.asarray(memory_words, dtype=float)
        if n.size and np.min(n) < 1:
            raise ConfigurationError(
                f"problem sizes must be >= 1, smallest grid value is {np.min(n)!r}"
            )
        if m.size and np.min(m) < 1:
            raise ConfigurationError(
                f"memory sizes must be >= 1, smallest grid value is {np.min(m)!r}"
            )
        n, m = np.broadcast_arrays(n, m)
        if self.array_cost_model is not None:
            ops, io = self.array_cost_model(n, m)
            return BatchCost(np.asarray(ops, dtype=float), np.asarray(io, dtype=float))
        flat = [
            self.cost_model(float(a), float(b))
            for a, b in zip(n.ravel(), m.ravel())
        ]
        return BatchCost(
            np.asarray([c.compute_ops for c in flat]).reshape(n.shape),
            np.asarray([c.io_words for c in flat]).reshape(n.shape),
        )

    def batch_intensity(
        self, memory_words: np.ndarray | int | Sequence
    ) -> np.ndarray:
        """Analytic intensity ``F(M)`` over a numpy grid of memory sizes."""
        return self.intensity.batch(memory_words)

    def intensity_at(self, memory_words: int) -> float:
        """Analytic intensity at a given memory size."""
        return self.intensity(memory_words)


_REGISTRY: dict[str, ComputationSpec] = {}


def register(spec: ComputationSpec, *, overwrite: bool = False) -> ComputationSpec:
    """Add a computation to the registry; returns the spec for chaining."""
    if spec.name in _REGISTRY and not overwrite:
        raise ConfigurationError(f"computation {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get(name: str) -> ComputationSpec:
    """Look up a registered computation by name."""
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownComputationError(
            f"unknown computation {name!r}; known computations: {known}"
        ) from exc


def names() -> list[str]:
    """Names of all registered computations, in registration order."""
    return list(_REGISTRY)


def all_specs() -> list[ComputationSpec]:
    """All registered computation specs, in registration order."""
    return list(_REGISTRY.values())


# ---------------------------------------------------------------------------
# Cost models for the decomposition schemes used in Section 3.
#
# Each model is written once, as a numpy expression over ``(N, M)`` arrays;
# the scalar ``costs()`` path wraps the same expression via ``_scalarize`` so
# the point-wise and batched evaluations are numerically identical.
# ---------------------------------------------------------------------------


def _scalarize(array_model: ArrayCostModel) -> CostModel:
    """Adapt a vectorized ``(N, M) -> (ops, io)`` model to the scalar API.

    The scalar inputs are wrapped in one-element arrays rather than numpy
    scalars so both paths run the very same ufunc loops -- numpy's scalar
    ``**`` can differ from the array version in the last ulp, and the
    scalar/batch equivalence is meant to be exact.
    """

    def cost_model(n: int, m: int) -> ComputationCost:
        ops, io = array_model(
            np.asarray([float(n)]), np.asarray([float(m)])
        )
        return ComputationCost(float(ops[0]), float(io[0]))

    return cost_model


def _matmul_ops_io(n: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Blocked N x N matrix multiplication with sqrt(M) x sqrt(M) output tiles.

    (N / sqrt(M))**2 steps; each step does Theta(N*M) operations and
    Theta(N*sqrt(M)) I/O (read a sqrt(M) x N panel of A and an N x sqrt(M)
    panel of B, write the M-word output tile).
    """
    s = np.maximum(1.0, np.sqrt(m))
    steps = (n / s) ** 2
    ops_per_step = 2.0 * n * s * s          # multiply-add pairs on an s x s tile
    io_per_step = 2.0 * n * s + s * s       # two panels in, one tile out
    return ops_per_step * steps, io_per_step * steps


def _triangularization_ops_io(
    n: np.ndarray, m: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Panel-wise triangularization: N / sqrt(M) steps over the trailing matrix.

    Each step annihilates sqrt(M) columns with Theta(N**2 * sqrt(M))
    operations and Theta(N**2) I/O (stream the trailing matrix through the
    PE once).
    """
    s = np.maximum(1.0, np.sqrt(m))
    steps = np.maximum(1.0, n / s)
    ops_per_step = 2.0 * n * n * s
    io_per_step = 2.0 * n * n
    return ops_per_step * steps, io_per_step * steps


def _grid_ops_io_factory(dimension: int) -> ArrayCostModel:
    def _grid_ops_io(n: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """d-dimensional relaxation, one sweep over an N**d grid.

        The grid is partitioned into blocks of M points (side M**(1/d));
        updating a block costs Theta(M) operations and Theta(M**((d-1)/d))
        I/O words for its halo.
        """
        points = n**dimension
        blocks = np.maximum(1.0, points / m)
        side = m ** (1.0 / dimension)
        halo = 2.0 * dimension * side ** (dimension - 1)
        ops_per_block = 2.0 * dimension * m
        return ops_per_block * blocks, halo * blocks

    return _grid_ops_io


def _fft_ops_io(n: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Blocked radix-2 FFT of N points with M-point subcomputation blocks.

    log2(N)/log2(M) passes; each pass runs N/M independent M-point FFTs,
    each costing Theta(M log2 M) operations and Theta(M) I/O (Figure 2).
    """
    m = np.maximum(2.0, m)
    passes = np.maximum(1.0, np.log2(np.maximum(2.0, n)) / np.log2(m))
    blocks_per_pass = np.maximum(1.0, n / m)
    ops_per_block = 5.0 * m * np.log2(m)
    io_per_block = 2.0 * m
    return (
        ops_per_block * blocks_per_pass * passes,
        io_per_block * blocks_per_pass * passes,
    )


def _sorting_ops_io(n: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-phase external sort: run formation then M-way heap merge.

    Phase 1 sorts N/M runs of M keys (Theta(M log2 M) comparisons, Theta(M)
    I/O each).  Phase 2 merges with an M-element heap: Theta(log2 M)
    comparisons per I/O word.
    """
    m = np.maximum(2.0, m)
    runs = np.maximum(1.0, n / m)
    phase1_ops = runs * m * np.log2(m)
    phase1_io = runs * 2.0 * m
    merge_passes = np.where(
        runs > 1.0,
        np.maximum(1.0, np.log(np.maximum(2.0, runs)) / np.log(m)),
        0.0,
    )
    phase2_io = 2.0 * n * merge_passes
    phase2_ops = n * np.log2(m) * merge_passes
    return phase1_ops + phase2_ops, phase1_io + phase2_io


def _matvec_ops_io(n: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Matrix-vector product: every matrix element is used exactly once."""
    del m  # the local memory does not reduce the I/O requirement
    ops = 2.0 * n * n
    io = n * n + 2.0 * n
    return ops, io


def _triangular_solve_ops_io(
    n: np.ndarray, m: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``Lx = b`` with a dense triangular matrix streamed once."""
    del m
    ops = n * n
    io = n * (n + 1.0) / 2.0 + 2.0 * n
    return ops, io


# ---------------------------------------------------------------------------
# The registry entries (the Section 3 summary).
# ---------------------------------------------------------------------------


def _register_paper_computations() -> None:
    register(
        ComputationSpec(
            name="matmul",
            title="Matrix multiplication",
            intensity=PowerLawIntensity(exponent=0.5, coefficient=1.0),
            law=PolynomialMemoryLaw(degree=2),
            computation_class=ComputationClass.POLYNOMIAL,
            cost_model=_scalarize(_matmul_ops_io),
            array_cost_model=_matmul_ops_io,
            paper_section="3.1",
            description=(
                "N x N matrix multiplication with sqrt(M) x sqrt(M) output tiles; "
                "intensity Theta(sqrt(M)), optimal by the Hong-Kung bound."
            ),
            law_label="M_new = alpha^2 * M_old",
        )
    )
    register(
        ComputationSpec(
            name="triangularization",
            title="Matrix triangularization (Gaussian elimination / Givens QR)",
            intensity=PowerLawIntensity(exponent=0.5, coefficient=1.0),
            law=PolynomialMemoryLaw(degree=2),
            computation_class=ComputationClass.POLYNOMIAL,
            cost_model=_scalarize(_triangularization_ops_io),
            array_cost_model=_triangularization_ops_io,
            paper_section="3.2",
            description=(
                "Panel-wise elimination of sqrt(M) columns per step; intensity "
                "Theta(sqrt(M)) as for matrix multiplication."
            ),
            law_label="M_new = alpha^2 * M_old",
        )
    )
    register(
        ComputationSpec(
            name="grid2d",
            title="Two-dimensional grid relaxation",
            intensity=PowerLawIntensity(exponent=0.5, coefficient=1.0),
            law=PolynomialMemoryLaw(degree=2),
            computation_class=ComputationClass.POLYNOMIAL,
            cost_model=_scalarize(_grid_ops_io_factory(2)),
            array_cost_model=_grid_ops_io_factory(2),
            paper_section="3.3",
            description=(
                "Iterative relaxation on an N x N grid with sqrt(M) x sqrt(M) "
                "blocks; per-iteration intensity Theta(sqrt(M))."
            ),
            law_label="M_new = alpha^2 * M_old",
            parameters={"dimension": 2},
        )
    )
    for d in (1, 3, 4):
        register(
            ComputationSpec(
                name=f"grid{d}d",
                title=f"{d}-dimensional grid relaxation",
                intensity=PowerLawIntensity(exponent=1.0 / d, coefficient=1.0),
                law=PolynomialMemoryLaw(degree=d),
                computation_class=ComputationClass.POLYNOMIAL,
                cost_model=_scalarize(_grid_ops_io_factory(d)),
                array_cost_model=_grid_ops_io_factory(d),
                paper_section="3.3",
                description=(
                    f"Relaxation on a {d}-dimensional grid; blocks of M points "
                    f"have surface-to-volume intensity Theta(M^(1/{d}))."
                ),
                law_label=f"M_new = alpha^{d} * M_old",
                parameters={"dimension": d},
            )
        )
    register(
        ComputationSpec(
            name="fft",
            title="Fast Fourier transform",
            intensity=LogarithmicIntensity(coefficient=1.0, base=2.0),
            law=ExponentialMemoryLaw(),
            computation_class=ComputationClass.EXPONENTIAL,
            cost_model=_scalarize(_fft_ops_io),
            array_cost_model=_fft_ops_io,
            paper_section="3.4",
            description=(
                "Radix-2 FFT decomposed into M-point blocks (Figure 2); each "
                "block costs Theta(M log2 M) operations for Theta(M) I/O."
            ),
            law_label="M_new = M_old ^ alpha",
        )
    )
    register(
        ComputationSpec(
            name="sorting",
            title="Sorting (comparison-based, external merge)",
            intensity=LogarithmicIntensity(coefficient=1.0, base=2.0),
            law=ExponentialMemoryLaw(),
            computation_class=ComputationClass.EXPONENTIAL,
            cost_model=_scalarize(_sorting_ops_io),
            array_cost_model=_sorting_ops_io,
            paper_section="3.5",
            description=(
                "Two-phase external sort: M-key run formation followed by "
                "M-way heap merge; Theta(log2 M) comparisons per I/O word."
            ),
            law_label="M_new = M_old ^ alpha",
        )
    )
    register(
        ComputationSpec(
            name="matvec",
            title="Matrix-vector multiplication",
            intensity=ConstantIntensity(value=2.0),
            law=InfeasibleMemoryLaw(),
            computation_class=ComputationClass.IO_BOUNDED,
            cost_model=_scalarize(_matvec_ops_io),
            array_cost_model=_matvec_ops_io,
            paper_section="3.6",
            description=(
                "Every matrix element is used exactly once; local memory cannot "
                "reduce the I/O requirement."
            ),
            law_label="impossible (I/O bounded)",
        )
    )
    register(
        ComputationSpec(
            name="triangular_solve",
            title="Solution of triangular linear systems",
            intensity=ConstantIntensity(value=2.0),
            law=InfeasibleMemoryLaw(),
            computation_class=ComputationClass.IO_BOUNDED,
            cost_model=_scalarize(_triangular_solve_ops_io),
            array_cost_model=_triangular_solve_ops_io,
            paper_section="3.6",
            description=(
                "Forward/back substitution streams the triangular matrix once; "
                "I/O bounded like matrix-vector multiplication."
            ),
            law_label="impossible (I/O bounded)",
        )
    )


_register_paper_computations()


def paper_summary_rows() -> list[dict[str, str]]:
    """Rows of the Section 3 summary table, one per registered computation.

    Each row reports the computation, its intensity formula, its rebalancing
    law and its class -- exactly the information the paper lists at the start
    of Section 3.
    """
    rows: list[dict[str, str]] = []
    for spec in all_specs():
        rows.append(
            {
                "computation": spec.title,
                "section": spec.paper_section,
                "intensity": spec.intensity.describe(),
                "rebalancing law": spec.law_label,
                "class": spec.computation_class.value,
            }
        )
    return rows
