"""Instrumented out-of-core kernels for every computation analysed in the paper.

Each kernel executes the paper's decomposition scheme against a bounded
local memory, counting arithmetic operations and word transfers exactly, and
produces a numerically verifiable output.  The measured intensity curves
``F(M)`` are the experimental counterpart of the analytic results in
Section 3.
"""

from repro.kernels.base import ExecutionContext, Kernel, KernelExecution, outputs_match
from repro.kernels.counters import (
    IOCounter,
    MemoryBudget,
    OperationCounter,
    Phase,
    PhaseRecorder,
)
from repro.kernels.fft import BlockedFFT, decomposition_plan
from repro.kernels.grid import GridRelaxation, reference_relaxation
from repro.kernels.io_bound import StreamingMatrixVectorProduct, StreamingTriangularSolve
from repro.kernels.matmul import BlockedMatrixMultiply, tile_side_for_memory
from repro.kernels.sorting import ExternalMergeSort
from repro.kernels.sparse import (
    CSRMatrix,
    StreamingSparseMatrixVector,
    random_sparse_matrix,
)
from repro.kernels.triangularization import (
    BlockedLUTriangularization,
    make_diagonally_dominant,
    unblocked_lu,
)

__all__ = [
    "BlockedFFT",
    "BlockedLUTriangularization",
    "BlockedMatrixMultiply",
    "CSRMatrix",
    "ExecutionContext",
    "ExternalMergeSort",
    "GridRelaxation",
    "IOCounter",
    "Kernel",
    "KernelExecution",
    "MemoryBudget",
    "OperationCounter",
    "Phase",
    "PhaseRecorder",
    "StreamingMatrixVectorProduct",
    "StreamingSparseMatrixVector",
    "StreamingTriangularSolve",
    "decomposition_plan",
    "make_diagonally_dominant",
    "outputs_match",
    "random_sparse_matrix",
    "reference_relaxation",
    "tile_side_for_memory",
    "unblocked_lu",
]
