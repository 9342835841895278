"""Tests for the kernel framework (ExecutionContext, Kernel, outputs_match)."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path
from typing import Any, Iterator, Mapping

import numpy as np
import pytest

import repro
from repro.core.model import ComputationCost
from repro.exceptions import ConfigurationError
from repro.kernels.base import ExecutionContext, Kernel, outputs_match
from repro.runtime.engine import kernel_modules
from repro.runtime.suites import KERNEL_FACTORIES, kernel_factories


class _ToyDoublingKernel(Kernel):
    """Reads N words, doubles them, writes N words (intensity == 1/2)."""

    registry_name = None
    minimum_memory_words = 2

    def default_problem(self, scale: int) -> dict[str, Any]:
        return {"values": np.arange(float(scale))}

    def reference(self, *, values: np.ndarray) -> np.ndarray:
        return np.asarray(values) * 2.0

    def analytic_cost(self, memory_words: int, *, values: np.ndarray) -> ComputationCost:
        n = len(values)
        return ComputationCost(compute_ops=float(n), io_words=2.0 * n)

    def _run(self, ctx: ExecutionContext, *, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        chunk = ctx.memory.capacity_words
        out = np.empty_like(values)
        for start in range(0, len(values), chunk):
            stop = min(start + chunk, len(values))
            with ctx.memory.buffer("chunk", stop - start):
                ctx.io.read(stop - start)
                out[start:stop] = values[start:stop] * 2.0
                ctx.ops.add(stop - start)
                ctx.io.write(stop - start)
                ctx.phases.record(f"chunk[{start}:{stop}]", stop - start, 2.0 * (stop - start))
        return out


class TestExecutionContext:
    def test_with_capacity_builds_budget(self):
        ctx = ExecutionContext.with_capacity(32)
        assert ctx.memory.capacity_words == 32

    def test_cost_reflects_counters(self):
        ctx = ExecutionContext.with_capacity(32)
        ctx.ops.add(10)
        ctx.io.read(3)
        ctx.io.write(2)
        assert ctx.cost() == ComputationCost(10, 5)


class TestKernelExecution:
    def test_execute_reports_cost_and_intensity(self):
        kernel = _ToyDoublingKernel()
        execution = kernel.execute(4, values=np.arange(10.0))
        assert execution.cost.compute_ops == 10
        assert execution.cost.io_words == 20
        assert execution.intensity == pytest.approx(0.5)

    def test_execute_reports_peak_memory(self):
        execution = _ToyDoublingKernel().execute(4, values=np.arange(10.0))
        assert execution.peak_memory_words == 4

    def test_verify_accepts_correct_output(self):
        kernel = _ToyDoublingKernel()
        assert kernel.verify(kernel.execute(4, values=np.arange(6.0)))

    def test_measured_intensity_helper(self):
        assert _ToyDoublingKernel().measured_intensity(4, values=np.arange(8.0)) == 0.5

    def test_memory_below_minimum_rejected(self):
        with pytest.raises(ConfigurationError):
            _ToyDoublingKernel().execute(1, values=np.arange(4.0))

    def test_describe_mentions_kernel_and_memory(self):
        execution = _ToyDoublingKernel().execute(4, values=np.arange(4.0))
        text = execution.describe()
        assert "_ToyDoublingKernel" in text and "M=4" in text

    def test_problem_for_memory_defaults_to_default_problem(self):
        kernel = _ToyDoublingKernel()
        a = kernel.problem_for_memory(8, scale=5)
        b = kernel.default_problem(5)
        np.testing.assert_array_equal(a["values"], b["values"])

    def test_kernel_name_defaults_to_class_name(self):
        assert _ToyDoublingKernel().name == "_ToyDoublingKernel"
        assert _ToyDoublingKernel(name="toy").name == "toy"


class TestOutputsMatch:
    def test_arrays(self):
        assert outputs_match(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert not outputs_match(np.array([1.0, 2.0]), np.array([1.0, 2.1]))

    def test_scalars(self):
        assert outputs_match(1.0, 1.0 + 1e-12)
        assert not outputs_match(1.0, 2.0)

    def test_sequences(self):
        assert outputs_match([1.0, np.array([2.0])], [1.0, np.array([2.0])])
        assert not outputs_match([1.0], [1.0, 2.0])

    def test_exact_objects(self):
        assert outputs_match("done", "done")
        assert not outputs_match("done", "failed")


class TestDefaultKernels:
    def test_every_paper_computation_has_a_kernel(self):
        names = {factory().registry_name for factory in kernel_factories().values()}
        assert {
            "matmul",
            "triangularization",
            "grid2d",
            "grid3d",
            "fft",
            "sorting",
            "matvec",
            "triangular_solve",
        } <= names

    def test_default_problems_execute_and_verify(self):
        """Every kernel's default problem runs and verifies at a modest memory."""
        for factory in kernel_factories().values():
            kernel = factory()
            scale = {"fft": 5, "sorting": 200, "grid4d": 4}.get(kernel.registry_name, 10)
            problem = kernel.default_problem(scale)
            memory = max(64, kernel.minimum_memory_words)
            if kernel.registry_name.startswith("grid"):
                memory = 4096
            execution = kernel.execute(memory, **problem)
            assert kernel.verify(execution), kernel.name


def _array_bytes(value: Any, path: str = "problem") -> Iterator[tuple[str, str, bytes]]:
    """``(path, dtype, bytes)`` of every numpy array reachable from a problem."""
    if isinstance(value, np.ndarray):
        yield path, value.dtype.str, value.tobytes()
    elif isinstance(value, Mapping):
        for key in sorted(value):
            yield from _array_bytes(value[key], f"{path}[{key!r}]")
    elif hasattr(value, "__dict__"):
        yield from _array_bytes(vars(value), f"{path}.{type(value).__name__}")


class TestKernelsLeaveTheirProblemUnchanged:
    """The sweep engine runs every point of a plan whose problem ignores the
    memory size on one shared problem instance, which is only sound while
    kernels copy or merely read their inputs."""

    @pytest.mark.parametrize("name", sorted(KERNEL_FACTORIES))
    def test_execute_leaves_every_problem_array_unchanged(self, name):
        kernel = KERNEL_FACTORIES[name]()
        # A d-dimensional grid needs 4**d words for its smallest haloed block.
        small = max(16, 4 ** getattr(kernel, "dimension", 1))
        large = 4096
        problem = kernel.problem_for_memory(small, 8)
        before = list(_array_bytes(problem))
        assert before, f"{name}'s problem holds no arrays"
        for memory in (small, large):
            kernel.execute(memory, **problem)
            assert list(_array_bytes(problem)) == before, (name, memory)


def _loaded_names(node: ast.AST) -> Counter[str]:
    """How often each name is read under ``node``, as a name or an attribute.

    Definitions, ``__all__`` strings and imports (re-exports) read nothing.
    """
    return Counter(
        child.id if isinstance(child, ast.Name) else child.attr
        for child in ast.walk(node)
        if isinstance(child, (ast.Name, ast.Attribute)) and isinstance(child.ctx, ast.Load)
    )


class TestKernelModulesHoldOnlyWhatRuns:
    """A sweep point's key hashes the whole source of its kernel's modules
    (``kernel_modules``), so code there that the program never runs would
    still invalidate every cached point of the kernel when edited.  Scalar
    specifications belong beside their equivalence tests instead."""

    def test_every_top_level_definition_is_read_from_src(self):
        package = Path(repro.__file__).parent
        trees = {path: ast.parse(path.read_text()) for path in sorted(package.rglob("*.py"))}
        reads: Counter[str] = Counter()
        for tree in trees.values():
            reads.update(_loaded_names(tree))
        modules = {
            module
            for factory in kernel_factories().values()
            for module in kernel_modules(type(factory()))
        }
        unread = []
        for module in sorted(modules):
            tree = trees[package.parent.joinpath(*module.split(".")).with_suffix(".py")]
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    # Reads inside the definition itself, such as recursion,
                    # do not count.
                    if reads[node.name] == _loaded_names(node)[node.name]:
                        unread.append(f"{module}.{node.name}")
        assert unread == []
