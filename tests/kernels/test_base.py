"""Tests for the kernel framework (ExecutionContext, Kernel, outputs_match)."""

from __future__ import annotations

import ast
import copy
import functools
from collections import Counter
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

import numpy as np
import pytest

import repro
from repro.core.model import ComputationCost
from repro.exceptions import ConfigurationError
from repro.kernels.base import ExecutionContext, Kernel, outputs_match
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


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: The infrastructure around the paper's science, by module prefix.
_INFRASTRUCTURE = (
    "repro.runtime", "repro.service", "repro.store", "repro.obs", "repro.faults", "repro.cli",
)

#: Definitions that nothing in ``src/`` reads by name and that stay, each
#: for its reason.  Besides these, registry-decorated functions (the store's
#: readers and transforms, found by name through their registry), the hooks
#: ``http.server.BaseHTTPRequestHandler`` calls by name, dunders and
#: abstract methods are exempt.
_READ_FROM_OUTSIDE_SRC = {
    # perfbench's layer probe wraps it to time the sweep-point key.
    "repro.runtime.cache.ResultCache.key_for",
    # perfbench's service load and CI's service-smoke call it.
    "repro.service.client.ServiceClient.submit_and_wait",
    # The inverse of ``install``, with which tests disarm fault injection.
    "repro.faults.injector.uninstall",
}
_REGISTRY_DECORATORS = {"register_reader", "register_transform"}
_HTTP_HANDLER_HOOKS = {"do_GET", "do_POST", "log_message", "parse_request"}


@functools.cache
def _src_trees() -> dict[str, ast.Module]:
    """Every module of ``src/repro``, parsed, by dotted module name."""
    src = Path(repro.__file__).parent.parent
    trees = {}
    for path in sorted(src.joinpath("repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        trees[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = ast.parse(
            path.read_text()
        )
    return trees


def _names(nodes: Iterable[ast.expr]) -> set[str]:
    """The names a decorator or base-class list refers to, calls included."""
    names = set()
    for node in nodes:
        node = node.func if isinstance(node, ast.Call) else node
        if isinstance(node, (ast.Name, ast.Attribute)):
            names.add(node.id if isinstance(node, ast.Name) else node.attr)
    return names


def _exempt(node: ast.AST, owner: ast.ClassDef | None) -> bool:
    """A definition that is called by name from outside the source."""
    if node.name.startswith("__") and node.name.endswith("__"):
        return True
    if not isinstance(node, _FUNCTIONS):
        return False
    decorators = _names(node.decorator_list)
    body = [
        stmt for stmt in node.body
        if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))  # docstrings
    ]
    abstract = "abstractmethod" in decorators or (
        len(body) == 1
        and isinstance(body[0], ast.Raise)
        and "NotImplementedError" in _names([body[0].exc])
    )
    http_hook = (
        owner is not None
        and "BaseHTTPRequestHandler" in _names(owner.bases)
        and node.name in _HTTP_HANDLER_HOOKS
    )
    return abstract or http_hook or bool(decorators & _REGISTRY_DECORATORS)


def _unread_definitions(
    trees: Mapping[str, ast.Module], modules: Iterable[str], *, methods: bool
) -> list[str]:
    """The top-level definitions of ``modules``, and with ``methods`` their
    classes' methods, that nothing in ``trees`` reads.

    Reads inside the definition itself, such as recursion, do not count.
    """
    reads: Counter[str] = Counter()
    for tree in trees.values():
        reads.update(_loaded_names(tree))
    unread = []
    for module in sorted(modules):
        for node in trees[module].body:
            if not isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
                continue
            found = [(node.name, node, None)]
            if methods and isinstance(node, ast.ClassDef):
                found += [
                    (f"{node.name}.{method.name}", method, node)
                    for method in node.body
                    if isinstance(method, _FUNCTIONS)
                ]
            for name, definition, owner in found:
                qualified = f"{module}.{name}"
                if qualified in _READ_FROM_OUTSIDE_SRC or _exempt(definition, owner):
                    continue
                if reads[definition.name] == _loaded_names(definition)[definition.name]:
                    unread.append(qualified)
    return unread


def _infrastructure_modules(trees: Mapping[str, ast.Module]) -> list[str]:
    return [
        module
        for module in trees
        if any(module == layer or module.startswith(f"{layer}.") for layer in _INFRASTRUCTURE)
    ]


class TestKernelModulesHoldOnlyWhatRuns:
    """``src/`` holds only what the program runs.

    Every key hashes the whole of ``src/repro``
    (:func:`~repro.runtime.tasks.code_version`), so editing code that the
    program never runs, anywhere, would still invalidate every cached entry;
    scalar specifications belong beside their equivalence tests instead.
    The guard covers every module of ``repro.kernels``, and in the
    infrastructure (runtime, service, store, obs, faults and the CLI) every
    method too: code that only tests call belongs in the tests, or goes.
    """

    def test_every_top_level_definition_is_read_from_src(self):
        trees = _src_trees()
        modules = [module for module in trees if module.startswith("repro.kernels.")]
        assert {"repro.kernels.base", "repro.kernels.counters"} <= set(modules)
        assert _unread_definitions(trees, modules, methods=False) == []

    def test_every_infrastructure_definition_and_method_is_read_from_src(self):
        trees = _src_trees()
        modules = _infrastructure_modules(trees)
        assert {"repro.cli", "repro.faults.injector", "repro.service.api"} <= set(modules)
        assert _unread_definitions(trees, modules, methods=True) == []

    def test_the_guard_fails_on_a_planted_unread_function_and_method(self):
        trees = dict(_src_trees())
        module = "repro.runtime.cache"
        tree = copy.deepcopy(trees[module])
        planted = ast.parse(
            "def _planted_helper(depth):\n"
            "    return _planted_helper(depth - 1) if depth else 0\n"
            "class ResultCache:\n"
            "    def _planted_method(self):\n"
            "        return self._planted_method\n"
        )
        helper, holder = planted.body
        tree.body.append(helper)
        (cache_class,) = (
            node for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == "ResultCache"
        )
        cache_class.body += holder.body
        before = _unread_definitions(trees, _infrastructure_modules(trees), methods=True)
        trees[module] = tree
        after = _unread_definitions(trees, _infrastructure_modules(trees), methods=True)
        assert set(after) - set(before) == {
            f"{module}.ResultCache._planted_method",
            f"{module}._planted_helper",
        }
