"""Tests for the external merge-sort kernel (Section 3.5)."""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.kernels.base import ExecutionContext
from repro.kernels.counters import OperationCounter
from repro.kernels.sorting import ExternalMergeSort

# The scalar specification of the kernel: a counting merge sort forms each
# run and a counting binary heap merges them.  The kernel runs neither; the
# equivalence suite below holds its vectorized run formation and inlined
# heap merge bitwise- and count-identical to them.


def merge_sort_counting(values: list[float], ops: OperationCounter) -> list[float]:
    """Stable merge sort that charges every key comparison to ``ops``."""
    n = len(values)
    if n <= 1:
        return list(values)
    mid = n // 2
    left = merge_sort_counting(values[:mid], ops)
    right = merge_sort_counting(values[mid:], ops)
    merged: list[float] = []
    i = j = 0
    while i < len(left) and j < len(right):
        ops.add(1)
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return merged


class CountingHeap:
    """Binary min-heap over ``(key, payload)`` pairs that counts comparisons.

    Used for the M-way merge of phase 2: the heap holds the head element of
    each run currently being merged, so its size never exceeds the number of
    runs (which is at most ``M``).
    """

    def __init__(self, ops: OperationCounter) -> None:
        self._items: list[tuple[float, Any]] = []
        self._ops = ops

    def __len__(self) -> int:
        return len(self._items)

    def push(self, key: float, payload: Any = None) -> None:
        self._items.append((key, payload))
        self._sift_up(len(self._items) - 1)

    def pop(self) -> tuple[float, Any]:
        if not self._items:
            raise ConfigurationError("cannot pop from an empty heap")
        top = self._items[0]
        last = self._items.pop()
        if self._items:
            self._items[0] = last
            self._sift_down(0)
        return top

    def _sift_up(self, index: int) -> None:
        while index > 0:
            parent = (index - 1) // 2
            self._ops.add(1)
            if self._items[index][0] < self._items[parent][0]:
                self._items[index], self._items[parent] = (
                    self._items[parent],
                    self._items[index],
                )
                index = parent
            else:
                break

    def _sift_down(self, index: int) -> None:
        size = len(self._items)
        while True:
            left = 2 * index + 1
            right = left + 1
            smallest = index
            if left < size:
                self._ops.add(1)
                if self._items[left][0] < self._items[smallest][0]:
                    smallest = left
            if right < size:
                self._ops.add(1)
                if self._items[right][0] < self._items[smallest][0]:
                    smallest = right
            if smallest == index:
                break
            self._items[index], self._items[smallest] = (
                self._items[smallest],
                self._items[index],
            )
            index = smallest


def _external_merge_sort_reference(
    ctx: ExecutionContext, keys: Sequence[float]
) -> np.ndarray:
    """The scalar specification of :meth:`ExternalMergeSort._run`: runs
    formed one at a time by :func:`merge_sort_counting`, merged through a
    :class:`CountingHeap`."""
    keys = [float(k) for k in np.asarray(keys, dtype=float)]
    n = len(keys)
    if n == 0:
        return np.asarray([], dtype=float)
    m = ctx.memory.capacity_words

    # ---- Phase 1: run formation -------------------------------------
    runs: list[list[float]] = []
    phase_ops_before = ctx.ops.total
    phase_io = 0.0
    for start in range(0, n, m):
        chunk = keys[start : start + m]
        with ctx.memory.buffer("run", len(chunk)):
            ctx.io.read(len(chunk))
            sorted_chunk = merge_sort_counting(chunk, ctx.ops)
            ctx.io.write(len(chunk))
            phase_io += 2.0 * len(chunk)
        runs.append(sorted_chunk)
    ctx.phases.record("run-formation", ctx.ops.total - phase_ops_before, phase_io)

    # ---- Phase 2: repeated M-way merge -------------------------------
    fan_in = max(2, m // 2)
    merge_round = 0
    while len(runs) > 1:
        merge_round += 1
        phase_ops_before = ctx.ops.total
        phase_io = 0.0
        next_runs: list[list[float]] = []
        for group_start in range(0, len(runs), fan_in):
            group = runs[group_start : group_start + fan_in]
            if len(group) == 1:
                next_runs.append(group[0])
                continue
            heap_words = len(group)
            buffer_words = len(group)
            with ctx.memory.buffer("merge-heap", heap_words), \
                    ctx.memory.buffer("run-heads", buffer_words):
                heap = CountingHeap(ctx.ops)
                positions = [0] * len(group)
                for run_index, run in enumerate(group):
                    ctx.io.read(1)
                    phase_io += 1
                    heap.push(run[0], run_index)
                    positions[run_index] = 1
                merged: list[float] = []
                while len(heap):
                    key, run_index = heap.pop()
                    merged.append(key)
                    ctx.io.write(1)
                    phase_io += 1
                    run = group[run_index]
                    if positions[run_index] < len(run):
                        ctx.io.read(1)
                        phase_io += 1
                        heap.push(run[positions[run_index]], run_index)
                        positions[run_index] += 1
                next_runs.append(merged)
        runs = next_runs
        ctx.phases.record(
            f"merge-pass[{merge_round}]", ctx.ops.total - phase_ops_before, phase_io
        )

    return np.asarray(runs[0], dtype=float)


class TestMergeSortCounting:
    def test_sorts_correctly(self):
        ops = OperationCounter()
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert merge_sort_counting(values, ops) == sorted(values)

    def test_comparison_count_is_n_log_n(self):
        ops = OperationCounter()
        rng = np.random.default_rng(0)
        values = list(rng.standard_normal(256))
        merge_sort_counting(values, ops)
        assert 0.5 * 256 * 8 <= ops.total <= 256 * 8

    def test_empty_and_singleton(self):
        ops = OperationCounter()
        assert merge_sort_counting([], ops) == []
        assert merge_sort_counting([1.0], ops) == [1.0]
        assert ops.total == 0

    def test_stability_preserves_equal_keys_order(self):
        ops = OperationCounter()
        assert merge_sort_counting([2.0, 2.0, 1.0], ops) == [1.0, 2.0, 2.0]


class TestCountingHeap:
    def test_pops_in_sorted_order(self):
        ops = OperationCounter()
        heap = CountingHeap(ops)
        for value in [5, 3, 8, 1, 9, 2]:
            heap.push(float(value), None)
        popped = [heap.pop()[0] for _ in range(6)]
        assert popped == sorted(popped)

    def test_payload_round_trips(self):
        heap = CountingHeap(OperationCounter())
        heap.push(2.0, "b")
        heap.push(1.0, "a")
        assert heap.pop() == (1.0, "a")

    def test_comparisons_are_counted(self):
        ops = OperationCounter()
        heap = CountingHeap(ops)
        for value in range(32):
            heap.push(float(value))
        assert ops.total > 0

    def test_pop_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            CountingHeap(OperationCounter()).pop()

    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False,
                                     min_value=-1e6, max_value=1e6), min_size=1, max_size=64))
    @settings(max_examples=40)
    def test_heap_sort_property(self, values):
        heap = CountingHeap(OperationCounter())
        for v in values:
            heap.push(v)
        popped = [heap.pop()[0] for _ in range(len(values))]
        assert popped == sorted(values)


class TestExternalMergeSortCorrectness:
    @pytest.mark.parametrize("memory", [4, 8, 32, 128])
    def test_sorts_random_keys(self, memory, rng):
        keys = rng.standard_normal(500)
        execution = ExternalMergeSort().execute(memory, keys=keys)
        np.testing.assert_allclose(execution.output, np.sort(keys))

    def test_sorts_already_sorted(self):
        keys = np.arange(100, dtype=float)
        execution = ExternalMergeSort().execute(8, keys=keys)
        np.testing.assert_allclose(execution.output, keys)

    def test_sorts_reverse_sorted(self):
        keys = np.arange(100, dtype=float)[::-1]
        execution = ExternalMergeSort().execute(8, keys=keys)
        np.testing.assert_allclose(execution.output, np.sort(keys))

    def test_duplicate_keys(self, rng):
        keys = rng.integers(0, 5, size=200).astype(float)
        execution = ExternalMergeSort().execute(16, keys=keys)
        np.testing.assert_allclose(execution.output, np.sort(keys))

    def test_empty_input(self):
        execution = ExternalMergeSort().execute(8, keys=[])
        assert len(execution.output) == 0

    def test_input_smaller_than_memory(self, rng):
        keys = rng.standard_normal(10)
        execution = ExternalMergeSort().execute(1024, keys=keys)
        np.testing.assert_allclose(execution.output, np.sort(keys))

    def test_verify_helper(self):
        kernel = ExternalMergeSort()
        problem = kernel.default_problem(300)
        assert kernel.verify(kernel.execute(16, **problem))

    def test_nan_keys_rejected(self):
        """NaN has no place in the order: with M = 4 the merges returned
        [-1, 0.5, 1, 3, nan, 2, nan, 2.5, 4], unsorted."""
        keys = [-1, 1, 2, 2.5, 4, math.nan, math.nan, 0.5, 3]
        with pytest.raises(ConfigurationError, match="NaN"):
            ExternalMergeSort().execute(4, keys=keys)

    def test_infinite_keys_sort(self):
        keys = [np.inf, -1.0, -np.inf, 3.0, np.inf, 0.0, -np.inf, 2.0, 1.0]
        execution = ExternalMergeSort().execute(4, keys=keys)
        assert execution.output.tobytes() == np.sort(keys).tobytes()

    @given(
        n=st.integers(min_value=1, max_value=400),
        memory=st.integers(min_value=4, max_value=64),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_sorting_property(self, n, memory, seed):
        """Property: output is the sorted permutation of the input."""
        rng = np.random.default_rng(seed)
        keys = rng.standard_normal(n)
        execution = ExternalMergeSort().execute(memory, keys=keys)
        np.testing.assert_allclose(execution.output, np.sort(keys))


class TestExternalMergeSortCosts:
    def test_peak_residency_within_budget(self, rng):
        keys = rng.standard_normal(2000)
        for memory in (8, 32, 128):
            execution = ExternalMergeSort().execute(memory, keys=keys)
            assert execution.peak_memory_words <= memory

    def test_io_decreases_with_memory_in_multipass_regime(self, rng):
        keys = rng.standard_normal(4096)
        kernel = ExternalMergeSort()
        io = [kernel.execute(m, keys=keys).cost.io_words for m in (8, 32, 128)]
        assert io[0] > io[1] > io[2]

    def test_comparisons_close_to_information_bound(self, rng):
        """Total comparisons stay within a small factor of N log2 N."""
        n = 2048
        keys = rng.standard_normal(n)
        execution = ExternalMergeSort().execute(32, keys=keys)
        lower = n * math.log2(n)
        assert lower * 0.5 <= execution.cost.compute_ops <= lower * 3.0

    def test_phase_structure(self, rng):
        keys = rng.standard_normal(1000)
        execution = ExternalMergeSort().execute(16, keys=keys)
        names = [p.name for p in execution.phases]
        assert names[0] == "run-formation"
        assert any(name.startswith("merge-pass") for name in names[1:])

    def test_intensity_grows_with_memory_in_multipass_regime(self, rng):
        keys = rng.standard_normal(8192)
        kernel = ExternalMergeSort()
        f_small = kernel.execute(8, keys=keys).intensity
        f_large = kernel.execute(64, keys=keys).intensity
        assert f_large > f_small


class TestFastPathMatchesScalarReference:
    """The batched run formation and inlined heap merge against the scalar
    merge_sort_counting / CountingHeap loops: bitwise outputs, identical
    cost, peak residency and phase list."""

    @staticmethod
    def _assert_equivalent(keys: np.ndarray, memory: int) -> None:
        fast = ExternalMergeSort().execute(memory, keys=keys)
        ctx = ExecutionContext.with_capacity(memory)
        reference = _external_merge_sort_reference(ctx, keys)
        assert fast.output.tobytes() == reference.tobytes()
        assert fast.cost == ctx.cost()
        assert fast.peak_memory_words == ctx.memory.peak_words
        assert fast.phases.phases == ctx.phases.phases

    @given(
        n=st.integers(min_value=0, max_value=600),
        memory=st.one_of(
            st.integers(min_value=4, max_value=40),
            st.integers(min_value=4, max_value=600),
            st.sampled_from([4, 8, 64, 512]),
        ),
        ties=st.sampled_from([0.0, 0.3, 0.9]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_reference(self, n, memory, ties, seed):
        """Any memory, powers of two or not, so the last run is usually
        short; a share of the keys drawn from a few values, +-0.0 and +-inf
        among them, so the merges see ties that differ in their bits."""
        rng = np.random.default_rng(seed)
        keys = rng.standard_normal(n)
        mask = rng.random(n) < ties
        keys[mask] = rng.choice([0.0, -0.0, 1.0, -2.5, np.inf, -np.inf], size=int(mask.sum()))
        self._assert_equivalent(keys, memory)

    @pytest.mark.parametrize("n, memory", [(1, 4), (7, 4), (8, 4), (9, 4), (600, 600), (601, 600)])
    def test_run_boundaries(self, n, memory, rng):
        """One key, runs that divide n exactly, and a one-key last run."""
        self._assert_equivalent(rng.standard_normal(n), memory)

    def test_signed_zero_ties_keep_their_order(self):
        keys = np.array([0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 1.0, -1.0, 0.0])
        self._assert_equivalent(keys, 4)
        self._assert_equivalent(keys, 6)
