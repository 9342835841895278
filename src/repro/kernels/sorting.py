"""Two-phase external sorting (Section 3.5).

Phase 1 reads the ``N`` keys in runs of ``M``, sorts each run entirely inside
the local memory (``Theta(M log2 M)`` comparisons for ``Theta(M)`` I/O) and
writes the sorted runs back.  Phase 2 merges the runs with an ``M``-way merge
driven by a binary heap of at most ``M`` elements: each word of I/O to or
from the heap is accompanied by ``Theta(log2 M)`` comparisons.

Both phases therefore have intensity ``Theta(log2 M)`` -- exactly the FFT's
-- and the rebalancing law is the exponential ``M_new = M_old ** alpha``.
Song (1981) shows this is the best possible for comparison sorting.

The kernel counts *comparisons* as its operations (the paper's cost measure
for sorting) and words moved as I/O, and its output is verified against
``numpy.sort``.  Run formation is vectorized -- its comparison count has a
closed form over the merge sort's split tree -- and the merge keeps the
heap, inlined.  Their specification is the scalar path -- each run sorted
by a counting merge sort, the runs merged through a counting binary heap --
which lives in ``tests/kernels/test_sorting.py``, whose equivalence suite
holds the kernel bitwise- and count-identical to it.  NaN keys are
rejected: they have no place in the total order.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from repro.core.model import ComputationCost
from repro.exceptions import ConfigurationError
from repro.kernels.base import ExecutionContext, Kernel

__all__ = ["ExternalMergeSort"]


class ExternalMergeSort(Kernel):
    """Sort ``N`` keys with an ``M``-word local memory: run formation + M-way merge."""

    registry_name = "sorting"
    minimum_memory_words = 4

    def default_problem(self, scale: int) -> dict[str, Any]:
        rng = np.random.default_rng(scale)
        n = max(8, int(scale))
        return {"keys": rng.standard_normal(n)}

    def reference(self, *, keys: Sequence[float]) -> np.ndarray:
        return np.sort(np.asarray(keys, dtype=float))

    def analytic_cost(self, memory_words: int, *, keys: Sequence[float]) -> ComputationCost:
        n = len(keys)
        m = max(2, memory_words)
        runs = max(1, math.ceil(n / m))
        phase1_ops = n * math.log2(min(m, n))
        phase1_io = 2.0 * n
        fan_in = max(2, m - 1)
        merge_passes = max(0.0, math.ceil(math.log(runs, fan_in))) if runs > 1 else 0.0
        phase2_ops = n * math.log2(fan_in) * merge_passes
        phase2_io = 2.0 * n * merge_passes
        return ComputationCost(phase1_ops + phase2_ops, phase1_io + phase2_io)

    def _run(self, ctx: ExecutionContext, *, keys: Sequence[float]) -> np.ndarray:
        values = np.asarray(keys, dtype=float)
        if np.isnan(values).any():
            raise ConfigurationError("sort keys must not be NaN: NaN is unordered")
        n = len(values)
        if n == 0:
            return np.asarray([], dtype=float)
        m = ctx.memory.capacity_words

        # ---- Phase 1: run formation -------------------------------------
        # The full runs form as one batch and the short last run as another.
        # Each run is charged what forming it alone costs: one run's
        # residency, 2 words per key, and the comparisons of the counting
        # merge sort in tests/kernels/test_sorting.py (in closed form over
        # the same split tree).  A stable sort returns the same run, equal
        # keys such as -0.0 and 0.0 in the same order.
        runs: list[list[float]] = []
        phase_ops_before = ctx.ops.total
        full = n - n % m
        for batch in (values[:full].reshape(-1, m), values[full:].reshape(1, -1)):
            if not batch.size:
                continue
            with ctx.memory.buffer("run", batch.shape[1]):
                ctx.io.read(batch.size)
                ctx.ops.add(_merge_sort_comparisons(batch))
                ctx.io.write(batch.size)
            runs.extend(np.sort(batch, axis=1, kind="stable").tolist())
        ctx.phases.record("run-formation", ctx.ops.total - phase_ops_before, 2.0 * n)

        # ---- Phase 2: repeated M-way merge -------------------------------
        # The heap plus one buffered element per participating run must fit
        # in local memory, so at most (m // 2) runs are merged at a time.
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
                with ctx.memory.buffer("merge-heap", len(group)), \
                        ctx.memory.buffer("run-heads", len(group)):
                    merged, comparisons = _heap_merge(group)
                    # Every key is read into the heap once and written once.
                    ctx.io.read(len(merged))
                    ctx.ops.add(comparisons)
                    ctx.io.write(len(merged))
                phase_io += 2.0 * len(merged)
                next_runs.append(merged)
            runs = next_runs
            ctx.phases.record(
                f"merge-pass[{merge_round}]", ctx.ops.total - phase_ops_before, phase_io
            )

        return np.asarray(runs[0], dtype=float)


def _merge_sort_comparisons(rows: np.ndarray) -> int:
    """Comparisons the counting merge sort of ``test_sorting.py`` makes per row, summed.

    A stable ``<=`` merge of two sorted halves stops when one half runs out.
    If ``max(left) <= max(right)`` the left half runs out first, after all
    of it and every right key ``< max(left)`` went out; otherwise the right
    half does, after all of it and every left key ``<= max(right)``.  Both
    counts need only the halves' contents, not their order, so the whole
    top-down split tree is counted level by level, with every node of one
    width (at most two widths per level) in one batch.
    """
    comparisons = 0
    level = {rows.shape[1]: [rows]}
    while level:
        below: dict[int, list[np.ndarray]] = {}
        for width, blocks in level.items():
            if width < 2:
                continue
            nodes = np.concatenate(blocks) if len(blocks) > 1 else blocks[0]
            mid = width // 2
            left, right = nodes[:, :mid], nodes[:, mid:]
            left_max = left.max(axis=1, keepdims=True)
            right_max = right.max(axis=1, keepdims=True)
            comparisons += int(
                np.where(
                    left_max[:, 0] <= right_max[:, 0],
                    mid + np.count_nonzero(right < left_max, axis=1),
                    width - mid + np.count_nonzero(left <= right_max, axis=1),
                ).sum()
            )
            below.setdefault(mid, []).append(left)
            below.setdefault(width - mid, []).append(right)
        level = below
    return comparisons


def _heap_merge(group: list[list[float]]) -> tuple[list[float], int]:
    """M-way merge of sorted runs through a binary min-heap of run heads.

    This is the counting heap of ``tests/kernels/test_sorting.py`` inlined
    over two parallel lists (keys and owning runs): the same pushes and pops
    in the same order -- every run's head, then per pop the next key of the
    popped run -- with the same sift comparisons, counted in a local int.
    A sifting item is held aside and written once where it stops instead of
    being swapped level by level; its key is the one the swapped item would
    have been compared by.
    Returns the merged run and the number of comparisons.
    """
    keys: list[float] = []
    owners: list[int] = []
    positions = [1] * len(group)
    merged: list[float] = []
    comparisons = 0
    key, owner, next_head = group[0][0], 0, 1
    while True:
        # Push: append, then sift up.
        index = len(keys)
        keys.append(key)
        owners.append(owner)
        while index:
            parent = (index - 1) >> 1
            comparisons += 1
            if key < keys[parent]:
                keys[index] = keys[parent]
                owners[index] = owners[parent]
                index = parent
            else:
                break
        keys[index] = key
        owners[index] = owner
        if next_head < len(group):
            key, owner = group[next_head][0], next_head
            next_head += 1
            continue
        # Pop until a popped run still has a key to push.
        while keys:
            merged.append(keys[0])
            owner = owners[0]
            key = keys.pop()
            moving_owner = owners.pop()
            size = len(keys)
            if size:
                # Sift the former last item down from the root.
                index = 0
                while True:
                    left = 2 * index + 1
                    if left >= size:
                        break
                    child, child_key = index, key
                    comparisons += 1
                    if keys[left] < child_key:
                        child, child_key = left, keys[left]
                    right = left + 1
                    if right < size:
                        comparisons += 1
                        if keys[right] < child_key:
                            child, child_key = right, keys[right]
                    if child == index:
                        break
                    keys[index] = child_key
                    owners[index] = owners[child]
                    index = child
                keys[index] = key
                owners[index] = moving_owner
            run = group[owner]
            position = positions[owner]
            if position < len(run):
                key = run[position]
                positions[owner] = position + 1
                break
        else:
            return merged, comparisons
