"""The seeded op sequence of the ``service-mix`` workload.

:func:`generate` turns a seed into a list of ops; the same seed always
gives the same list.  The closed-loop clients take ops from the list in
order, so two runs with one seed submit the same specs in the same order.

Op kinds and their shares:

``analytic`` (40%)
    A sweep job evaluated from the closed-form cost models; never cached.
``cold`` (20%)
    A spec no earlier op used: a measured sweep at a fresh problem scale
    and memory grid, or a small seeded systolic experiment.  The service
    executes its kernels or simulators.
``dup`` (5%)
    A fresh cold spec submitted twice back to back, so the second
    submission attaches to the first through the scheduler's dedup.
``warm`` (25%)
    A repeat of an earlier cold spec, which the service replays from its
    caches once the earlier job finished.
``results`` (10%)
    ``GET /results`` for one kernel: the store query behind ``repro report``.
"""

from __future__ import annotations

import bisect
import json
import random
from typing import Any

SHARES = (
    ("analytic", 0.40),
    ("cold", 0.20),
    ("dup", 0.05),
    ("warm", 0.25),
    ("results", 0.10),
)

#: Kernels with a closed-form cost model, for analytic sweeps.
ANALYTIC_KERNELS = (
    "matmul", "triangularization", "grid2d", "grid3d", "fft",
    "sorting", "matvec", "triangular_solve", "sparse_matvec",
)
ANALYTIC_MEMORIES = (8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
ANALYTIC_PROBLEM_SIZES = (1024, 4096, 16384)

#: Measured-sweep kernels and the problem scales a cold spec draws from.
MEASURED_SCALES = {
    "matvec": (48, 96),
    "triangular_solve": (48, 96),
    "matmul": (16, 32),
    "sparse_matvec": (48, 96),
}
MEASURED_MEMORY = (16, 1024)

#: Share of cold specs that are seeded systolic experiments, not sweeps.
EXPERIMENT_SHARE = 0.3

#: A warm op repeats a cold spec at least this many ops older.
WARM_DISTANCE = 4


def analytic_spec(rng: random.Random) -> dict[str, Any]:
    return {
        "kind": "sweep",
        "params": {
            "kernel": rng.choice(ANALYTIC_KERNELS),
            "memory_sizes": sorted(rng.sample(ANALYTIC_MEMORIES, rng.randint(3, 5))),
            "problem_size": rng.choice(ANALYTIC_PROBLEM_SIZES),
            "analytic": True,
        },
    }


def _cold(rng: random.Random) -> dict[str, Any]:
    if rng.random() < EXPERIMENT_SHARE:
        return {
            "kind": "experiment",
            "params": {
                "experiment": "systolic",
                "params": {"order": 8, "batches": 4, "seed": rng.randrange(1 << 30)},
            },
        }
    kernel = rng.choice(sorted(MEASURED_SCALES))
    low, high = MEASURED_SCALES[kernel]
    return {
        "kind": "sweep",
        "params": {
            "kernel": kernel,
            "memory_sizes": sorted(rng.sample(range(*MEASURED_MEMORY), 3)),
            "scale": rng.randint(low, high),
        },
    }


def spec_key(spec: dict[str, Any]) -> str:
    """A stable identity for a submitted spec (equal specs, equal keys)."""
    return json.dumps(spec, sort_keys=True)


def generate(seed: int, count: int) -> list[dict[str, Any]]:
    """``count`` ops drawn from :data:`SHARES` with a generator seeded by ``seed``."""
    rng = random.Random(seed)
    kinds = [kind for kind, _ in SHARES]
    weights = [share for _, share in SHARES]
    ops: list[dict[str, Any]] = []
    cold_positions: list[int] = []
    seen: set[str] = set()
    while len(ops) < count:
        kind = rng.choices(kinds, weights)[0]
        eligible = bisect.bisect_right(cold_positions, len(ops) - WARM_DISTANCE)
        if kind == "warm" and not eligible:
            kind = "analytic"
        if kind == "analytic":
            op = {"op": kind, **analytic_spec(rng)}
        elif kind in ("cold", "dup"):
            spec = _cold(rng)
            while spec_key(spec) in seen:
                spec = _cold(rng)
            seen.add(spec_key(spec))
            op = {"op": kind, **spec}
            if kind == "cold":
                cold_positions.append(len(ops))
        elif kind == "warm":
            source = ops[cold_positions[rng.randrange(eligible)]]
            op = {"op": kind, "kind": source["kind"], "params": source["params"]}
        else:
            op = {"op": kind, "kernel": rng.choice(sorted(MEASURED_SCALES))}
        ops.append(op)
    return ops
