"""How fast the host's CPUs run right now, for scaling CPU-bound timings.

On a shared host a virtual CPU can run up to 1.8 times slower than its
best for seconds to minutes at a time, so a timing taken in a slow spell
reads as a regression of the program.  The benchmark therefore times a fixed
calibration loop on each CPU just before and just after every CPU-bound
sample, and divides the sample by the *slowdown*: the loop's time then,
over :data:`REFERENCE_MS`.  A scaled timing reads as milliseconds on a CPU
running at the reference speed.  The loop is the benchmark's own code, so a
change to the program moves the sample and not the slowdown.
"""

from __future__ import annotations

import os
import time
from statistics import median
from typing import Iterable, Mapping

#: Milliseconds one calibration loop takes on one vCPU of the reference
#: host (a 2-vCPU virtual machine; Python 3.11) running at full speed.
REFERENCE_MS = 0.7

#: Calibration loops per CPU per probe; the probe keeps their median.
LOOPS = 3

_SIZE = 2500


def loop_ms() -> float:
    """One calibration loop: interpreter work of the kind the program does."""
    start = time.perf_counter()
    table: dict[str, int] = {}
    for index in range(_SIZE):
        table[f"k{index}"] = index * index % 97
    sorted(table.values())
    return (time.perf_counter() - start) * 1e3


def probe(cpus: Iterable[int] | None = None) -> dict[int, float]:
    """Calibration milliseconds per CPU, each the median of :data:`LOOPS` loops.

    The calling thread is pinned to each CPU in turn and gets its own
    affinity mask back afterwards, so a pool forked later is sized as before.
    """
    mask = os.sched_getaffinity(0)
    chosen = sorted(mask) if cpus is None else list(cpus)
    result = {}
    try:
        for cpu in chosen:
            os.sched_setaffinity(0, {cpu})
            result[cpu] = median(loop_ms() for _ in range(LOOPS))
    finally:
        os.sched_setaffinity(0, mask)
    return result


def slowdown(
    before: Mapping[int, float],
    after: Mapping[int, float],
    cpus: Iterable[int] | None = None,
) -> float:
    """The mean slowdown over ``cpus`` (default: every CPU probed both times)."""
    cpus = before.keys() & after.keys() & (set(before) if cpus is None else set(cpus))
    if not cpus:
        raise ValueError("no CPU was probed both before and after the sample")
    return sum(before[cpu] + after[cpu] for cpu in cpus) / (2 * len(cpus)) / REFERENCE_MS
