"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's artifacts (see the experiment
index in DESIGN.md), prints the corresponding table or series, and asserts
the *shape* of the result -- which law wins, by roughly what factor -- rather
than absolute numbers.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

#: Timing repetitions, applied identically to both engines of a comparison.
#: A single run per side is vulnerable to one GC pause or scheduler
#: preemption on a shared CI runner; an *asymmetric* policy (one reference
#: run vs best-of-3 fast runs, as earlier revisions did) systematically
#: biases the reported speedup upward, because only the fast engine gets to
#: discard its unlucky runs.
TIMING_REPEATS = 3


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator shared by the benchmark workloads."""
    return np.random.default_rng(1986)


def emit(title: str, body: str) -> None:
    """Print a labelled block so `pytest -s` shows the regenerated artifact."""
    print(f"\n===== {title} =====")
    print(body)


def best_of(fn, *args, repeats: int = TIMING_REPEATS):
    """Best-of-``repeats`` wall-clock time, same policy for both engines."""
    best = math.inf
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - started)
    return result, best
