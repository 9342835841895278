"""Summary statistics and result-line helpers shared by every workload."""

from __future__ import annotations

import json
import math
import re
from typing import Iterable, Mapping, Sequence

#: Metric names, as ``BENCHMARK.json`` and the result line spell them.
METRIC_NAME = re.compile(r"[A-Za-z0-9._-]+")

#: A percentile is reported only when this many samples lie beyond it.
TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> float | None:
    """The ``q``-th percentile (0 < q < 100), or ``None`` when too few samples.

    The estimate is the nearest-rank sample, and it is reported only when at
    least :data:`TAIL_SAMPLES` samples lie strictly beyond its rank, so a
    "p90" always rests on ten slower samples rather than on one outlier.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie strictly between 0 and 100, got {q!r}")
    ordered = sorted(values)
    if not ordered:
        return None
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    if len(ordered) - rank < TAIL_SAMPLES:
        return None
    return float(ordered[rank - 1])


def check_metric_names(names: Iterable[str]) -> None:
    for name in names:
        if not METRIC_NAME.fullmatch(name) or len(name) > 64:
            raise ValueError(f"bad metric name {name!r}")


def result_line(
    *,
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Mapping[str, tuple[float, str]],
) -> str:
    """The one-line JSON object the benchmark prints last."""
    check_metric_names(metrics)
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )
