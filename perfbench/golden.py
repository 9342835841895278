"""The correctness gate for the suite workloads.

Every op's suite result must carry true correctness flags, and its counted
quantities must match ``golden.json``: per scenario a digest of the counted
ops, words and peak residency at each memory size, per experiment a digest
of its counted summary (systolic utilizations, pebble I/O and bounds,
Figure 2 pass counts), and, for traced ops, the kernel op/word totals and
the array cycle and active-cell totals the layer probe recorded.

Regenerate the file only when a change is meant to alter the counts::

    PYTHONPATH=src python3 perfbench/golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Mapping

GOLDEN_PATH = Path(__file__).with_name("golden.json")

_CORRECT_FLAGS = ("matmul_correct", "matvec_correct", "qr_correct", "correct")
_COUNTED_SUMMARY_KEYS = (
    "matmul_utilization",
    "matvec_utilization",
    "qr_utilization",
    "pass_count",
    "blocks_per_pass",
)


def digest(value: Any) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _counted_rows(scenario: Mapping[str, Any]) -> list[list[float]]:
    return [
        [
            float(row["memory_words"]),
            float(row["compute_ops"]),
            float(row["io_words"]),
            float(row["peak_resident_words"]),
        ]
        for row in scenario["rows"]
    ]


def _counted_summary(summary: Mapping[str, Any]) -> dict[str, Any]:
    counted = {key: summary[key] for key in _COUNTED_SUMMARY_KEYS if key in summary}
    if "points" in summary:
        counted["points"] = [
            [point["dag"], point["fast_memory_words"], point["measured_io"], point["lower_bound"]]
            for point in summary["points"]
        ]
    return counted


def suite_digests(payload: Mapping[str, Any]) -> dict[str, dict[str, str]]:
    """Per-scenario and per-experiment digests of a suite result's counts."""
    return {
        "scenarios": {
            scenario["scenario"]: digest(_counted_rows(scenario))
            for scenario in payload["scenarios"]
        },
        "experiments": {
            experiment["scenario"]: digest(_counted_summary(experiment["summary"]))
            for experiment in payload["experiments"]
        },
    }


def layer_counts(layers: Mapping[str, Mapping[str, float]]) -> dict[str, dict[str, float]]:
    """The kernel and array counts a traced op recorded, by layer."""
    counted = {}
    for layer, entry in layers.items():
        if layer.startswith("kernels."):
            counted[layer] = {"ops": entry["ops"], "words": entry["words"]}
        elif layer.startswith("arrays."):
            counted[layer] = {"cycles": entry["cycles"], "active_cells": entry["active_cells"]}
    return counted


def load() -> dict[str, Any]:
    return json.loads(GOLDEN_PATH.read_text())


def check_suite(payload: Mapping[str, Any], golden: Mapping[str, Any]) -> list[str]:
    """Problems with one suite result; an empty list means it is correct."""
    problems = []
    for experiment in payload["experiments"]:
        summary = experiment["summary"]
        for flag in _CORRECT_FLAGS:
            if flag in summary and summary[flag] is not True:
                problems.append(f"{experiment['scenario']}: {flag} is {summary[flag]!r}")
        if summary.get("all_above_lower_bound") is False:
            problems.append(f"{experiment['scenario']}: pebble I/O below its lower bound")
    digests = suite_digests(payload)
    for group in ("scenarios", "experiments"):
        if digests[group] != golden[group]:
            changed = sorted(
                name
                for name in set(digests[group]) | set(golden[group])
                if digests[group].get(name) != golden[group].get(name)
            )
            problems.append(f"counts differ from golden.json for {', '.join(changed)}")
    return problems


def check_layers(
    layers: Mapping[str, Mapping[str, float]], expected: Mapping[str, Any]
) -> list[str]:
    """Problems with one traced op's kernel and array counts.

    ``expected`` is ``golden["layers"]`` for an op that executes the suite,
    and empty for a replay, in which no kernel or array may run.
    """
    counted = layer_counts(layers)
    if counted == expected:
        return []
    changed = sorted(
        name for name in set(counted) | set(expected) if counted.get(name) != expected.get(name)
    )
    return [f"layer counts differ from the expected counts for {', '.join(changed)}"]


def _regenerate() -> None:
    import tempfile

    from repro.runtime.suites import run_suite

    from layerprobe import LayerProbe

    with tempfile.TemporaryDirectory(dir=GOLDEN_PATH.parent) as spool:
        probe = LayerProbe(Path(spool))
        probe.install_suite_layers()
        try:
            result = run_suite("full", record=False)
        finally:
            probe.uninstall()
        layers = probe.drain()
    golden = {"suite": "full", **suite_digests(result.as_dict()), "layers": layer_counts(layers)}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    _regenerate()
