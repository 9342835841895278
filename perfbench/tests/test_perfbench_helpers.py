"""Helpers of the benchmark: percentiles, names, the result line, host speed, the probe, the gate."""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

import benchstats
import golden
import hostspeed
from layerprobe import LayerProbe


# -- percentiles and names ----------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    assert benchstats.percentile(list(range(99)), 90) is None
    assert benchstats.percentile(list(range(1, 101)), 90) == 90.0


def test_median_percentile_needs_twenty_samples():
    assert benchstats.percentile(list(range(19)), 50) is None
    assert benchstats.percentile(list(range(1, 21)), 50) == 10.0


def test_percentile_rejects_out_of_range_quantiles():
    with pytest.raises(ValueError):
        benchstats.percentile([1.0] * 200, 100)


@pytest.mark.parametrize("name", ["op_p50_ms", "kernels.fft.ns_per_op", "experiments.linear-array.ms"])
def test_good_metric_names(name):
    benchstats.check_metric_names([name])


@pytest.mark.parametrize("name", ["op p50", "latency(ms)", "", "x" * 65])
def test_bad_metric_names(name):
    with pytest.raises(ValueError):
        benchstats.check_metric_names([name])


def test_slowdown_averages_the_probes_on_either_side():
    before = {0: hostspeed.REFERENCE_MS, 1: 2 * hostspeed.REFERENCE_MS}
    after = {0: 3 * hostspeed.REFERENCE_MS, 1: 2 * hostspeed.REFERENCE_MS}
    assert hostspeed.slowdown(before, after) == pytest.approx(2.0)
    assert hostspeed.slowdown(before, after, [0]) == pytest.approx(2.0)
    assert hostspeed.slowdown(before, after, [1]) == pytest.approx(2.0)
    assert hostspeed.slowdown({0: 1.0}, {0: 1.0, 1: 5.0}) == pytest.approx(
        1.0 / hostspeed.REFERENCE_MS
    )
    with pytest.raises(ValueError):
        hostspeed.slowdown(before, after, [2])


def test_probe_covers_every_cpu_and_restores_the_mask():
    mask = os.sched_getaffinity(0)
    timings = hostspeed.probe()
    assert set(timings) == mask
    assert all(value > 0 for value in timings.values())
    assert os.sched_getaffinity(0) == mask


def test_result_line_has_exactly_four_keys():
    line = benchstats.result_line(
        correct=True, attempted=3, failed=0, metrics={"op_p50_ms": (1.25, "ms")}
    )
    document = json.loads(line)
    assert set(document) == {"correct", "attempted", "failed", "metrics"}
    assert document["metrics"] == {"op_p50_ms": {"value": 1.25, "unit": "ms"}}


# -- the layer probe ----------------------------------------------------------


class _Layer:
    def work(self, n):
        return {"count": n}


def _call_in_child(n):
    return _Layer().work(n)


def test_probe_times_calls_and_restores_the_original(tmp_path):
    original = _Layer.work
    probe = LayerProbe(tmp_path)
    probe.wrap(_Layer, "work", "toy", lambda value: {"items": value["count"]})
    assert _Layer().work(3) == {"count": 3}
    _Layer().work(4)
    probe.uninstall()
    assert _Layer.work is original
    totals = probe.drain()
    assert totals["toy"]["calls"] == 2
    assert totals["toy"]["items"] == 7
    assert totals["toy"]["ms"] >= 0
    assert probe.drain() == {}


def test_probe_collects_samples_from_forked_children(tmp_path):
    probe = LayerProbe(tmp_path)
    probe.wrap(_Layer, "work", "toy", lambda value: {"items": value["count"]})
    try:
        with multiprocessing.get_context("fork").Pool(2) as pool:
            assert pool.map(_call_in_child, [1, 2, 3]) == [{"count": n} for n in (1, 2, 3)]
    finally:
        probe.uninstall()
    totals = probe.drain()
    assert totals["toy"]["calls"] == 3
    assert totals["toy"]["items"] == 6
    assert not list(tmp_path.glob("*.jsonl"))


def test_inactive_probe_records_nothing(tmp_path):
    probe = LayerProbe(tmp_path, active=lambda: False)
    probe.wrap(_Layer, "work", "toy")
    try:
        _Layer().work(1)
    finally:
        probe.uninstall()
    assert probe.drain() == {}


# -- the correctness gate -----------------------------------------------------


def _payload():
    return {
        "scenarios": [
            {
                "scenario": "s-matmul",
                "rows": [
                    {"memory_words": 12.0, "compute_ops": 100.0, "io_words": 40.0,
                     "peak_resident_words": 12.0, "intensity": 2.5},
                ],
            }
        ],
        "experiments": [
            {"scenario": "s-systolic",
             "summary": {"matmul_correct": True, "matvec_correct": True, "qr_correct": True,
                         "matmul_utilization": 0.5, "max_abs_error": 1e-12}},
            {"scenario": "s-pebble",
             "summary": {"all_above_lower_bound": True,
                         "points": [{"dag": "fft", "fast_memory_words": 4,
                                     "measured_io": 30, "lower_bound": 10, "ratio": 3.0}]}},
        ],
    }


def test_gate_accepts_a_result_matching_its_golden_digests():
    payload = _payload()
    assert golden.check_suite(payload, golden.suite_digests(payload)) == []


def test_gate_ignores_fields_that_are_not_counts():
    payload = _payload()
    reference = golden.suite_digests(payload)
    payload["experiments"][0]["summary"]["max_abs_error"] = 2e-12
    payload["scenarios"][0]["rows"][0]["intensity"] = 2.6
    assert golden.check_suite(payload, reference) == []


def test_gate_flags_a_false_correctness_flag():
    payload = _payload()
    reference = golden.suite_digests(payload)
    payload["experiments"][0]["summary"]["qr_correct"] = False
    (problem,) = golden.check_suite(payload, reference)
    assert "qr_correct" in problem


def test_gate_flags_a_pebble_point_below_its_bound():
    payload = _payload()
    reference = golden.suite_digests(payload)
    payload["experiments"][1]["summary"]["all_above_lower_bound"] = False
    assert golden.check_suite(payload, reference)


def test_gate_names_the_scenario_whose_counts_moved():
    payload = _payload()
    reference = golden.suite_digests(payload)
    payload["scenarios"][0]["rows"][0]["io_words"] = 41.0
    (problem,) = golden.check_suite(payload, reference)
    assert "s-matmul" in problem


def test_gate_checks_traced_kernel_and_array_counts():
    layers = {
        "kernels.fft": {"ms": 3.0, "calls": 2.0, "ops": 10.0, "words": 4.0},
        "arrays.qr": {"ms": 1.0, "calls": 1.0, "cycles": 7.0, "active_cells": 9.0},
        "runtime.tasks.run": {"ms": 5.0, "calls": 1.0},
    }
    expected = golden.layer_counts(layers)
    assert golden.check_layers(layers, expected) == []
    assert golden.check_layers(layers, {})
    layers["arrays.qr"]["cycles"] = 8.0
    assert golden.check_layers(layers, expected)


def test_shipped_golden_file_covers_the_full_suite():
    from repro.runtime.suites import get_suite

    suite = get_suite("full")
    reference = golden.load()
    assert set(reference["scenarios"]) == {scenario.name for scenario in suite.scenarios}
    assert set(reference["experiments"]) == {scenario.name for scenario in suite.experiments}
    assert {f"kernels.{scenario.kernel}" for scenario in suite.scenarios} <= set(
        reference["layers"]
    )
