"""Tests for the transform registry and the built-in derived-metric passes."""

from __future__ import annotations

import pytest

from repro.analysis.transforms import (
    apply_transform,
    get_transform,
    register_transform,
    transform_names,
)
from repro.exceptions import ConfigurationError
from repro.store import ResultStore, ingest_payload

BUILTINS = {
    "engine-speedups",
    "speedup-trend",
    "regressions",
    "balance-margins",
    "classification-counts",
    "roofline",
    "cache-hit-rates",
}


class TestRegistry:
    def test_builtins_registered(self):
        assert BUILTINS <= set(transform_names())

    def test_unknown_transform_lists_known(self):
        with pytest.raises(ConfigurationError, match="regressions"):
            get_transform("frobnicate")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_transform("roofline")(lambda records: [])

    def test_apply_with_parameters(self):
        @register_transform("test-scale", description="test-only")
        def scale(records, factor: float = 2.0):
            return [{"x": r["x"] * factor} for r in records]

        assert apply_transform("test-scale", [{"x": 3}], factor=10)[0]["x"] == 30


def _bench_payload(fast_by_case):
    """A minimal bench-systolic payload with controllable fast timings."""
    return {
        "schema": "repro-bench-systolic/v2",
        "matmul": [
            {"order": 32, "batches": 2, "reference_seconds": 1.0,
             "fast_seconds": fast_by_case["matmul32"], "speedup": 20.0},
            {"order": 256, "batches": 1, "reference_seconds": None,
             "fast_seconds": fast_by_case["matmul256"], "speedup": None},
        ],
        "matvec": [],
        "qr": [
            {"order": 64, "rows": 96, "reference_seconds": 1.2,
             "fast_seconds": fast_by_case["qr64"], "speedup": 12.0},
        ],
    }


@pytest.fixture
def two_bench_runs(tmp_path):
    """Two ingested bench runs: qr improved, matmul-256 (fast-only) regressed."""
    store = ResultStore(tmp_path / "store")
    ingest_payload(
        store,
        _bench_payload({"matmul32": 0.050, "matmul256": 0.400, "qr64": 0.100}),
        run_id="run-1",
    )
    ingest_payload(
        store,
        _bench_payload({"matmul32": 0.050, "matmul256": 0.800, "qr64": 0.050}),
        run_id="run-2",
    )
    return store


class TestBenchTransforms:
    def test_regressions_cover_fast_only_rows(self, two_bench_runs):
        rows = apply_transform("regressions", two_bench_runs.select())
        by_scenario = {row["scenario"]: row for row in rows}
        assert len(rows) == 3
        slowed = by_scenario["matmul/order=256/batches=1"]
        # The fast-only case has no reference timing, yet the regression
        # check still covers it: the comparison is fast-vs-previous-fast.
        assert slowed["reference_timed"] is False
        assert slowed["regression"] is True
        assert slowed["fast_ratio"] == pytest.approx(2.0)
        assert slowed["run_id"] == "run-2"
        assert slowed["previous_run_id"] == "run-1"
        improved = by_scenario["qr/order=64/rows=96"]
        assert improved["regression"] is False
        assert improved["fast_ratio"] == pytest.approx(0.5)
        # Worst mover first.
        assert rows[0]["scenario"] == "matmul/order=256/batches=1"

    def test_regression_threshold_is_a_parameter(self, two_bench_runs):
        rows = apply_transform(
            "regressions", two_bench_runs.select(), threshold=3.0
        )
        assert not any(row["regression"] for row in rows)

    def test_single_run_has_nothing_to_compare(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        ingest_payload(
            store,
            _bench_payload({"matmul32": 0.05, "matmul256": 0.4, "qr64": 0.1}),
        )
        assert apply_transform("regressions", store.select()) == []

    def test_speedup_trend_chains_runs_per_case(self, two_bench_runs):
        rows = apply_transform("speedup-trend", two_bench_runs.select())
        qr = [row for row in rows if row["kernel"] == "qr"]
        assert [row["run_id"] for row in qr] == ["run-1", "run-2"]
        assert qr[0]["fast_ratio"] is None  # first run has no predecessor
        assert qr[1]["fast_ratio"] == pytest.approx(0.5)

    def test_engine_speedups_groups_per_run_and_kernel(self, two_bench_runs):
        rows = apply_transform("engine-speedups", two_bench_runs.select())
        matmul = [row for row in rows if row["kernel"] == "matmul"]
        assert len(matmul) == 2  # one row per run
        assert matmul[0]["cases"] == 2
        assert matmul[0]["timed_cases"] == 1  # the fast-only row has no speedup
        assert matmul[0]["max_speedup"] == pytest.approx(20.0)


def _fit_record(kernel, computation_class):
    return {"experiment": "fit", "kernel": kernel,
            "computation_class": computation_class}


class TestAnalysisTransforms:
    def test_classification_counts(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.append_run(
            [
                _fit_record("matmul", "rebalanceable"),
                _fit_record("fft", "rebalanceable"),
                _fit_record("matvec", "io-bounded"),
            ],
            source="test",
            run_id="r1",
        )
        rows = apply_transform("classification-counts", store.select())
        by_class = {row["computation_class"]: row for row in rows}
        assert by_class["rebalanceable"]["count"] == 2
        assert by_class["rebalanceable"]["kernels"] == "matmul fft"
        assert by_class["io-bounded"]["count"] == 1

    def test_roofline_classifies_against_the_ridge(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.append_run(
            [
                {"experiment": "sweep", "kernel": "matmul",
                 "memory_words": 256, "intensity": 16.0},
                {"experiment": "sweep", "kernel": "matvec",
                 "memory_words": 256, "intensity": 2.0},
                {"experiment": "fit", "kernel": "matmul"},  # not a sweep row
            ],
            source="test",
        )
        rows = apply_transform("roofline", store.select())
        assert len(rows) == 2
        # Defaults: 8e6 ops/s over 1e6 words/s puts the ridge at F = 8.
        compute_bound = next(r for r in rows if r["kernel"] == "matmul")
        assert compute_bound["ridge_intensity"] == pytest.approx(8.0)
        assert compute_bound["compute_bound"] is True
        assert compute_bound["attainable_ops_per_s"] == pytest.approx(8e6)
        memory_bound = next(r for r in rows if r["kernel"] == "matvec")
        assert memory_bound["compute_bound"] is False
        assert memory_bound["attainable_ops_per_s"] == pytest.approx(2e6)
        # Bandwidths are parameters.
        wider = apply_transform(
            "roofline", store.select(), io_bandwidth=4e6
        )
        assert next(r for r in wider if r["kernel"] == "matvec")["compute_bound"] is (
            True
        )

    def test_cache_hit_rates_from_runtime_records(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.append_run(
            [
                {"experiment": "runtime", "scenario": "quick",
                 "cache_hits": 30, "cache_misses": 10,
                 "task_cache_hits": 0, "task_cache_misses": 8},
            ],
            source="test",
        )
        rows = apply_transform("cache-hit-rates", store.select())
        by_cache = {row["cache"]: row for row in rows}
        assert by_cache["results"]["hit_rate"] == pytest.approx(0.75)
        assert by_cache["tasks"]["hit_rate"] == pytest.approx(0.0)

    def test_balance_margins(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.append_run(
            [
                {"experiment": "balance", "kernel": "matmul", "pe": "baseline",
                 "memory_words": 256, "bound": "compute",
                 "compute_time": 4.0, "io_time": 2.0, "imbalance": 2.0},
                {"experiment": "rebalance", "kernel": "matmul",
                 "alpha": 2.0, "memory_new": 1024, "growth_factor": 4.0},
            ],
            source="test",
        )
        rows = apply_transform("balance-margins", store.select())
        assert rows[0]["compute_over_io"] == pytest.approx(2.0)
        assert rows[1]["bound"] == "rebalance"
        assert rows[1]["imbalance"] == pytest.approx(4.0)


class TestSpanHotspots:
    def _ingest_trace(self, store, trace_id, hot_seconds):
        document = {
            "schema": "repro-spans/v1",
            "trace_id": trace_id,
            "spans": [
                {"trace_id": trace_id, "span_id": "root", "parent_id": None,
                 "name": "service.submit", "kind": "api", "start_wall": 1.0,
                 "duration": 1.0, "pid": 1, "attributes": {}},
                {"trace_id": trace_id, "span_id": "task", "parent_id": "root",
                 "name": "task:probe", "kind": "task", "start_wall": 1.1,
                 "duration": 0.9, "pid": 1, "attributes": {}},
                {"trace_id": trace_id, "span_id": "hot", "parent_id": "task",
                 "name": "hot.loop", "kind": "phase", "start_wall": 1.1,
                 "duration": hot_seconds, "pid": 1,
                 "attributes": {"calls": 50}},
                {"trace_id": trace_id, "span_id": "cold", "parent_id": "task",
                 "name": "cold.loop", "kind": "phase", "start_wall": 1.2,
                 "duration": 0.05, "pid": 1, "attributes": {"calls": 2}},
            ],
        }
        ingest_payload(store, document, run_id=trace_id, trace_id=trace_id)

    def test_rollup_names_the_hot_phase_per_trace(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        self._ingest_trace(store, "trace-1", hot_seconds=0.7)
        rows = apply_transform("span-hotspots", store.select())
        assert rows, "spans must produce hotspot rows"
        top = rows[0]
        assert top["name"] == "hot.loop"
        assert top["exclusive_seconds"] == pytest.approx(0.7)
        assert top["calls"] == 50
        # Shares partition the trace's exclusive time: they sum to 1.
        assert sum(row["share"] for row in rows) == pytest.approx(1.0)

    def test_same_phase_lines_up_across_traces(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        self._ingest_trace(store, "trace-1", hot_seconds=0.7)
        self._ingest_trace(store, "trace-2", hot_seconds=0.3)
        rows = apply_transform("span-hotspots", store.select())
        hot = [row for row in rows if row["name"] == "hot.loop"]
        assert [row["run_id"] for row in hot] == ["trace-1", "trace-2"]
        assert hot[0]["exclusive_seconds"] == pytest.approx(0.7)
        assert hot[1]["exclusive_seconds"] == pytest.approx(0.3)

    def test_non_span_records_are_ignored(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.append_run(
            [{"experiment": "sweep", "kernel": "matmul", "intensity": 4.0}],
            source="test",
        )
        assert apply_transform("span-hotspots", store.select()) == []
