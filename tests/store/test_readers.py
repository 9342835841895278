"""Tests for the payload readers, including the suite round-trip property."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.runtime.cache import ResultCache
from repro.runtime.engine import SweepRunner
from repro.runtime.suites import (
    ExperimentScenario,
    PEConfig,
    Scenario,
    ScenarioSuite,
    run_suite,
    store_for,
    task_runner_for,
)
from repro.store import (
    ResultStore,
    detect_reader,
    get_reader,
    ingest_file,
    ingest_payload,
    query,
    reader_names,
)


@pytest.fixture(scope="module")
def suite_run(tmp_path_factory):
    """One cached mini-suite run: sweeps + experiments, auto-recorded."""
    root = tmp_path_factory.mktemp("suite-run")
    suite = ScenarioSuite(
        name="mini",
        description="round-trip test suite",
        scenarios=(
            Scenario(
                "mini-matmul",
                "matmul",
                (12, 27, 48),
                12,
                alphas=(1.5,),
                pes=(PEConfig("baseline", 8e6, 1e6),),
            ),
        ),
        experiments=(
            ExperimentScenario("mini-figure2", "figure2"),
            ExperimentScenario(
                "mini-pebble",
                "pebble",
                {
                    "matmul_order": 4,
                    "fft_points": 16,
                    "matmul_memories": (4, 8),
                    "fft_memories": (4,),
                },
            ),
        ),
    )
    runner = SweepRunner(cache=ResultCache(root / "cache"))
    result = run_suite(suite, runner, task_runner=task_runner_for(runner))
    return result, runner


class TestSuiteRoundTrip:
    def test_run_auto_records_into_the_store(self, suite_run):
        result, runner = suite_run
        store = store_for(runner)
        assert store is not None
        records = store.select()
        assert any(record["run_id"] == result.run_id for record in records)
        kinds = {record["experiment"] for record in records}
        assert {"sweep", "fit", "rebalance", "balance", "figure2", "pebble",
                "runtime"} <= kinds

    def test_exported_json_round_trips_value_identical(self, suite_run, tmp_path):
        """Ingesting the written JSON reproduces the recorded run exactly.

        The run key is a pure function of (source, run id, record digest),
        so key equality *is* value identity for every record cell.
        """
        result, runner = suite_run
        path = result.write_json(tmp_path / "mini.json")
        fresh = ResultStore(tmp_path / "fresh-store")
        receipt = ingest_payload(fresh, json.loads(path.read_text()))
        assert receipt.added is True
        live = store_for(runner)
        recorded = live.select(run_id=receipt.run_id)
        ingested = fresh.select(run_id=receipt.run_id)
        assert {record["run_key"] for record in recorded} == {receipt.run_key}
        # Ingest wall time and the caller's trace differ; every record value
        # and content key must not.
        drop = ("ingested_at", "trace_id")
        assert [{k: v for k, v in r.items() if k not in drop} for r in recorded] == [
            {k: v for k, v in r.items() if k not in drop} for r in ingested
        ]

    def test_reingesting_the_same_artifact_is_a_counted_noop(self, suite_run, tmp_path):
        result, _ = suite_run
        path = result.write_json(tmp_path / "again.json")
        store = ResultStore(tmp_path / "store")
        first = ingest_file(store, path)
        second = ingest_file(store, path)
        assert first.added is True and second.added is False
        assert second.run_key == first.run_key
        assert store.stats.ingests == 1 and store.stats.deduped == 1
        assert store.run_count() == 1

    def test_sweep_records_carry_execution_keys(self, suite_run, tmp_path):
        result, _ = suite_run
        store = ResultStore(tmp_path / "store")
        ingest_payload(store, result.as_dict())
        sweeps = [r for r in store.select() if r["experiment"] == "sweep"]
        assert len(sweeps) == 3
        assert all(isinstance(r["key"], str) and len(r["key"]) == 64 for r in sweeps)
        assert sweeps[0]["key"] == result.results[0].point_keys()[0]

    def test_experiment_records_carry_task_keys(self, suite_run, tmp_path):
        result, _ = suite_run
        store = ResultStore(tmp_path / "store")
        ingest_payload(store, result.as_dict())
        figure2 = [r for r in store.select() if r["experiment"] == "figure2"]
        assert len(figure2) == 1 and isinstance(figure2[0]["key"], str)
        pebble = [r for r in store.select() if r["experiment"] == "pebble"]
        # One headline plus one record per measured point.
        assert len(pebble) == 1 + 3
        assert all("scenario" in r for r in pebble)


class TestRegistry:
    def test_builtin_readers_registered(self):
        assert {"suite", "sweep", "experiment", "bench-systolic",
                "bench-service", "summary"} <= set(reader_names())

    def test_unknown_reader_lists_known(self):
        with pytest.raises(ConfigurationError, match="suite"):
            get_reader("frobnicate")

    def test_detect_by_schema_prefix(self):
        assert detect_reader({"schema": "repro-suite-result/v3"}).name == "suite"
        assert detect_reader({"schema": "repro-sweep-analytic/v1"}).name == "sweep"
        assert detect_reader({"schema": "repro-bench-systolic/v2"}).name == (
            "bench-systolic"
        )

    def test_detect_without_schema_rejected(self):
        with pytest.raises(ConfigurationError, match="schema"):
            detect_reader({"rows": []})
        with pytest.raises(ConfigurationError, match="no reader matches"):
            detect_reader({"schema": "somebody-elses/v9"})

    def test_unreadable_file_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(ConfigurationError, match="cannot read"):
            ingest_file(store, tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]")
        with pytest.raises(ConfigurationError, match="JSON object"):
            ingest_file(store, bad)


BENCH_PAYLOAD = {
    "schema": "repro-bench-systolic/v2",
    "matmul": [
        {"order": 16, "batches": 3, "reference_seconds": 0.9,
         "fast_seconds": 0.05, "speedup": 18.0},
        {"order": 256, "batches": 1, "reference_seconds": None,
         "fast_seconds": 0.4, "speedup": None},
    ],
    "matvec": [
        {"length": 256, "batches": 4, "reference_seconds": 0.2,
         "fast_seconds": 0.05, "speedup": 4.0},
    ],
    "qr": [
        {"order": 64, "rows": 96, "reference_seconds": 1.2,
         "fast_seconds": 0.1, "speedup": 12.0},
    ],
}


class TestBenchReaders:
    def test_bench_systolic_rows_keyed_by_case_identity(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        ingest_payload(store, BENCH_PAYLOAD)
        records = store.select()
        assert len(records) == 4
        assert {r["kernel"] for r in records} == {"matmul", "matvec", "qr"}
        fast_only = next(r for r in records if r["order"] == 256)
        assert fast_only["reference_seconds"] is None
        assert fast_only["fast_seconds"] == 0.4

    def test_same_case_lines_up_across_runs(self, tmp_path):
        """A rerun with different timings keeps the same per-case key."""
        store = ResultStore(tmp_path / "store")
        ingest_payload(store, BENCH_PAYLOAD)
        rerun = json.loads(json.dumps(BENCH_PAYLOAD))
        rerun["matmul"][0]["fast_seconds"] = 0.06
        ingest_payload(store, rerun)
        assert store.run_count() == 2
        keys = {}
        for record in store.select():
            keys.setdefault(record["scenario"], set()).add(record["key"])
        assert all(len(values) == 1 for values in keys.values()), keys

    def test_bench_service_reader(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        ingest_payload(
            store,
            {
                "schema": "repro-bench-service/v1",
                "latency": {"cold": {"seconds": 2.0}, "warm": {"seconds": 0.1}},
                "dedup": {"jobs": 8, "executions": 1},
            },
        )
        records = store.select()
        assert {r["scenario"] for r in records} == {
            "latency/cold", "latency/warm", "dedup",
        }


class TestExperimentReader:
    def test_summary_lists_become_counts(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        payload = {
            "schema": "repro-service-experiment/v1",
            "experiment": "systolic",
            "scenario": "cli-systolic",
            "tasks": 1,
            "task_keys": ["k" * 64],
            "summary": {"correct": True, "orders": [4, 8], "nested": {"x": 1}},
        }
        ingest_payload(store, payload)
        record = store.select()[0]
        assert record["experiment"] == "systolic"
        assert record["scenario"] == "cli-systolic"
        assert record["key"] == "k" * 64
        assert record["correct"] is True
        assert record["orders_count"] == 2
        assert "nested" not in record


def _spans_document(trace_id: str) -> dict:
    """A three-level trace: api root -> task -> aggregated phase."""
    return {
        "schema": "repro-spans/v1",
        "trace_id": trace_id,
        "spans": [
            {"trace_id": trace_id, "span_id": "root", "parent_id": None,
             "name": "service.submit", "kind": "api", "start_wall": 1.0,
             "duration": 1.0, "pid": 1, "attributes": {"git_rev": "abc1234"}},
            {"trace_id": trace_id, "span_id": "task", "parent_id": "root",
             "name": "task:probe", "kind": "task", "start_wall": 1.1,
             "duration": 0.6, "pid": 1, "attributes": {}},
            {"trace_id": trace_id, "span_id": "ph", "parent_id": "task",
             "name": "hot.loop", "kind": "phase", "start_wall": 1.1,
             "duration": 0.5, "pid": 1, "attributes": {"calls": 40}},
        ],
    }


class TestSpansReader:
    def test_registered_and_detected_by_schema_prefix(self):
        assert "spans" in reader_names()
        assert detect_reader(_spans_document("t")).name == "spans"

    def test_exclusive_time_subtracts_direct_children(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        receipt = ingest_payload(
            store, _spans_document("trace-a"),
            run_id="trace-a", trace_id="trace-a",
        )
        assert receipt.added and receipt.record_count == 3
        records = {r["key"]: r for r in query(store, experiment="span")}
        assert records["root"]["exclusive_seconds"] == pytest.approx(0.4)
        assert records["task"]["exclusive_seconds"] == pytest.approx(0.1)
        assert records["ph"]["exclusive_seconds"] == pytest.approx(0.5)
        # Inclusive time is kept alongside; depth is tree-derived.
        assert records["root"]["seconds"] == pytest.approx(1.0)
        assert records["root"]["depth"] == 1
        assert records["ph"]["depth"] == 3
        assert records["ph"]["calls"] == 40

    def test_trace_id_travels_as_run_metadata(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        ingest_payload(
            store, _spans_document("trace-b"),
            run_id="trace-b", trace_id="trace-b",
        )
        for record in query(store, experiment="span"):
            assert record["run_id"] == "trace-b"
            assert record["trace_id"] == "trace-b"
        assert query(store, run_id="trace-b")

    def test_orphan_span_keeps_full_duration_as_exclusive(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        document = {
            "schema": "repro-spans/v1",
            "trace_id": "trace-c",
            "spans": [
                {"trace_id": "trace-c", "span_id": "lost",
                 "parent_id": "evicted", "name": "survivor", "kind": "task",
                 "start_wall": 2.0, "duration": 0.25, "pid": 3,
                 "attributes": {}},
            ],
        }
        ingest_payload(store, document, run_id="trace-c", trace_id="trace-c")
        (record,) = query(store, experiment="span")
        assert record["depth"] == 1
        assert record["exclusive_seconds"] == pytest.approx(0.25)
