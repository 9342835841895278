"""Tests for the append-only, content-addressed result store."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.store import core
from repro.store.core import (
    RESERVED_RUN_COLUMNS,
    STORE_SCHEMA,
    Frame,
    ResultStore,
    git_revision,
)
from repro.store.query import query


@pytest.fixture
def store(tmp_path) -> ResultStore:
    return ResultStore(tmp_path / "store")


RECORDS = [
    {"experiment": "sweep", "kernel": "matmul", "memory_words": 27, "intensity": 2.5},
    {"experiment": "fit", "kernel": "matmul", "computation_class": "rebalanceable"},
]


class TestAppendRun:
    def test_records_come_back_with_run_metadata_merged(self, store):
        receipt = store.append_run(
            RECORDS, source="test", source_schema="x/v1", suite="s", trace_id="t-1"
        )
        assert receipt.added is True
        assert receipt.record_count == 2
        records = store.records()
        assert len(records) == len(store) == 2
        first = records[0]
        assert first["kernel"] == "matmul" and first["intensity"] == 2.5
        assert first["run_key"] == receipt.run_key
        assert first["run_id"] == receipt.run_id
        assert first["source"] == "test" and first["source_schema"] == "x/v1"
        assert first["suite"] == "s" and first["trace_id"] == "t-1"
        assert first["ingested_at"] > 0

    def test_identical_payload_dedups_to_a_noop(self, store):
        first = store.append_run(RECORDS, source="test")
        second = store.append_run(RECORDS, source="test")
        assert second.added is False
        assert second.run_key == first.run_key
        assert store.run_count() == 1 and len(store) == 2
        assert store.stats.ingests == 1
        assert store.stats.deduped == 1
        assert store.stats.records == 2

    def test_distinct_run_ids_append_distinct_runs(self, store):
        store.append_run(RECORDS, source="test", run_id="run-a")
        store.append_run(RECORDS, source="test", run_id="run-b")
        assert store.run_count() == 2 and len(store) == 4

    def test_distinct_records_append_distinct_runs(self, store):
        store.append_run(RECORDS, source="test")
        store.append_run(RECORDS[:1], source="test")
        assert store.run_count() == 2

    def test_runs_report_metadata_oldest_first(self, store):
        a = store.append_run(RECORDS, source="test", run_id="a")
        b = store.append_run(RECORDS, source="test", run_id="b")
        runs = store.runs()
        assert [run.run_key for run in runs] == [a.run_key, b.run_key]
        assert runs[0].record_count == 2
        assert runs[0].ingested_at <= runs[1].ingested_at

    def test_run_records_by_key(self, store):
        receipt = store.append_run(RECORDS, source="test")
        records = store.run_records(receipt.run_key)
        assert len(records) == 2 and records[0]["run_key"] == receipt.run_key
        with pytest.raises(ConfigurationError, match="no readable run"):
            store.run_records("0" * 64)

    @pytest.mark.parametrize("column", RESERVED_RUN_COLUMNS)
    def test_reserved_columns_rejected(self, store, column):
        with pytest.raises(ConfigurationError, match="reserved"):
            store.append_run([{column: "x"}], source="test")

    def test_non_scalar_cells_rejected(self, store):
        with pytest.raises(ConfigurationError, match="scalar"):
            store.append_run([{"rows": [1, 2]}], source="test")
        with pytest.raises(ConfigurationError, match="scalar"):
            store.append_run([{"nested": {"a": 1}}], source="test")

    def test_numpy_scalars_unwrapped(self, store):
        store.append_run(
            [{"n": np.int64(3), "x": np.float64(1.5), "b": np.bool_(True)}],
            source="test",
        )
        record = store.records()[0]
        assert record["n"] == 3 and record["x"] == 1.5 and record["b"] is True
        # The segment is plain JSON.
        segment = json.loads(next(store.root.glob("runs/*/*.json")).read_text())
        assert segment["schema"] == STORE_SCHEMA

    def test_clear_removes_every_segment(self, store):
        store.append_run(RECORDS, source="test", run_id="a")
        store.append_run(RECORDS, source="test", run_id="b")
        assert store.disk_usage_bytes() > 0
        assert store.clear() == 2
        assert store.run_count() == 0 and store.records() == []
        assert store.disk_usage_bytes() == 0

    def test_corrupt_segment_is_skipped_on_read(self, store):
        store.append_run(RECORDS, source="test", run_id="good")
        bad = store.append_run(RECORDS, source="test", run_id="bad")
        path = store.root / "runs" / bad.run_key[:2] / f"{bad.run_key}.json"
        path.write_text("{ not json")
        records = store.records()
        assert len(records) == 2
        assert all(record["run_id"] == "good" for record in records)

    def test_segment_with_a_non_object_record_is_skipped(self, store):
        good = store.append_run(
            [{"experiment": "sweep", "kernel": "fft", "x": 1}],
            source="test",
            run_id="good",
        )
        bad = store.append_run(RECORDS, source="test", run_id="bad")
        path = store.root / "runs" / bad.run_key[:2] / f"{bad.run_key}.json"
        segment = json.loads(path.read_text())
        segment["records"] = [{"experiment": "sweep", "kernel": "fft"}, 7]
        segment["run"]["record_count"] = 2
        path.write_text(json.dumps(segment))
        assert [record["run_id"] for record in query(store, kernel="fft")] == ["good"]
        assert [record["run_id"] for record in store.records()] == ["good"]
        assert [run.run_key for run in store.runs()] == [good.run_key]

    def test_appends_stamp_one_revision_per_process(self, store, monkeypatch):
        calls = []

        def revision(start=None):
            calls.append(start)
            return "f" * 40

        monkeypatch.setattr(core, "git_revision", revision)
        core._process_git_revision.cache_clear()
        try:
            store.append_run(RECORDS, source="test", run_id="a")
            store.append_run(RECORDS, source="test", run_id="b")
        finally:
            core._process_git_revision.cache_clear()
        assert len(calls) == 1
        assert [run.git_rev for run in store.runs()] == ["f" * 40] * 2


class TestConcurrency:
    def test_two_threads_append_without_torn_records(self, tmp_path):
        """Two appenders race on one directory; every segment stays whole."""
        root = tmp_path / "store"
        runs_per_thread = 20

        def append(worker: int) -> None:
            handle = ResultStore(root)
            for i in range(runs_per_thread):
                handle.append_run(
                    [{"experiment": "sweep", "worker": worker, "i": i, "x": i * 0.5}],
                    source="test",
                    run_id=f"w{worker}-{i}",
                )

        threads = [threading.Thread(target=append, args=(w,)) for w in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        store = ResultStore(root)
        assert store.run_count() == 2 * runs_per_thread
        # Every segment parses and is internally consistent -- no torn writes.
        for path in root.glob("runs/*/*.json"):
            segment = json.loads(path.read_text())
            assert segment["schema"] == STORE_SCHEMA
            assert len(segment["records"]) == segment["run"]["record_count"]
        assert len(store.records()) == 2 * runs_per_thread

    def test_two_threads_racing_on_the_same_payload_store_one_run(self, tmp_path):
        root = tmp_path / "store"
        records = [{"experiment": "sweep", "x": 1.0}]
        barrier = threading.Barrier(2)

        def append() -> None:
            handle = ResultStore(root)
            barrier.wait()
            handle.append_run(records, source="test", run_id="same")

        threads = [threading.Thread(target=append) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert ResultStore(root).run_count() == 1


class TestFrame:
    def test_numeric_maps_missing_and_non_numeric_to_nan(self):
        frame = Frame([{"x": 1}, {"x": None}, {"y": 2}, {"x": "word"}, {"x": True}])
        x = frame.numeric("x")
        assert x[0] == 1.0 and x[4] == 1.0
        assert np.isnan(x[1]) and np.isnan(x[2]) and np.isnan(x[3])
        assert frame.columns == ("x", "y")

    def test_where_and_sorted_by(self):
        frame = Frame(
            [
                {"kernel": "fft", "t": 3.0},
                {"kernel": "matmul", "t": 2.0},
                {"kernel": "matmul", "t": 1.0},
            ]
        )
        matmul = frame.where(kernel="matmul")
        assert len(matmul) == 2
        ordered = matmul.sorted_by("t")
        assert [r["t"] for r in ordered.records()] == [1.0, 2.0]

    def test_mask_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="mask"):
            Frame([{"x": 1}]).mask(np.ones(3, dtype=bool))


class TestGitRevision:
    def test_resolves_loose_ref(self, tmp_path):
        git = tmp_path / ".git"
        (git / "refs" / "heads").mkdir(parents=True)
        (git / "HEAD").write_text("ref: refs/heads/main\n")
        (git / "refs" / "heads" / "main").write_text("a" * 40 + "\n")
        assert git_revision(tmp_path) == "a" * 40

    def test_resolves_packed_ref_and_detached_head(self, tmp_path):
        git = tmp_path / ".git"
        git.mkdir()
        (git / "HEAD").write_text("ref: refs/heads/main\n")
        (git / "packed-refs").write_text(
            "# pack-refs with: peeled\n" + "b" * 40 + " refs/heads/main\n"
        )
        assert git_revision(tmp_path) == "b" * 40
        (git / "HEAD").write_text("c" * 40 + "\n")
        assert git_revision(tmp_path) == "c" * 40

    def test_no_repository_is_none(self, tmp_path):
        # tmp_path has no .git anywhere up to /tmp.
        assert git_revision(tmp_path) is None
