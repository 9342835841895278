"""Tests for the append-only, content-addressed result store."""

from __future__ import annotations

import fcntl
import json
import multiprocessing
import os
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.faults.injector import FaultInjector, install, uninstall
from repro.store import core
from repro.store.core import (
    RESERVED_RUN_COLUMNS,
    STORE_SCHEMA,
    Frame,
    ResultStore,
    git_revision,
    manifest_drift,
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
        records = store.select()
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
        records = store.select()
        assert [record["run_key"] for record in records] == [a.run_key] * 2 + [b.run_key] * 2
        assert records[0]["ingested_at"] <= records[-1]["ingested_at"]

    def test_run_records_by_key(self, store):
        receipt = store.append_run(RECORDS, source="test", run_id="one")
        store.append_run(RECORDS, source="test", run_id="other")
        records = store.select(run_id="one")
        assert [record["run_key"] for record in records] == [receipt.run_key] * 2
        assert store.select(run_id="missing") == []

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
        record = store.select()[0]
        assert record["n"] == 3 and record["x"] == 1.5 and record["b"] is True
        # The segment is plain JSON.
        segment = json.loads(next(store.root.glob("runs/*/*.json")).read_text())
        assert segment["schema"] == STORE_SCHEMA

    def test_clear_removes_every_segment(self, store):
        store.append_run(RECORDS, source="test", run_id="a")
        store.append_run(RECORDS, source="test", run_id="b")
        segments = sum(path.stat().st_size for path in store.root.glob("runs/*/*.json"))
        assert store.disk_usage_bytes() == segments + store.manifest.stat().st_size
        assert store.clear() == 2
        assert not store.manifest.exists()
        assert store.run_count() == 0 and store.select() == []
        assert store.disk_usage_bytes() == 0

    def test_corrupt_segment_is_skipped_on_read(self, store):
        store.append_run(RECORDS, source="test", run_id="good")
        bad = store.append_run(RECORDS, source="test", run_id="bad")
        path = store.root / "runs" / bad.run_key[:2] / f"{bad.run_key}.json"
        path.write_text("{ not json")
        records = store.select()
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
        assert [record["run_id"] for record in store.select()] == ["good"]
        assert _run_keys(store) == [good.run_key]

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
        assert store.run_count() == 2
        assert {record["git_rev"] for record in store.select()} == {"f" * 40}


def _run_keys(handle: ResultStore) -> list[str]:
    """The run key of each run the handle's records come from, oldest first."""
    return list(dict.fromkeys(record["run_key"] for record in handle.select()))


def _segment(store: ResultStore, run_key: str):
    return store.root / "runs" / run_key[:2] / f"{run_key}.json"


def _manifest_keys(store: ResultStore) -> list[str]:
    return [json.loads(line)["run"]["run_key"] for line in store.manifest.read_bytes().splitlines()]


def _manifest_keys_of_whole_lines(store: ResultStore) -> list[str]:
    keys = []
    for line in store.manifest.read_bytes().splitlines():
        try:
            keys.append(json.loads(line)["run"]["run_key"])
        except ValueError:
            continue
    return keys


class TestManifest:
    """The manifest and each handle's index, against the segments they describe."""

    def test_each_append_adds_one_line_with_the_value_sets(self, store):
        receipt = store.append_run(RECORDS, source="test", suite="s")
        (line,) = [json.loads(raw) for raw in store.manifest.read_bytes().splitlines()]
        assert line["run"]["run_key"] == receipt.run_key and line["run"]["suite"] == "s"
        assert line["kernel"] == ["matmul"] and line["experiment"] == ["sweep", "fit"]
        assert line["scenario"] == []
        assert line["bytes"] == _segment(store, receipt.run_key).stat().st_size
        store.append_run(RECORDS, source="test")  # a dedup adds no line
        assert len(_manifest_keys(store)) == 1

    def test_torn_manifest_append_is_rebuilt_at_the_next_open(self, store):
        install(FaultInjector.from_spec("manifest-torn-write:count=1", seed=3))
        try:
            torn = store.append_run(RECORDS, source="test", run_id="torn")
        finally:
            uninstall()
        assert not store.manifest.read_bytes().endswith(b"\n")
        # The next append terminates the torn line before it writes its own.
        whole = store.append_run(RECORDS[:1], source="test", run_id="whole")
        drift = manifest_drift(store.root)
        assert drift["torn_lines"] == 1 and drift["segments_without_lines"] == 1
        assert _manifest_keys_of_whole_lines(store) == [whole.run_key]
        reopened = ResultStore(store.root)
        assert set(_run_keys(reopened)) == {torn.run_key, whole.run_key}
        assert len(reopened) == 3
        # The rebuild parsed the one segment without a whole line, and
        # compacted the torn line away.
        assert reopened.stats.segments_read == 1 + 2
        assert sorted(_manifest_keys(reopened)) == sorted([torn.run_key, whole.run_key])
        assert set(manifest_drift(store.root).values()) == {0, 2}

    def test_segment_without_a_line_is_found_at_open(self, store):
        first = store.append_run(RECORDS, source="test", run_id="a")
        second = store.append_run(RECORDS, source="test", run_id="b")
        # A crash between the segment write and the manifest append.
        lines = store.manifest.read_bytes().splitlines(keepends=True)
        store.manifest.write_bytes(lines[0])
        assert manifest_drift(store.root)["segments_without_lines"] == 1
        reopened = ResultStore(store.root)
        assert reopened.run_count() == 2 and reopened.stats.segments_read == 1
        assert _manifest_keys(reopened) == [first.run_key, second.run_key]
        # A store written before the manifest existed: every segment is found.
        store.manifest.unlink()
        reopened = ResultStore(store.root)
        assert len(reopened) == 4 and reopened.stats.segments_read == 2
        assert sorted(_manifest_keys(reopened)) == sorted([first.run_key, second.run_key])
        # Once indexed, a fresh handle parses no segment to build its index.
        fresh = ResultStore(store.root)
        assert fresh.run_count() == 2 and fresh.stats.segments_read == 0

    def test_deleted_segment_line_is_dropped_and_the_manifest_does_not_grow(self, store):
        kept = store.append_run(RECORDS, source="test", run_id="kept")
        sizes = []
        for index in range(5):
            receipt = store.append_run(RECORDS, source="test", run_id=f"op-{index}")
            _segment(store, receipt.run_key).unlink()
            handle = ResultStore(store.root)
            assert _run_keys(handle) == [kept.run_key]
            sizes.append(store.manifest.stat().st_size)
        assert _manifest_keys(store) == [kept.run_key]
        assert len(set(sizes)) == 1

    def test_two_handles_see_each_others_appends_after_a_query(self, tmp_path):
        first = ResultStore(tmp_path / "store")
        second = ResultStore(tmp_path / "store")
        assert query(first, kernel="matmul") == [] and query(second) == []
        a = first.append_run(RECORDS, source="test", run_id="a")
        assert [r["run_key"] for r in query(second, kernel="matmul")] == [a.run_key] * 2
        b = second.append_run(RECORDS, source="test", run_id="b")
        for handle in (first, second):
            assert handle.run_count() == 2 and len(handle) == 4
            assert _run_keys(handle) == [a.run_key, b.run_key]

    def test_a_replaced_manifest_makes_a_live_handle_rebuild(self, store):
        a = store.append_run(RECORDS, source="test", run_id="a")
        assert store.run_count() == 1
        # Another process clears the store and records a different run.
        other = ResultStore(store.root)
        other.clear()
        b = other.append_run(RECORDS[:1], source="test", run_id="b")
        assert _run_keys(store) == [b.run_key]
        assert not _segment(store, a.run_key).exists() and len(store) == 1

    def test_a_manifest_replaced_at_the_same_inode_size_and_mtime_makes_a_live_handle_rebuild(
        self, store
    ):
        # A replacing file can reuse a freed inode number, happen to have the
        # old size and, on a file system with coarse timestamps, the old
        # mtime; only its content tells it apart.
        a = store.append_run(RECORDS, source="test", run_id="a-longer-run-id")
        for _ in range(2):  # built, then brought up to date
            assert _run_keys(store) == [a.run_key]
        old = store.manifest.read_bytes()
        stat = store.manifest.stat()
        other = ResultStore(store.root)
        b = other.append_run(RECORDS, source="test", run_id="b")
        _segment(store, a.run_key).unlink()
        line = store.manifest.read_bytes().splitlines()[1]
        assert b.run_key.encode() in line and len(line) < len(old)
        with open(store.manifest, "r+b") as handle:  # same inode
            handle.write(line[:-1] + b" " * (len(old) - len(line) - 1) + b"}\n")
            handle.truncate()
        os.utime(store.manifest, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        replaced = store.manifest.stat()
        assert (replaced.st_ino, replaced.st_size, replaced.st_mtime_ns) == (
            stat.st_ino, stat.st_size, stat.st_mtime_ns
        )
        assert _run_keys(store) == [b.run_key]

    def test_an_append_racing_a_compaction_waits_for_it_and_is_seen(self, store, monkeypatch):
        store.append_run(RECORDS, source="test", run_id="kept")
        doomed = store.append_run(RECORDS, source="test", run_id="doomed")
        _segment(store, doomed.run_key).unlink()
        other = ResultStore(store.root)
        racers: list[threading.Thread] = []
        rewrite = core._atomic_write

        def rewrite_while_another_handle_appends(path, data):
            if path == store.manifest and not racers:
                racers.append(
                    threading.Thread(
                        target=other.append_run,
                        args=(RECORDS[:1],),
                        kwargs={"source": "test", "run_id": "racer"},
                    )
                )
                racers[0].start()
                # The compaction holds the manifest lock, so the racer's
                # append waits instead of landing in the file being replaced.
                racers[0].join(0.2)
            return rewrite(path, data)

        monkeypatch.setattr(core, "_atomic_write", rewrite_while_another_handle_appends)
        compacting = ResultStore(store.root)
        assert compacting.run_count() == 1
        racers[0].join(10)
        assert not racers[0].is_alive()
        assert [record["run_id"] for record in compacting.select()] == ["kept"] * 2 + ["racer"]

    def test_long_scenarios_share_a_signature_and_still_filter_exactly(self, store):
        for run_id, scenario in (
            ("a", "task:BlockedMatrixMultiply@M=233"),
            ("b", "task:BlockedMatrixMultiply@M=302"),
            ("c", "task:StreamingTriangularSolve@M=7"),
        ):
            store.append_run(
                [{"experiment": "span", "scenario": scenario}], source="test", run_id=run_id
            )
        assert [r["run_id"] for r in query(store, scenario="task:BlockedMatrixMultiply@M=3")] == [
            "b"
        ]
        assert [r["run_id"] for r in query(store, scenario="task:Blocked")] == ["a", "b"]
        assert len(store._groups) == 2  # a and b differ only past the indexed prefix
        read = store.stats.segments_read
        # Past the indexed prefix the index over-approximates and the
        # record filter decides; within it, it excludes exactly.
        assert query(store, scenario="task:StreamingTriangularSolve@M=8") == []
        assert store.stats.segments_read == read + 1
        assert query(store, scenario="task:Streaming-no-such") == []
        assert store.stats.segments_read == read + 1

    @pytest.mark.parametrize("runs", [40, 2000])
    def test_nothing_matches_reads_no_segment_on_a_live_handle(self, store, runs):
        kernels = ("fft", "matmul", "lu", "qr")
        holding_fft = set()
        for index in range(runs):
            kernel = kernels[index % len(kernels)]
            receipt = store.append_run(
                [{"experiment": "sweep", "kernel": kernel, "x": index}],
                source="test",
                run_id=f"run-{index}",
            )
            if kernel == "fft":
                holding_fft.add(receipt.run_key)
        assert store.run_count() == runs
        assert store.stats.segments_read == 0
        assert query(store, kernel="no-such-kernel") == []
        assert query(store, scenario="no-such-") == []
        assert query(store, suite="no-such-suite") == []
        assert store.stats.segments_read == 0
        rows = query(store, kernel="fft")
        assert {row["run_key"] for row in rows} == holding_fft
        assert store.stats.segments_read == len(holding_fft)


def _exact(rows) -> str:
    """Rows as JSON text: equal only with the same values of the same types
    (``1``, ``1.0`` and ``True`` compare equal as Python values), keys in
    the same order."""
    return json.dumps(rows)


# Records from small pools, so runs share columns, values and run keys, with
# values that compare equal across types; column order varies with the draw.
_CELL = st.sampled_from([0, 1, 1.0, True, 0.0, -0.0, 2.5, "x", None])
_COLUMNS = {
    "experiment": st.sampled_from(["sweep", "fit"]),
    "kernel": st.sampled_from(["fft", "matmul", 1, True]),
    "scenario": st.sampled_from(["qr-small", "qr-large", "task:BlockedMatrixMultiply@M=23"]),
    "x": _CELL,
    "y": _CELL,
}
_RECORD = st.lists(
    st.sampled_from(sorted(_COLUMNS)).flatmap(lambda c: st.tuples(st.just(c), _COLUMNS[c])),
    max_size=4,
).map(dict)
_FILTERS = st.fixed_dictionaries(
    {
        "experiment": st.sampled_from([None, "sweep", "fit"]),
        "kernel": st.sampled_from([None, "fft", "matmul", "no-such"]),
        "scenario": st.sampled_from([None, "qr", "qr-small", "task:BlockedMatrixMultiply@M=2"]),
        "suite": st.sampled_from([None, "s", "t"]),
        "run_id": st.sampled_from([None, "a", "b"]),
    }
)
_STEP = st.one_of(
    st.tuples(
        st.just("append"),
        st.lists(_RECORD, min_size=1, max_size=5),
        st.sampled_from(["a", "b", "c"]),
        st.sampled_from([None, "s", "t"]),
        st.booleans(),  # through another handle
    ),
    st.tuples(st.just("query"), _FILTERS),
    st.tuples(st.just("delete"), st.integers(0, 7)),
    st.tuples(st.just("garbage"), st.integers(0, 7), st.binary(max_size=40)),
    st.tuples(st.just("non-object"), st.integers(0, 7)),
    st.tuples(st.just("clear")),
    st.tuples(st.just("replace"), st.lists(_RECORD, min_size=1, max_size=3)),
)


def _segment_files(root: Path) -> list[Path]:
    return sorted(root.glob("runs/*/*.json"))


class TestSegmentCache:
    """Each handle's parsed segments, against what a fresh handle reads."""

    @settings(max_examples=60, deadline=None)
    @given(steps=st.lists(_STEP, min_size=1, max_size=14))
    def test_a_live_handle_reads_what_a_fresh_handle_reads(self, steps):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            live = ResultStore(root)
            for step in steps:
                kind, args = step[0], step[1:]
                files = _segment_files(root)
                filters = {}
                if kind == "append":
                    records, run_id, suite, other = args
                    handle = ResultStore(root) if other else live
                    handle.append_run(records, source="test", run_id=run_id, suite=suite)
                elif kind == "query":
                    (filters,) = args
                elif kind in ("delete", "garbage", "non-object") and files:
                    path = files[args[0] % len(files)]
                    if kind == "delete":
                        path.unlink()
                    elif kind == "garbage":
                        # Shorter than any segment, so never the same size.
                        path.write_bytes(args[1])
                    else:
                        try:
                            segment = json.loads(path.read_bytes())
                            segment["records"].append(7)
                        except (ValueError, KeyError, TypeError, AttributeError):
                            continue  # garbage already
                        path.write_text(json.dumps(segment))
                elif kind == "clear":
                    live.clear()
                elif kind == "replace":
                    # Another handle replaces the manifest and records the
                    # same run key again, with another ingest time.
                    other = ResultStore(root)
                    other.clear()
                    other.append_run(args[0], source="test", run_id="a")
                for query_filters in ({}, filters):
                    cached = live.select(**query_filters)
                    assert _exact(cached) == _exact(ResultStore(root).select(**query_filters))
                assert live.run_count() == ResultStore(root).run_count()
                assert live._cached_bytes == sum(
                    segment.identity[1] for segment in live._cache.values()
                )

    def test_a_repeated_query_parses_no_segment(self, store):
        for index, kernel in enumerate(("fft", "matmul", "fft")):
            store.append_run(
                [{"experiment": "sweep", "kernel": kernel, "x": index}],
                source="test",
                run_id=f"run-{index}",
            )
        first = query(store, kernel="fft")
        assert store.stats.segments_read == 2 and store.stats.segments_cached == 0
        again = query(store, kernel="fft")
        assert again == first and len(again) == 2
        assert store.stats.segments_read == 2 and store.stats.segments_cached == 2
        # Every call returns fresh dicts: the cache holds no caller's row.
        again[0]["x"] = "edited"
        assert query(store, kernel="fft") == first
        assert store.select(run_id=again[0]["run_id"]) == first[:1]
        assert store.stats.segments_read == 2

    def test_values_that_compare_equal_keep_their_types(self, store):
        # Shared values must be the same value: 1, 1.0 and True compare
        # equal, and so do 0.0 and -0.0.
        runs = [
            [{"a": 1, "b": True, "c": 1.0, "d": 0.0, "e": -0.0}],
            [{"a": True, "b": 1.0, "c": 1, "d": -0.0, "e": 0.0}],
        ]
        for index, records in enumerate(runs):
            store.append_run(records, source="test", run_id=f"r{index}")
        columns = ("a", "b", "c", "d", "e")
        for _ in range(2):  # parsed, then from memory
            rows = [{c: row[c] for c in columns} for row in store.select()]
            assert _exact(rows) == _exact([records[0] for records in runs])

    def test_a_vanished_segment_is_not_counted_as_read(self, store):
        receipt = store.append_run(RECORDS, source="test", run_id="a")
        store.run_count()
        _segment(store, receipt.run_key).unlink()
        assert store.select() == []
        assert store.stats.segments_read == 0

    def test_past_the_budget_the_least_recently_used_segments_leave(self, store, monkeypatch):
        keys = [
            store.append_run([{"kernel": "fft", "x": index}], source="test", run_id=f"r{index}")
            .run_key
            for index in range(5)
        ]
        sizes = {key: _segment(store, key).stat().st_size for key in keys}
        # Room for any three of them, never four.
        budget = 3 * max(sizes.values()) + min(sizes.values()) // 2
        monkeypatch.setattr(core, "SEGMENT_CACHE_BYTES", budget)
        for index in range(5):
            store.select(run_id=f"r{index}")
            assert store._cached_bytes <= budget
        assert list(store._cache) == keys[2:]
        store.select(run_id="r2")  # now the most recently used
        store.select(run_id="r0")  # parsed again, evicting keys[3]
        assert list(store._cache) == [keys[4], keys[2], keys[0]]
        assert store._cached_bytes == sum(sizes[key] for key in store._cache)
        assert store.stats.segments_read == 6 and store.stats.segments_cached == 1
        # A segment larger than the whole budget is read but never kept.
        monkeypatch.setattr(core, "SEGMENT_CACHE_BYTES", min(sizes.values()) - 1)
        store.select(run_id="r1")
        assert store.select(run_id="r1")[0]["x"] == 1
        assert keys[1] not in store._cache and store.stats.segments_read == 8

    def test_an_index_rebuild_drops_segments_that_left_it(self, store):
        gone = store.append_run(RECORDS, source="test", run_id="gone")
        kept = store.append_run(RECORDS, source="test", run_id="kept")
        assert len(store.select()) == 4 and set(store._cache) == {gone.run_key, kept.run_key}
        # Another process deletes a segment and compacts its line away.
        _segment(store, gone.run_key).unlink()
        assert ResultStore(store.root).run_count() == 1
        assert store.run_count() == 1
        assert set(store._cache) == {kept.run_key}
        read = store.stats.segments_read
        assert [row["run_id"] for row in store.select()] == ["kept", "kept"]
        assert store.stats.segments_read == read
        # Cleared and the same run recorded again: same key, another ingest.
        other = ResultStore(store.root)
        other.clear()
        again = other.append_run(RECORDS, source="test", run_id="kept")
        assert again.run_key == kept.run_key
        (ingested_at,) = {row["ingested_at"] for row in ResultStore(store.root).select()}
        assert store.run_count() == 1 and kept.run_key not in store._cache
        assert {row["ingested_at"] for row in store.select()} == {ingested_at}


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
        assert len(store.select()) == 2 * runs_per_thread

    def test_compactions_racing_appends_lose_no_manifest_line(self, tmp_path):
        """Appenders race handles whose first read compacts the manifest."""
        root = tmp_path / "store"
        errors: list[BaseException] = []
        appended: set[str] = set()
        compacted: list[ResultStore] = []

        def append(worker: int) -> None:
            handle = ResultStore(root)
            for i in range(30):
                receipt = handle.append_run(
                    [{"experiment": "sweep", "worker": worker, "i": i}],
                    source="test",
                    run_id=f"w{worker}-{i}",
                )
                appended.add(receipt.run_key)

        def compact(worker: int) -> None:
            # Each round deletes a segment, so the fresh handle's first read
            # drops its line by rewriting the manifest.  The handle stays
            # live: a line lost to its rewrite would hide a run from it.
            for i in range(15):
                doomed = ResultStore(root).append_run(
                    [{"doomed": i}], source="test", run_id=f"doomed-{worker}-{i}"
                )
                _segment(ResultStore(root), doomed.run_key).unlink()
                handle = ResultStore(root)
                handle.run_count()
                compacted.append(handle)

        def guarded(target, worker: int) -> None:
            try:
                target(worker)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=guarded, args=(append, w)) for w in range(3)]
            threads += [threading.Thread(target=guarded, args=(compact, w)) for w in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == [] and len(appended) == 90
        for handle in compacted:
            assert appended <= set(_run_keys(handle))
        drift = manifest_drift(root)
        assert drift == {
            "manifest_lines": 90,
            "segments_without_lines": 0,
            "lines_without_segments": 0,
            "torn_lines": 0,
        }
        fresh = ResultStore(root)
        assert fresh.run_count() == 90 and fresh.stats.segments_read == 0

    def test_a_child_forked_under_the_manifest_lock_does_not_keep_it(self, tmp_path):
        """A task pool forked while another thread appends inherits the locked
        descriptor; once the appender is done the lock must be free."""
        manifest = tmp_path / "manifest.jsonl"
        with core._locked(manifest):
            child = multiprocessing.get_context("fork").Process(target=time.sleep, args=(30,))
            child.start()
        try:
            fd = os.open(manifest, os.O_RDWR)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)  # BlockingIOError if held
            finally:
                os.close(fd)
        finally:
            child.kill()
            child.join(timeout=10)
        assert not child.is_alive()

    def test_queries_racing_appends_keep_the_segment_cache_whole(self, tmp_path, monkeypatch):
        """Query threads share one handle's cache with its appender, under a
        budget small enough that they evict each other's segments."""
        store = ResultStore(tmp_path / "store")
        for i in range(6):
            store.append_run([{"kernel": "fft", "x": i}], source="test", run_id=f"seed-{i}")
        size = max(path.stat().st_size for path in store.root.glob("runs/*/*.json"))
        monkeypatch.setattr(core, "SEGMENT_CACHE_BYTES", 4 * size)
        served: list[int] = []  # segments each query read, one per run key
        errors: list[BaseException] = []

        def query_loop() -> None:
            for _ in range(40):
                rows = store.select(kernel="fft")
                served.append(len({row["run_key"] for row in rows}))

        def append_loop() -> None:
            for i in range(20):
                store.append_run([{"kernel": "fft", "x": i}], source="test", run_id=f"w-{i}")

        def guarded(target) -> None:
            try:
                target()
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=guarded, args=(query_loop,)) for _ in range(3)]
            threads.append(threading.Thread(target=guarded, args=(append_loop,)))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == [] and len(served) == 120
        # A lost update would break the counters or the byte total.
        assert sum(served) == store.stats.segments_read + store.stats.segments_cached
        assert store._cached_bytes == sum(s.identity[1] for s in store._cache.values())
        assert store._cached_bytes <= core.SEGMENT_CACHE_BYTES
        assert _exact(store.select()) == _exact(ResultStore(store.root).select())

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
