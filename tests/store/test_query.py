"""Tests for the store query/report layer."""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.store import (
    ResultStore,
    group_counts,
    query,
    records_table,
    report,
    report_document,
)
from repro.store.core import STORE_SCHEMA
from repro.store.query import REPORT_SCHEMA


@pytest.fixture
def store(tmp_path) -> ResultStore:
    store = ResultStore(tmp_path / "store")
    store.append_run(
        [
            {"experiment": "sweep", "scenario": "qr-small", "kernel": "qr", "x": 1},
            {"experiment": "sweep", "scenario": "qr-large", "kernel": "qr", "x": 2},
            {"experiment": "fit", "scenario": "qr-small", "kernel": "qr"},
        ],
        source="test",
        run_id="run-1",
        suite="quick",
    )
    store.append_run(
        [
            {"experiment": "sweep", "scenario": "fft", "kernel": "fft", "x": 3},
        ],
        source="test",
        run_id="run-2",
    )
    return store


class TestQuery:
    def test_no_filters_returns_everything_oldest_first(self, store):
        records = query(store)
        assert len(records) == 4
        assert [r["run_id"] for r in records] == ["run-1"] * 3 + ["run-2"]

    def test_exact_filters(self, store):
        assert len(query(store, experiment="sweep")) == 3
        assert len(query(store, kernel="fft")) == 1
        assert len(query(store, suite="quick")) == 3
        assert len(query(store, run_id="run-2")) == 1
        assert query(store, kernel="lu") == []

    def test_scenario_matches_exact_or_prefix(self, store):
        assert len(query(store, scenario="qr-small")) == 2
        assert len(query(store, scenario="qr-")) == 3
        assert query(store, scenario="nothing") == []

    def test_filters_compose(self, store):
        records = query(store, experiment="sweep", scenario="qr-")
        assert [r["x"] for r in records] == [1, 2]


class TestReport:
    def test_limit_keeps_the_last_matches(self, store):
        records = report(store, limit=2)["records"]
        assert [r["experiment"] for r in records] == ["fit", "sweep"]
        assert report(store, limit=0)["records"] == []
        with pytest.raises(ConfigurationError, match="non-negative"):
            report(store, limit=-1)

    def test_groups_before_the_limit(self, store):
        document = report(store, kernel="qr", group="experiment", limit=1)
        assert document["records"] == [{"experiment": "fit", "records": 1}]
        assert document["filters"] == {"kernel": "qr", "group": "experiment", "limit": 1}

    def test_no_store_reports_zero_records(self):
        document = report(None, experiment="sweep")
        assert document["count"] == 0 and document["records"] == []
        with pytest.raises(ConfigurationError, match="non-negative"):
            report(None, limit=-1)


class TestGroupCounts:
    def test_largest_group_first(self, store):
        counts = group_counts(query(store))
        assert counts[0] == {"experiment": "sweep", "records": 3}
        assert counts[1] == {"experiment": "fit", "records": 1}

    def test_group_by_any_column(self, store):
        counts = group_counts(query(store), by="kernel")
        assert {c["kernel"]: c["records"] for c in counts} == {"qr": 3, "fft": 1}


class TestRecordsTable:
    def test_auto_columns_lead_with_identity_and_skip_digests(self, store):
        table = records_table(query(store))
        assert list(table.columns[:5]) == [
            "run_id", "suite", "experiment", "scenario", "kernel",
        ]
        assert "run_key" not in table.columns
        assert "git_rev" not in table.columns
        assert "x" in table.columns
        assert "qr-small" in table.render_ascii()

    def test_explicit_columns_win(self, store):
        table = records_table(query(store), columns=("kernel", "x"), title="t")
        assert list(table.columns) == ["kernel", "x"]
        assert table.title == "t"

    def test_empty_batch_renders(self):
        assert list(records_table([]).columns) == ["experiment"]


class TestReportDocument:
    def test_envelope(self, store):
        records = query(store, experiment="sweep")
        document = report_document(
            records,
            transform=None,
            filters={"experiment": "sweep", "kernel": None},
        )
        assert document["schema"] == REPORT_SCHEMA
        assert document["count"] == 3
        assert len(document["records"]) == 3
        assert document["filters"] == {"experiment": "sweep"}  # Nones dropped
        assert "transform" not in document

    def test_transform_named_when_given(self):
        document = report_document([], transform="regressions")
        assert document["transform"] == "regressions"
        assert document["count"] == 0


# ---------------------------------------------------------------------------
# query() and report() against a merge-then-filter reference.
# ---------------------------------------------------------------------------


def _reference_segments(root: Path) -> list[dict]:
    """Every segment, parsed up front and sorted oldest ingest first."""
    segments = [json.loads(path.read_text()) for path in root.glob("runs/*/*.json")]
    segments.sort(key=lambda seg: (seg["run"]["ingested_at"], seg["run"]["run_key"]))
    return segments


def _reference_records(root: Path) -> list[dict]:
    """Every record with its run metadata merged over it."""
    merged = []
    for segment in _reference_segments(root):
        for record in segment["records"]:
            row = dict(record)
            row.update(segment["run"])
            del row["record_count"]
            merged.append(row)
    return merged


def _reference_query(root: Path, *, experiment=None, scenario=None, kernel=None,
                     suite=None, run_id=None, limit=None) -> list[dict]:
    """Merge every record, then filter the merged rows."""
    matched = []
    for record in _reference_records(root):
        if experiment is not None and record.get("experiment") != experiment:
            continue
        if kernel is not None and record.get("kernel") != kernel:
            continue
        if suite is not None and record.get("suite") != suite:
            continue
        if run_id is not None and record.get("run_id") != run_id:
            continue
        if scenario is not None:
            value = record.get("scenario")
            if not isinstance(value, str) or not (
                value == scenario or value.startswith(scenario)
            ):
                continue
        matched.append(record)
    if limit is not None:
        matched = matched[len(matched) - min(limit, len(matched)):]
    return matched


# Records carry their own ``suite`` and ``run_id`` columns (as a segment
# written by hand or by another tool may), which run metadata overrides.
_RECORDS = st.lists(
    st.fixed_dictionaries(
        {"x": st.integers(0, 9)},
        optional={
            "experiment": st.sampled_from(["sweep", "fit", "span"]),
            "kernel": st.sampled_from(["fft", "qr", None]),
            "scenario": st.sampled_from(["qr-small", "qr-large", "fft", "q", 7]),
            "suite": st.sampled_from(["quick", "full"]),
            "run_id": st.sampled_from(["run-a", "run-b"]),
        },
    ),
    max_size=5,
)
_RUNS = st.lists(
    st.tuples(
        st.sampled_from(["run-a", "run-b", "run-c"]),
        st.sampled_from([None, "quick", "full"]),
        st.sampled_from([1.0, 2.0, 3.0]),  # ties fall back to the run key
        _RECORDS,
    ),
    max_size=6,
)
_FILTERS = st.fixed_dictionaries(
    {
        "experiment": st.sampled_from([None, "sweep", "fit"]),
        "kernel": st.sampled_from([None, "fft", "qr"]),
        "scenario": st.sampled_from([None, "", "q", "qr-", "qr-small", "f"]),
        "suite": st.sampled_from([None, "quick", "full"]),
        "run_id": st.sampled_from([None, "run-a", "run-b"]),
    }
)
_LIMITS = st.sampled_from([None, 0, 1, 3, 100])


def _write_store(root: Path, runs) -> None:
    for index, (run_id, suite, ingested_at, records) in enumerate(runs):
        run_key = hashlib.sha256(str(index).encode()).hexdigest()
        path = root / "runs" / run_key[:2] / f"{run_key}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        segment = {
            "schema": STORE_SCHEMA,
            "run": {
                "run_key": run_key,
                "run_id": run_id,
                "source": "test",
                "source_schema": None,
                "suite": suite,
                "trace_id": None,
                "git_rev": None,
                "ingested_at": ingested_at,
                "record_count": len(records),
            },
            "records": records,
        }
        path.write_text(json.dumps(segment))


class TestQueryMatchesMergeThenFilter:
    @settings(max_examples=80, deadline=None)
    @given(runs=_RUNS, filters=_FILTERS, limit=_LIMITS)
    def test_same_records_in_the_same_order(self, runs, filters, limit):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            _write_store(root, runs)
            store = ResultStore(root)
            assert query(store, **filters) == _reference_query(root, **filters)
            assert report(store, **filters, limit=limit)["records"] == _reference_query(
                root, **filters, limit=limit
            )

    @settings(max_examples=40, deadline=None)
    @given(runs=_RUNS)
    def test_records_and_runs_are_unchanged(self, runs):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            _write_store(root, runs)
            store = ResultStore(root)
            assert store.select() == _reference_records(root)
            assert store.run_count() == len(_reference_segments(root))
            assert len(store) == sum(len(records) for *_, records in runs)
