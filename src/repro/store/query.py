"""Query and report views over the result store.

``query()`` filters the store's records.  ``report()`` is the one pipeline
behind the ``repro report`` CLI and the service's ``GET /results``
endpoint: it filters, transforms, groups and keeps the last ``limit``
records, and returns the JSON report document.  ``records_table`` renders
any record batch through :class:`repro.analysis.report.Table` so store
output looks like every other report in the repo.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.analysis.report import Table
from repro.analysis.transforms import apply_transform
from repro.exceptions import ConfigurationError
from repro.store.core import ResultStore

__all__ = ["query", "report", "group_counts", "records_table", "report_document"]

REPORT_SCHEMA = "repro-report/v1"

# Identity columns shown first when a table picks its own column order.
_PRIORITY_COLUMNS = ("run_id", "suite", "experiment", "scenario", "kernel")
# Wide digest columns elided from auto-selected table layouts.
_NOISY_COLUMNS = (
    "run_key",
    "key",
    "point_key",
    "task_key",
    "source_schema",
    "trace_id",
    "git_rev",
)


def query(
    store: ResultStore,
    *,
    experiment: str | None = None,
    scenario: str | None = None,
    kernel: str | None = None,
    suite: str | None = None,
    run_id: str | None = None,
) -> list[dict[str, Any]]:
    """Merged store records matching every given filter, oldest run first.

    ``scenario`` matches exactly or as a prefix (so ``--scenario qr`` finds
    ``qr-small`` and ``qr-large``); the other filters are exact.  The store
    reads only the segments the filters can match, and parses only those
    its handle does not already hold
    (:meth:`~repro.store.core.ResultStore.select`).
    """
    return store.select(
        experiment=experiment,
        scenario=scenario,
        kernel=kernel,
        suite=suite,
        run_id=run_id,
    )


def report(
    store: ResultStore | None,
    *,
    experiment: str | None = None,
    scenario: str | None = None,
    kernel: str | None = None,
    suite: str | None = None,
    run_id: str | None = None,
    transform: str | None = None,
    group: str | None = None,
    limit: int | None = None,
) -> dict[str, Any]:
    """The report document over recorded results, as :func:`report_document`.

    The filters (see :func:`query`) narrow the raw records *before* an
    optional named transform runs, since transforms like ``speedup-trend``
    need the full cross-run history of whatever matched.  ``group`` then
    collapses the rows to counts per value of that column, and ``limit``
    keeps the *last* ``limit`` rows, since recent runs are the usual
    question.  No store (an uncached service) reports zero records.
    """
    if limit is not None and limit < 0:
        raise ConfigurationError(f"limit must be non-negative, got {limit!r}")
    filters = {
        "experiment": experiment,
        "scenario": scenario,
        "kernel": kernel,
        "suite": suite,
        "run_id": run_id,
    }
    records = [] if store is None else query(store, **filters)
    if transform:
        records = apply_transform(transform, records)
    if group:
        records = group_counts(records, group)
    if limit is not None:
        records = records[len(records) - min(limit, len(records)) :]
    return report_document(
        records, transform=transform, filters={**filters, "group": group, "limit": limit}
    )


def group_counts(
    records: Sequence[Mapping[str, Any]], by: str = "experiment"
) -> list[dict[str, Any]]:
    """Record counts grouped by one column, largest group first."""
    counts: dict[Any, int] = {}
    for record in records:
        counts[record.get(by, "")] = counts.get(record.get(by, ""), 0) + 1
    return [
        {by: group, "records": count}
        for group, count in sorted(counts.items(), key=lambda kv: (-kv[1], str(kv[0])))
    ]


def _auto_columns(records: Sequence[Mapping[str, Any]]) -> list[str]:
    ordered: list[str] = []
    for record in records:
        for column in record:
            if column not in ordered:
                ordered.append(column)
    head = [c for c in _PRIORITY_COLUMNS if c in ordered]
    tail = [c for c in ordered if c not in head and c not in _NOISY_COLUMNS]
    return head + tail


def records_table(
    records: Sequence[Mapping[str, Any]],
    *,
    columns: Sequence[str] | None = None,
    title: str = "",
) -> Table:
    """A :class:`Table` over a record batch.

    Without an explicit ``columns`` list, identity columns lead and the
    digest columns (run/task keys, trace IDs) are left out -- they are for
    joining, not for reading.
    """
    chosen = list(columns) if columns else _auto_columns(records)
    if not chosen:
        chosen = ["experiment"]
    table = Table(columns=chosen, title=title)
    table.add_dict_rows(records)
    return table


def report_document(
    records: Sequence[Mapping[str, Any]],
    *,
    transform: str | None = None,
    filters: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """The JSON report envelope used by the CLI and ``GET /results``.

    The document holds the given records themselves, not copies:
    :meth:`~repro.store.core.ResultStore.select` returns fresh dicts.
    """
    document: dict[str, Any] = {
        "schema": REPORT_SCHEMA,
        "count": len(records),
        "records": list(records),
    }
    if transform:
        document["transform"] = transform
    if filters:
        document["filters"] = {k: v for k, v in filters.items() if v is not None}
    return document
