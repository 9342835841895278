"""The unified results pipeline: readers -> transforms -> query/report.

This package turns one-shot result blobs (suite JSON, sweep exports, bench
artifacts, service job payloads) into *queryable history*:

* :mod:`repro.store.core` -- :class:`ResultStore`, an append-only,
  content-addressed run store under the cache root, plus the numpy-backed
  :class:`Frame` used by columnar transform passes;
* :mod:`repro.store.readers` -- a registry of reader adapters that flatten
  each known payload schema into store records;
* :mod:`repro.store.transforms` -- named derived-metric passes (speedup
  trends, regressions, balance margins, roofline positions, cache hit
  rates), registered with :mod:`repro.analysis.transforms`;
* :mod:`repro.store.query` -- the ``query()`` filters, the one ``report()``
  pipeline behind ``repro report`` and ``GET /results``, and the table/JSON
  report views.

Layering: the store depends on the runtime's content-addressed keys and on
``repro.analysis`` -- never on the service.  The service (and the CLI)
depend on the store.
"""

from repro.store.core import (
    STORE_SCHEMA,
    Frame,
    IngestReceipt,
    ResultStore,
    RunInfo,
)
from repro.store.query import (
    group_counts,
    query,
    records_table,
    report,
    report_document,
)
from repro.store.readers import (
    detect_reader,
    get_reader,
    ingest_file,
    ingest_payload,
    reader_names,
    register_reader,
)

# Importing the transform module registers the built-in transforms.
from repro.store import transforms as _transforms  # noqa: F401

__all__ = [
    "STORE_SCHEMA",
    "Frame",
    "IngestReceipt",
    "ResultStore",
    "RunInfo",
    "detect_reader",
    "get_reader",
    "group_counts",
    "ingest_file",
    "ingest_payload",
    "query",
    "reader_names",
    "records_table",
    "register_reader",
    "report",
    "report_document",
]
