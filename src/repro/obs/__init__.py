"""``repro.obs`` -- observability: metrics, tracing and diagnostics.

Kung's balance argument is an accounting exercise -- measure where a
machine's time goes (compute vs. I/O) and size the memory so neither side
starves.  This package applies the same discipline to the reproduction's
own service stack:

* :mod:`repro.obs.metrics` -- thread-safe counters, gauges and fixed-bucket
  histograms in a process-local registry, rendered as Prometheus text or
  JSON at ``GET /metrics``.  The task runtime, both on-disk caches, the job
  scheduler and the job executor all report here.
* :mod:`repro.obs.spans` -- trace IDs and the hierarchical spans that
  carry them, plus the aggregating engine-phase profiler.  A trace ID is
  minted at job submission (or accepted via the ``X-Repro-Trace`` header /
  ``repro submit --trace``) and carried on the job, its journal lines and
  every span; a span's parent is one ``(trace_id, parent_span_id)`` pair,
  and the job id names the job's root span.  Finished spans land in a
  bounded ring buffer behind no-op-when-disabled hooks; the module also
  captures spans across the process pool, assembles ``GET /trace/{id}``
  trees, exports Chrome/Perfetto traces and writes JSON-lines logs
  correlated by trace/span IDs.
* :mod:`repro.obs.doctor` -- the ``repro doctor`` diagnostics: cache
  integrity, journal replayability, worker liveness and environment sanity
  checks, each a structured pass/warn/fail finding.

This ``__init__`` deliberately exports only the metrics and span layers:
they sit *below* ``repro.runtime`` (which imports them to instrument
itself), while :mod:`repro.obs.doctor` sits *above* the runtime
and the service and must be imported explicitly
(``from repro.obs import doctor``) to keep the import graph acyclic.

See ``docs/operations.md`` for the operator's handbook: every exported
metric, the trace lifecycle, and triage recipes built on these pieces.
"""

from repro.obs.metrics import (
    LATENCY_BUCKETS,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from repro.obs.spans import (
    SPANS_SCHEMA,
    TRACE_HEADER,
    SpanCollector,
    chrome_trace,
    current_span_id,
    current_trace_id,
    new_trace_id,
    normalize_trace_id,
    phase,
    span,
    span_tree,
    spans_payload,
    trace_document,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricFamily",
    "MetricsRegistry",
    "REGISTRY",
    "SPANS_SCHEMA",
    "SpanCollector",
    "TRACE_HEADER",
    "chrome_trace",
    "current_span_id",
    "current_trace_id",
    "new_trace_id",
    "normalize_trace_id",
    "phase",
    "span",
    "span_tree",
    "spans_payload",
    "trace_document",
]
