"""Spans, the one carrier of a trace, and the engine-phase profiler.

A *trace ID* names one submission end to end; *spans* -- named, nested
intervals with dual wall/monotonic stamps -- say where its time went, from
the HTTP submit handler down to one engine phase inside a pooled worker
process.  Every span carries its trace: a span's parent is one
``(trace_id, parent_span_id)`` pair (:data:`SpanParent`), so the current
trace is simply the trace of the current span.

Trace IDs are short opaque tokens: 16 lowercase hex characters when minted
here (span IDs use the same mint), or 4..64 characters of
``[A-Za-z0-9._-]`` when a client supplies one through the ``X-Repro-Trace``
header (:data:`TRACE_HEADER`).  The scheduler stamps the trace on the job,
so every journal line and ``GET /jobs/{id}`` payload carries it, and the job
id names the job's root span, which the scheduler records once the job is
terminal; every span of the job hangs beneath it.

Design rules, in order of importance:

* **Disabled means free.**  Collection is off unless :func:`enable` has
  installed a collector; every hook (:func:`span`, :func:`phase`,
  :func:`record_span`, :func:`task_context`) begins with one
  branch-predictable ``is None`` test and returns a shared singleton, so
  the instrumented hot paths allocate nothing and read no clocks when
  tracing is off.  This mirrors ``repro.faults``: production code paths
  are identical with tracing off.
* **Aggregate the hot loops.**  Engine inner loops run 10^4..10^5
  iterations; emitting a span per step would melt the buffer.
  :func:`phase` therefore *accumulates* (total seconds + call count) per
  phase name into the nearest enclosing span and flushes one synthetic
  child span per phase name when that span finishes.
* **Survive the pool boundary.**  Tasks execute in pooled worker
  processes whose collectors are separate (or absent).  The runtime asks
  the parent for a :func:`task_context`, ships it to the child, runs the
  task under :func:`capture_spans`, and returns the finished span dicts
  with the task result; the parent :func:`absorb`\\ s them, so the tree
  survives the multiprocessing boundary with correct parent links.
* **Bounded, thread-safe buffer.**  Finished spans land in a ring buffer
  (:class:`SpanCollector`); when full, the oldest span is evicted and
  counted (``repro_spans_dropped_total``, surfaced by ``repro doctor``).

Spans never perturb the science: they read clocks and append dicts, never
touching task parameters, content-addressed keys or numeric state -- the
equivalence tests assert bitwise-identical engine outputs with tracing on
and off.

This module sits *below* the runtime, next to ``repro.obs.metrics``: it
imports nothing above it, and every higher layer (runtime, arrays, pebble,
service, store) calls in.
"""

from __future__ import annotations

import json
import logging
import os
import re
import sys
import threading
import time
import uuid
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator, Mapping, Sequence

from repro.exceptions import ConfigurationError
from repro.obs.metrics import REGISTRY, Counts

__all__ = [
    "SPANS_SCHEMA",
    "SpanCollector",
    "SpanParent",
    "TRACE_HEADER",
    "new_trace_id",
    "normalize_trace_id",
    "enable",
    "disable",
    "enabled",
    "collector",
    "span",
    "phase",
    "record_span",
    "current_trace_id",
    "current_span_id",
    "task_context",
    "capture_spans",
    "absorb",
    "span_tree",
    "tree_depth",
    "trace_document",
    "chrome_trace",
    "spans_payload",
    "render_tree",
    "stats",
    "configure_json_logging",
    "json_logging_enabled",
    "JsonLogFormatter",
]

SPANS_SCHEMA = "repro-spans/v1"

#: Default ring-buffer capacity: a quick suite emits a few hundred spans,
#: a full traced service day a few thousand; 16384 bounds memory at a few
#: MiB while making drops rare enough to be a diagnostic signal.
DEFAULT_CAPACITY = 16384

# A collector's one counted event, and the family it also feeds.
_EVENTS = {
    "dropped": REGISTRY.counter(
        "repro_spans_dropped_total",
        "Finished spans evicted from the bounded span buffer (oldest first).",
    )
}


#: The HTTP request header a client uses to supply its own trace ID.
TRACE_HEADER = "X-Repro-Trace"

_TRACE_RE = re.compile(r"^[A-Za-z0-9._-]{4,64}$")

#: Where a span hangs: ``(trace_id, parent_span_id)``.  ``(None, None)`` is
#: a root with no trace; ``(trace_id, None)`` a root of that trace.
SpanParent = tuple[str | None, str | None]


def new_trace_id() -> str:
    """Mint a fresh trace ID (16 hex characters); span IDs use it too."""
    return uuid.uuid4().hex[:16]


def normalize_trace_id(value: Any) -> str:
    """Validate a caller-supplied trace ID; raise on anything unusable.

    Accepts 4..64 characters of ``[A-Za-z0-9._-]`` -- wide enough for UUIDs,
    ULIDs and dotted request IDs from upstream proxies, narrow enough to be
    safe in log lines, filenames and HTTP headers.
    """
    if not isinstance(value, str) or not _TRACE_RE.match(value):
        raise ConfigurationError(
            f"invalid trace id {value!r}: expected 4..64 characters of "
            "[A-Za-z0-9._-]"
        )
    return value


class SpanCollector:
    """A bounded, thread-safe ring buffer of finished span dicts."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY, *,
                 build_info: Mapping[str, Any] | None = None) -> None:
        self.capacity = max(int(capacity), 1)
        self.build_info = dict(build_info) if build_info else None
        self._lock = threading.Lock()
        self._spans: deque[dict[str, Any]] = deque()
        # Each trace's spans in ring order, evicted with the ring, so a
        # per-trace lookup does not scan the whole buffer.  Lists, not
        # deques: a trace holds a few spans, and an empty deque is ~600 bytes.
        self._by_trace: dict[str, list[dict[str, Any]]] = {}
        self.counts = Counts(_EVENTS)

    def record(self, finished: dict[str, Any]) -> None:
        """Append one finished span, evicting the oldest when full."""
        if finished.get("parent_id") is None and self.build_info:
            # Satellite: roots carry the build identity (git rev, versions)
            # so exported traces are attributable to a commit.
            attributes = dict(finished.get("attributes") or {})
            for key, value in self.build_info.items():
                attributes.setdefault(key, value)
            finished["attributes"] = attributes
        trace_id = finished.get("trace_id")
        with self._lock:
            if len(self._spans) >= self.capacity:
                evicted = self._spans.popleft()
                evicted_trace = evicted.get("trace_id")
                if evicted_trace is not None:
                    # The oldest span of the ring is the oldest of its trace.
                    trace = self._by_trace[evicted_trace]
                    del trace[0]
                    if not trace:
                        del self._by_trace[evicted_trace]
                self.counts.add("dropped")
            self._spans.append(finished)
            if trace_id is not None:
                self._by_trace.setdefault(trace_id, []).append(finished)

    def extend(self, finished: Sequence[Mapping[str, Any]]) -> None:
        for item in finished:
            self.record(dict(item))

    def spans(self, trace_id: str | None = None) -> list[dict[str, Any]]:
        """A snapshot of buffered spans, optionally for one trace."""
        with self._lock:
            if trace_id is None:
                return list(self._spans)
            return list(self._by_trace.get(trace_id, ()))

    def stats(self) -> dict[str, Any]:
        with self._lock:
            size = len(self._spans)
        return {"capacity": self.capacity, "spans": size, "dropped": self.counts.dropped}


#: The process-global collector; ``None`` means collection is disabled and
#: every hook below is a cheap no-op (one attribute load + ``is None``).
_COLLECTOR: SpanCollector | None = None

_ACTIVE: ContextVar["ActiveSpan | None"] = ContextVar(
    "repro_active_span", default=None
)


def enable(
    capacity: int = DEFAULT_CAPACITY,
    *,
    build_info: Mapping[str, Any] | None = None,
) -> SpanCollector:
    """Install a fresh collector and turn span collection on.

    ``build_info`` (default: :func:`repro.obs.metrics.record_build_info`'s
    fields) is stamped onto every root span so traces name the commit and
    interpreter that produced them.
    """
    global _COLLECTOR
    if build_info is None:
        from repro.obs.metrics import record_build_info

        build_info = record_build_info()
    _COLLECTOR = SpanCollector(capacity, build_info=build_info)
    return _COLLECTOR


def disable() -> None:
    """Turn span collection off; hooks revert to no-ops."""
    global _COLLECTOR
    _COLLECTOR = None


def enabled() -> bool:
    return _COLLECTOR is not None


def collector() -> SpanCollector | None:
    return _COLLECTOR


def stats() -> dict[str, Any]:
    """Buffer statistics for diagnostics (all zeros when disabled)."""
    active = _COLLECTOR
    if active is None:
        return {"enabled": False, "capacity": 0, "spans": 0, "dropped": 0}
    return {"enabled": True, **active.stats()}


class ActiveSpan:
    """One in-flight span, and the context manager :func:`span` returns.

    Entering stamps both clocks and makes the span current for the enclosed
    block; phases accumulate under ``_phases`` (name -> [seconds, calls])
    and are flushed as synthetic child spans when the block exits and the
    span is recorded.  A span is entered and exited in one thread/context.
    """

    __slots__ = (
        "trace_id", "span_id", "parent_id", "name", "kind",
        "start_wall", "start_mono", "attributes", "_phases", "_token",
    )

    def __init__(
        self,
        name: str,
        kind: str,
        attributes: Mapping[str, Any] | None,
        parent: SpanParent,
    ) -> None:
        self.name = name
        self.kind = kind
        self.trace_id, self.parent_id = parent
        self.span_id = new_trace_id()
        self.attributes = dict(attributes) if attributes else {}
        self._phases: dict[str, list[float]] = {}

    def set(self, **attributes: Any) -> None:
        """Attach attributes to the span (scalars; last write wins)."""
        self.attributes.update(attributes)

    def add_phase(self, name: str, seconds: float) -> None:
        entry = self._phases.get(name)
        if entry is None:
            self._phases[name] = [seconds, 1.0]
        else:
            entry[0] += seconds
            entry[1] += 1.0

    def __enter__(self) -> ActiveSpan:
        self.start_wall = time.time()
        self.start_mono = time.perf_counter()
        self._token = _ACTIVE.set(self)
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        _ACTIVE.reset(self._token)
        if exc_type is not None:
            self.set(error=getattr(exc_type, "__name__", str(exc_type)))
        sink = _COLLECTOR
        if sink is None:
            return False
        duration = time.perf_counter() - self.start_mono
        # One synthetic child per phase name: the aggregate, not 10^5 steps.
        for phase_name, (seconds, calls) in self._phases.items():
            sink.record(
                {
                    "trace_id": self.trace_id,
                    "span_id": new_trace_id(),
                    "parent_id": self.span_id,
                    "name": phase_name,
                    "kind": "phase",
                    "start_wall": self.start_wall,
                    "start_mono": self.start_mono,
                    "duration": seconds,
                    "pid": os.getpid(),
                    "attributes": {"calls": int(calls)},
                }
            )
        sink.record(
            {
                "trace_id": self.trace_id,
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "name": self.name,
                "kind": self.kind,
                "start_wall": self.start_wall,
                "start_mono": self.start_mono,
                "duration": duration,
                "pid": os.getpid(),
                "attributes": self.attributes,
            }
        )
        return False


class _NullContext:
    """The shared do-nothing context manager the disabled hooks return."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL = _NullContext()


def _current_parent() -> SpanParent:
    """The pair a new span hangs under: the current span, else no trace."""
    active = _ACTIVE.get()
    if active is None:
        return None, None
    return active.trace_id, active.span_id


def span(
    name: str,
    kind: str = "internal",
    attributes: Mapping[str, Any] | None = None,
    parent: SpanParent | None = None,
) -> Any:
    """A context manager timing one named interval.

    The span hangs under ``parent`` when given, else under the current
    span, else it is a root with no trace.  A shared no-op when collection
    is off.
    """
    if _COLLECTOR is None:
        return _NULL
    return ActiveSpan(name, kind, attributes, parent or _current_parent())


class _PhaseTimer:
    """Accumulating timer: total seconds + calls per phase name per span."""

    __slots__ = ("_target", "_name", "_start")

    def __init__(self, target: ActiveSpan, name: str) -> None:
        self._target = target
        self._name = name

    def __enter__(self) -> None:
        self._start = time.perf_counter()
        return None

    def __exit__(self, *exc: object) -> bool:
        self._target.add_phase(self._name, time.perf_counter() - self._start)
        return False


def phase(name: str) -> Any:
    """Time one pass of an engine hot section, aggregated per name.

    Attaches to the nearest enclosing span and is flushed as a single
    ``kind="phase"`` child span when that span finishes -- N calls cost N
    clock reads and one emitted span, never N spans.  A no-op when
    collection is off *or* no span is active.
    """
    if _COLLECTOR is None:
        return _NULL
    target = _ACTIVE.get()
    if target is None:
        return _NULL
    return _PhaseTimer(target, name)


def record_span(
    name: str,
    kind: str,
    *,
    trace_id: str | None,
    parent_id: str | None,
    start_wall: float,
    duration: float,
    attributes: Mapping[str, Any] | None = None,
    span_id: str | None = None,
) -> None:
    """Record an already-measured interval directly (no context binding).

    ``span_id`` names the span when other spans already hang under a known
    ID (a job's root is named by the job id); a fresh ID is minted
    otherwise.
    """
    sink = _COLLECTOR
    if sink is None:
        return
    sink.record(
        {
            "trace_id": trace_id,
            "span_id": span_id or new_trace_id(),
            "parent_id": parent_id,
            "name": name,
            "kind": kind,
            "start_wall": start_wall,
            "start_mono": None,
            "duration": duration,
            "pid": os.getpid(),
            "attributes": dict(attributes) if attributes else {},
        }
    )


def current_trace_id() -> str | None:
    """The current span's trace ID (for log correlation), if one is active."""
    active = _ACTIVE.get()
    return active.trace_id if active is not None else None


def current_span_id() -> str | None:
    """The current span's ID (for log correlation), if one is active."""
    active = _ACTIVE.get()
    return active.span_id if active is not None else None


# ---------------------------------------------------------------------------
# The multiprocessing boundary.
# ---------------------------------------------------------------------------


def task_context() -> SpanParent | None:
    """The :data:`SpanParent` to ship to a pool child.

    The same pair :func:`span` would hang a child under here; ``None`` when
    collection is off, so the child's :func:`capture_spans` traces nothing.
    """
    if _COLLECTOR is None:
        return None
    return _current_parent()


class CapturedSpans:
    """The spans a :func:`capture_spans` block finished, ready to pickle."""

    __slots__ = ("spans",)

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []


@contextmanager
def capture_spans(
    ctx: SpanParent | None,
    name: str,
    kind: str = "task",
    attributes: Mapping[str, Any] | None = None,
) -> Iterator[CapturedSpans]:
    """Run a block under a span named ``name`` and hand back what it finished.

    Inside a pooled worker process ``ctx`` is the parent's
    :func:`task_context`: the block's span hangs there, under a local
    collector, and every span finished inside lands in
    ``CapturedSpans.spans`` for the parent to :func:`absorb`.  The
    process-global collector (absent, or inherited over ``fork``) is saved
    and restored, so capture never double-records.

    With ``ctx`` ``None`` nothing is captured: the block's span is an
    ordinary :func:`span` of this process, a no-op when collection is off.
    That is how a task runs in-process, where swapping the process-global
    collector would race with other threads.
    """
    global _COLLECTOR
    captured = CapturedSpans()
    if ctx is None:
        with span(name, kind, attributes):
            yield captured
        return
    saved = _COLLECTOR
    local = SpanCollector(capacity=4096)
    _COLLECTOR = local
    try:
        with span(name, kind, attributes, parent=ctx):
            yield captured
    finally:
        _COLLECTOR = saved
        captured.spans = local.spans()


def absorb(finished: Sequence[Mapping[str, Any]] | None) -> None:
    """Fold spans captured in a child process into the live collector."""
    sink = _COLLECTOR
    if sink is None or not finished:
        return
    sink.extend(finished)


# ---------------------------------------------------------------------------
# Tree assembly, rendering and export.
# ---------------------------------------------------------------------------


def span_tree(spans: Sequence[Mapping[str, Any]]) -> list[dict[str, Any]]:
    """Assemble flat span dicts into rooted trees (``children`` lists).

    Roots are spans with no parent, or whose parent is not in the batch
    (e.g. evicted from the ring buffer).  Children sort by wall start, so
    the tree reads in submission order even across processes.
    """
    nodes = {
        s["span_id"]: {**dict(s), "children": []} for s in spans
    }
    roots: list[dict[str, Any]] = []
    for node in nodes.values():
        parent = nodes.get(node.get("parent_id"))
        if parent is None:
            roots.append(node)
        else:
            parent["children"].append(node)

    def _sort(children: list[dict[str, Any]]) -> None:
        children.sort(key=lambda n: (n.get("start_wall") or 0.0, n["span_id"]))
        for child in children:
            _sort(child["children"])

    _sort(roots)
    return roots


def tree_depth(roots: Sequence[Mapping[str, Any]]) -> int:
    """The maximum depth of a span forest (a lone root is depth 1)."""
    best = 0
    stack = [(root, 1) for root in roots]
    while stack:
        node, depth = stack.pop()
        best = max(best, depth)
        stack.extend((child, depth + 1) for child in node.get("children", ()))
    return best


def trace_document(
    trace_id: str, spans: Sequence[Mapping[str, Any]]
) -> dict[str, Any]:
    """The ``GET /trace/{id}`` payload: flat spans plus the rooted tree."""
    flat = [dict(s) for s in spans]
    tree = span_tree(flat)
    return {
        "schema": SPANS_SCHEMA,
        "trace_id": trace_id,
        "span_count": len(flat),
        "depth": tree_depth(tree),
        "roots": len(tree),
        "tree": tree,
        "spans": flat,
    }


def spans_payload(
    trace_id: str | None, spans: Sequence[Mapping[str, Any]]
) -> dict[str, Any]:
    """The ``repro-spans/v1`` store-ingestable document for one trace."""
    return {
        "schema": SPANS_SCHEMA,
        "trace_id": trace_id,
        "spans": [dict(s) for s in spans],
    }


def chrome_trace(spans: Sequence[Mapping[str, Any]]) -> dict[str, Any]:
    """Spans as a Chrome/Perfetto trace-event JSON document.

    Complete ``ph:"X"`` events on the wall-clock timeline; load the file
    in ``chrome://tracing`` or https://ui.perfetto.dev as-is.
    """
    events = []
    for item in spans:
        attributes = dict(item.get("attributes") or {})
        events.append(
            {
                "name": item.get("name", "?"),
                "cat": item.get("kind", "internal"),
                "ph": "X",
                "ts": float(item.get("start_wall") or 0.0) * 1e6,
                "dur": max(float(item.get("duration") or 0.0), 0.0) * 1e6,
                "pid": int(item.get("pid") or 0),
                "tid": int(item.get("pid") or 0),
                "args": {
                    "trace_id": item.get("trace_id"),
                    "span_id": item.get("span_id"),
                    "parent_id": item.get("parent_id"),
                    **attributes,
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def render_tree(roots: Sequence[Mapping[str, Any]]) -> str:
    """An ASCII rendering of a span forest for ``repro trace show``."""
    lines: list[str] = []

    def _walk(node: Mapping[str, Any], depth: int) -> None:
        duration = float(node.get("duration") or 0.0)
        attributes = node.get("attributes") or {}
        calls = attributes.get("calls")
        note = f" x{calls}" if calls else ""
        lines.append(
            f"{'  ' * depth}{node.get('name', '?')} "
            f"[{node.get('kind', '?')}] {duration * 1000.0:.2f}ms{note}"
        )
        for child in node.get("children", ()):
            _walk(child, depth + 1)

    for root in roots:
        _walk(root, 0)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Structured JSON-lines logging, correlated by trace/span IDs.
# ---------------------------------------------------------------------------

_JSON_LOGGING = False


class JsonLogFormatter(logging.Formatter):
    """One JSON object per log line, stamped with trace/span IDs.

    IDs come from the log record's ``trace_id``/``span_id`` extras when
    the caller supplied them, else from the current span -- so any log
    line emitted inside a span correlates with its trace for free.
    """

    def format(self, record: logging.LogRecord) -> str:
        payload: dict[str, Any] = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "message": record.getMessage(),
            "trace_id": getattr(record, "trace_id", None) or current_trace_id(),
            "span_id": getattr(record, "span_id", None) or current_span_id(),
        }
        if record.exc_info and record.exc_info[0] is not None:
            payload["exception"] = record.exc_info[0].__name__
        return json.dumps(payload, sort_keys=True, default=str)


def configure_json_logging(
    stream: Any = None, level: int = logging.INFO
) -> logging.Handler:
    """Install a root JSON-lines handler (``repro serve --log-json``)."""
    global _JSON_LOGGING
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(JsonLogFormatter())
    root = logging.getLogger()
    root.addHandler(handler)
    if root.level > level or root.level == logging.NOTSET:
        root.setLevel(level)
    _JSON_LOGGING = True
    return handler


def json_logging_enabled() -> bool:
    return _JSON_LOGGING
