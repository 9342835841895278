"""Process-local metrics: counters, gauges and fixed-bucket histograms.

The observability core behind ``GET /metrics``.  A :class:`MetricsRegistry`
holds metric *families* (one per name); a family with label names hands out
per-label-set children via :meth:`MetricFamily.labels`, and a label-less
family is its own single child.  Everything is stdlib-only and thread-safe:
child updates take a per-child lock, family/child creation a per-registry
lock, so N threads incrementing the same counter lose no updates.

Two renderers serve the same registry:

* :meth:`MetricsRegistry.render_prometheus` -- the Prometheus text
  exposition format (``# HELP`` / ``# TYPE`` headers, cumulative
  ``_bucket{le=...}`` series for histograms), suitable for scraping.
* :meth:`MetricsRegistry.render_json` -- the same samples as one JSON
  document (schema ``repro-metrics/v1``) for programmatic consumers.

The module-level :data:`REGISTRY` is the process's default registry; the
instrumented layers (task runner, caches, scheduler, executor) register
their families against it at import time.  An object that also keeps its
own count of an event (a cache's hits, a scheduler's submissions) holds a
:class:`Counts`, which names the family each event feeds, so one call
counts the event in both.  Tests needing isolation build their own
:class:`MetricsRegistry` instances.

Registration is idempotent: asking for an existing name returns the
existing family, provided type, label names and (for histograms) buckets
match -- a mismatch is a programming error and raises
:class:`~repro.exceptions.ConfigurationError`.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Any, Iterable, Mapping, Sequence

from repro.exceptions import ConfigurationError

__all__ = [
    "Counter",
    "Counts",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "REGISTRY",
    "LATENCY_BUCKETS",
    "build_info",
    "record_build_info",
]

METRICS_SCHEMA = "repro-metrics/v1"

#: Fixed latency buckets (seconds) shared by the task/job histograms: spans
#: sub-millisecond cache replays up to multi-minute full-suite jobs.
LATENCY_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
    60.0, 120.0, 300.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _format_value(value: float) -> str:
    """Render a sample value the way Prometheus expects (``+Inf``, no ``.0``)."""
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _render_labels(labels: Mapping[str, str], extra: str = "") -> str:
    parts = [
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in labels.items()
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class Counter:
    """A monotonically increasing value (one child of a counter family)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counters only go up; cannot inc by {amount!r}"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that is set, not counted (one child of a gauge family)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket cumulative histogram (one child of a histogram family).

    ``buckets`` are the finite upper bounds; an implicit ``+Inf`` bucket is
    always appended, so ``observe`` never drops a sample.  Bucket counts are
    stored per-bucket (non-cumulative) and accumulated at render time, which
    keeps ``observe`` to one index increment under the lock.
    """

    __slots__ = ("_lock", "buckets", "_bucket_counts", "_sum", "_count")

    def __init__(self, buckets: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ConfigurationError("a histogram needs at least one bucket")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ConfigurationError(
                f"histogram buckets must be strictly increasing, got {bounds!r}"
            )
        self._lock = threading.Lock()
        self.buckets = bounds + (math.inf,)
        self._bucket_counts = [0] * len(self.buckets)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        # First bucket whose upper bound contains the value; +Inf always does.
        index = 0
        for index, bound in enumerate(self.buckets):  # noqa: B007
            if value <= bound:
                break
        with self._lock:
            self._bucket_counts[index] += 1
            self._sum += value
            self._count += 1

    def snapshot(self) -> tuple[list[int], float, int]:
        """Cumulative bucket counts, sum and count, read atomically."""
        with self._lock:
            counts = list(self._bucket_counts)
            total, count = self._sum, self._count
        cumulative: list[int] = []
        running = 0
        for bucket_count in counts:
            running += bucket_count
            cumulative.append(running)
        return cumulative, total, count

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """All samples sharing one metric name, across label sets.

    A family with no label names proxies the child API (``inc``/``set``/
    ``observe``/``value``...) straight to its single child, so
    ``registry.counter("x", "...").inc()`` works without a ``labels()`` call.
    """

    def __init__(
        self,
        name: str,
        help: str,  # noqa: A002 - matching the exposition-format field
        kind: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] | None = None,
    ) -> None:
        if not _NAME_RE.match(name):
            raise ConfigurationError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ConfigurationError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.kind = kind
        self.labelnames = tuple(labelnames)
        self.buckets = tuple(buckets) if buckets is not None else None
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], Any] = {}
        if not self.labelnames:
            self._children[()] = self._new_child()

    def _new_child(self) -> Any:
        if self.kind == "histogram":
            return Histogram(self.buckets or LATENCY_BUCKETS)
        return _KINDS[self.kind]()

    def labels(self, **labels: str) -> Any:
        """The child for one label set (created on first use)."""
        if set(labels) != set(self.labelnames):
            raise ConfigurationError(
                f"metric {self.name!r} takes labels {self.labelnames!r}, "
                f"got {tuple(sorted(labels))!r}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._new_child()
            return child

    def samples(self) -> list[tuple[dict[str, str], Any]]:
        """Every ``(labels, child)`` pair, sorted by label values."""
        with self._lock:
            items = sorted(self._children.items())
        return [
            (dict(zip(self.labelnames, key)), child) for key, child in items
        ]

    # -- label-less convenience proxies ---------------------------------------

    def _only_child(self) -> Any:
        if self.labelnames:
            raise ConfigurationError(
                f"metric {self.name!r} has labels {self.labelnames!r}; "
                "call .labels(...) first"
            )
        return self._children[()]

    def inc(self, amount: float = 1.0) -> None:
        self._only_child().inc(amount)

    def set(self, value: float) -> None:
        self._only_child().set(value)

    def observe(self, value: float) -> None:
        self._only_child().observe(value)

    @property
    def value(self) -> float:
        return self._only_child().value

    @property
    def count(self) -> int:
        return self._only_child().count

    @property
    def sum(self) -> float:
        return self._only_child().sum


class Counts:
    """One object's event counts, each also added to the family it feeds.

    ``events`` names every event the owner counts, in :meth:`as_dict`
    order, each with the process-wide counter family it also feeds, or
    ``None``.  One :meth:`add` counts an event in both; its labels pick the
    family's child, which appears at the first add, as with a direct
    ``labels()`` call.  The child is kept per event and label set, so only
    the first add of each pays for ``labels()`` and its checks.  A count
    reads as an attribute (``stats.hits``) and is 0 before the first add.
    Both counts stay because their scopes differ: the object's covers one
    cache, runner, scheduler or store handle, the family's the whole
    process.  Thread-safe: one lock guards the counts and the kept children.
    """

    __slots__ = ("_lock", "_counts", "_families", "_children")

    def __init__(self, events: Mapping[str, MetricFamily | None]) -> None:
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(events, 0)
        self._families = dict(events)
        self._children: dict[Any, Any] = {}

    def add(self, event: str, amount: int = 1, **labels: str) -> None:
        """Count ``amount`` occurrences of ``event``, here and in its family."""
        # Label names are part of the memo key, so a wrong label set still
        # reaches ``labels()`` and raises.
        memo = (event, *labels.items()) if labels else event
        with self._lock:
            self._counts[event] += amount
            child = self._children.get(memo)
        if child is None:
            family = self._families[event]
            if family is None:
                return
            child = family.labels(**labels)
            with self._lock:
                self._children[memo] = child
        child.inc(amount)

    def __getattr__(self, event: str) -> int:
        # A leading underscore is an unset slot: reading ``_counts`` recurses.
        if event.startswith("_") or event not in self._counts:
            raise AttributeError(event)
        return self._counts[event]

    def as_dict(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)


class MetricsRegistry:
    """A named collection of metric families with two renderers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, MetricFamily] = {}

    def _register(
        self,
        name: str,
        help: str,  # noqa: A002
        kind: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] | None,
    ) -> MetricFamily:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if (
                    existing.kind != kind
                    or existing.labelnames != tuple(labelnames)
                    or (kind == "histogram" and buckets is not None
                        and existing.buckets != tuple(buckets))
                ):
                    raise ConfigurationError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels {existing.labelnames!r}"
                    )
                return existing
            family = MetricFamily(name, help, kind, labelnames, buckets)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str, *, labelnames: Sequence[str] = ()  # noqa: A002
    ) -> MetricFamily:
        return self._register(name, help, "counter", labelnames, None)

    def gauge(
        self, name: str, help: str, *, labelnames: Sequence[str] = ()  # noqa: A002
    ) -> MetricFamily:
        return self._register(name, help, "gauge", labelnames, None)

    def histogram(
        self,
        name: str,
        help: str,  # noqa: A002
        *,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ) -> MetricFamily:
        return self._register(name, help, "histogram", labelnames, buckets)

    def families(self) -> list[MetricFamily]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    # -- rendering ------------------------------------------------------------

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for family in self.families():
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for labels, child in family.samples():
                if family.kind == "histogram":
                    lines.extend(_prometheus_histogram(family, labels, child))
                else:
                    lines.append(
                        f"{family.name}{_render_labels(labels)} "
                        f"{_format_value(child.value)}"
                    )
        return "\n".join(lines) + "\n" if lines else ""

    def render_json(self) -> dict[str, Any]:
        """Every sample as one JSON-native document."""
        metrics: dict[str, Any] = {}
        for family in self.families():
            samples: list[dict[str, Any]] = []
            for labels, child in family.samples():
                if family.kind == "histogram":
                    cumulative, total, count = child.snapshot()
                    samples.append(
                        {
                            "labels": labels,
                            "count": count,
                            "sum": total,
                            "buckets": {
                                _format_value(bound): cumulative[i]
                                for i, bound in enumerate(child.buckets)
                            },
                        }
                    )
                else:
                    samples.append({"labels": labels, "value": child.value})
            metrics[family.name] = {
                "type": family.kind,
                "help": family.help,
                "samples": samples,
            }
        return {"schema": METRICS_SCHEMA, "metrics": metrics}


def _prometheus_histogram(
    family: MetricFamily, labels: Mapping[str, str], child: Histogram
) -> Iterable[str]:
    cumulative, total, count = child.snapshot()
    for i, bound in enumerate(child.buckets):
        le = _render_labels(labels, extra=f'le="{_format_value(bound)}"')
        yield f"{family.name}_bucket{le} {cumulative[i]}"
    yield f"{family.name}_sum{_render_labels(labels)} {_format_value(total)}"
    yield f"{family.name}_count{_render_labels(labels)} {count}"


#: The process-local default registry every instrumented layer reports to.
REGISTRY = MetricsRegistry()


def build_info() -> dict[str, str]:
    """Build identity fields: git revision, python and numpy versions.

    The git revision comes from :func:`repro.store.core.git_revision`
    (imported lazily -- the store imports this module at import time, so a
    top-level import would be a cycle).  Everything degrades to
    ``"unknown"``; provenance is advisory, never load-bearing.
    """
    import platform

    try:
        import numpy

        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dependency
        numpy_version = "unknown"
    try:
        from repro.store.core import git_revision

        revision = git_revision() or "unknown"
    except Exception:  # pragma: no cover - provenance must never raise
        revision = "unknown"
    return {
        "git_rev": revision,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def record_build_info(registry: MetricsRegistry | None = None) -> dict[str, str]:
    """Register and set the ``repro_build_info`` gauge; returns its fields.

    The standard build-info idiom: a gauge pinned at 1 whose labels carry
    the identity, so a scrape (or the JSON renderer) names the exact
    commit and interpreter behind every other series.  Span roots stamp
    the same fields (see :func:`repro.obs.spans.enable`).
    """
    info = build_info()
    target = registry if registry is not None else REGISTRY
    target.gauge(
        "repro_build_info",
        "Build identity (value is always 1; the labels carry the info).",
        labelnames=("git_rev", "python", "numpy"),
    ).labels(**info).set(1.0)
    return info
