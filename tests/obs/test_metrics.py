"""Tests for the process-local metrics registry (repro.obs.metrics)."""

from __future__ import annotations

import json
import math
import sys
import threading

import pytest

from repro.exceptions import ConfigurationError
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    REGISTRY,
    Counts,
    Histogram,
    MetricsRegistry,
)


@pytest.fixture
def registry():
    """A fresh registry, isolated from the process-wide one."""
    return MetricsRegistry()


class TestCounter:
    def test_starts_at_zero_and_accumulates(self, registry):
        counter = registry.counter("t_total", "help")
        assert counter.value == 0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative_increments(self, registry):
        counter = registry.counter("t_total", "help")
        with pytest.raises(ConfigurationError):
            counter.inc(-1)

    def test_concurrent_increments_lose_nothing(self, registry):
        counter = registry.counter("t_total", "help")
        threads_n, increments = 8, 2000

        def hammer():
            for _ in range(increments):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == threads_n * increments


class TestGauge:
    def test_set_replaces_the_value(self, registry):
        gauge = registry.gauge("depth", "help")
        assert gauge.value == 0
        gauge.set(10)
        gauge.set(3)
        assert gauge.value == 3


class TestCounts:
    def test_reads_before_any_add_are_zero(self, registry):
        counts = Counts({"hits": registry.counter("hits_total", "help"), "local": None})
        assert counts.hits == counts.local == 0
        assert counts.as_dict() == {"hits": 0, "local": 0}
        with pytest.raises(AttributeError):
            counts.unnamed  # noqa: B018 - an event nobody declared

    def test_one_add_counts_in_the_object_and_its_family(self, registry):
        family = registry.counter("hits_total", "help", labelnames=("cache",))
        counts = Counts({"hits": family, "local": None})
        # A labelled family has no sample before its first add.
        assert family.samples() == []
        counts.add("hits", cache="a")
        counts.add("hits", 3, cache="b")
        counts.add("local", 2)
        assert counts.as_dict() == {"hits": 4, "local": 2}
        assert {labels["cache"]: child.value for labels, child in family.samples()} == {
            "a": 1, "b": 3
        }

    def test_a_wrong_label_set_raises_after_a_right_one(self, registry):
        family = registry.counter("hits_total", "help", labelnames=("cache",))
        counts = Counts({"hits": family})
        counts.add("hits", cache="a")
        counts.add("hits", cache="a")
        with pytest.raises(ConfigurationError):
            counts.add("hits", kind="a")
        assert family.labels(cache="a").value == 2

    def test_concurrent_adds_lose_no_update(self, registry):
        family = registry.counter("adds_total", "help")
        counts = Counts({"adds": family})
        threads_n, adds = 8, 10_000
        threads = [
            threading.Thread(target=lambda: [counts.add("adds") for _ in range(adds)])
            for _ in range(threads_n)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert counts.adds == threads_n * adds
        assert family.value == counts.adds


class TestHistogram:
    def test_bucket_boundaries_are_inclusive(self):
        histogram = Histogram((1.0, 2.0))
        histogram.observe(1.0)  # lands in le=1
        histogram.observe(1.5)  # lands in le=2
        histogram.observe(99.0)  # lands in +Inf
        cumulative, total, count = histogram.snapshot()
        assert cumulative == [1, 2, 3]
        assert count == 3
        assert total == pytest.approx(101.5)

    def test_cumulative_counts_are_monotone_and_end_at_count(self):
        histogram = Histogram(LATENCY_BUCKETS)
        for value in (0.0001, 0.003, 0.02, 0.7, 4.0, 1000.0):
            histogram.observe(value)
        cumulative, _, count = histogram.snapshot()
        assert all(a <= b for a, b in zip(cumulative, cumulative[1:]))
        assert cumulative[-1] == count == 6
        assert histogram.buckets[-1] == math.inf

    def test_rejects_unsorted_or_empty_buckets(self):
        with pytest.raises(ConfigurationError):
            Histogram(())
        with pytest.raises(ConfigurationError):
            Histogram((2.0, 1.0))
        with pytest.raises(ConfigurationError):
            Histogram((1.0, 1.0))

    def test_concurrent_observes_lose_nothing(self):
        histogram = Histogram((0.5, 1.0))
        threads_n, observes = 8, 1000

        def hammer():
            for i in range(observes):
                histogram.observe(i % 2)  # alternate le=0.5 and le=1 buckets

        threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        cumulative, total, count = histogram.snapshot()
        assert count == threads_n * observes
        assert cumulative[-1] == count
        assert total == pytest.approx(threads_n * observes / 2)


class TestLabels:
    def test_children_are_independent(self, registry):
        family = registry.counter("hits", "help", labelnames=("cache",))
        family.labels(cache="results").inc(3)
        family.labels(cache="tasks").inc(1)
        assert family.labels(cache="results").value == 3
        assert family.labels(cache="tasks").value == 1

    def test_wrong_label_names_rejected(self, registry):
        family = registry.counter("hits", "help", labelnames=("cache",))
        with pytest.raises(ConfigurationError):
            family.labels(store="results")
        with pytest.raises(ConfigurationError):
            family.labels()

    def test_labelled_family_rejects_direct_use(self, registry):
        family = registry.counter("hits", "help", labelnames=("cache",))
        with pytest.raises(ConfigurationError):
            family.inc()


class TestRegistry:
    def test_registration_is_idempotent(self, registry):
        first = registry.counter("x_total", "help")
        second = registry.counter("x_total", "help")
        assert first is second

    def test_conflicting_registration_rejected(self, registry):
        registry.counter("x_total", "help")
        with pytest.raises(ConfigurationError):
            registry.gauge("x_total", "help")
        with pytest.raises(ConfigurationError):
            registry.counter("x_total", "help", labelnames=("kind",))

    def test_invalid_names_rejected(self, registry):
        with pytest.raises(ConfigurationError):
            registry.counter("1bad", "help")
        with pytest.raises(ConfigurationError):
            registry.counter("ok", "help", labelnames=("bad-label",))


class TestPrometheusRendering:
    def test_counter_and_gauge_lines(self, registry):
        registry.counter("reqs_total", "Requests.").inc(7)
        registry.gauge("depth", "Depth.").set(2)
        text = registry.render_prometheus()
        assert "# HELP reqs_total Requests.\n# TYPE reqs_total counter" in text
        assert "\nreqs_total 7\n" in text
        assert "# TYPE depth gauge" in text
        assert "\ndepth 2" in text

    def test_histogram_exposition(self, registry):
        histogram = registry.histogram("lat", "Latency.", buckets=(0.5, 1.0))
        histogram.observe(0.25)
        histogram.observe(0.75)
        text = registry.render_prometheus()
        assert 'lat_bucket{le="0.5"} 1' in text
        assert 'lat_bucket{le="1"} 2' in text
        assert 'lat_bucket{le="+Inf"} 2' in text
        assert "lat_sum 1" in text
        assert "lat_count 2" in text

    def test_label_values_escaped(self, registry):
        family = registry.counter("c_total", "help", labelnames=("k",))
        family.labels(k='a"b\\c\nd').inc()
        text = registry.render_prometheus()
        assert r'c_total{k="a\"b\\c\nd"} 1' in text

    def test_empty_registry_renders_empty(self, registry):
        assert registry.render_prometheus() == ""


class TestJsonRendering:
    def test_document_round_trips_through_json(self, registry):
        registry.counter("hits", "help", labelnames=("cache",)).labels(
            cache="results"
        ).inc(4)
        registry.histogram("lat", "help", buckets=(1.0,)).observe(0.5)
        document = json.loads(json.dumps(registry.render_json()))
        assert document["schema"] == "repro-metrics/v1"
        hits = document["metrics"]["hits"]
        assert hits["type"] == "counter"
        assert hits["samples"] == [
            {"labels": {"cache": "results"}, "value": 4}
        ]
        lat = document["metrics"]["lat"]["samples"][0]
        assert lat["count"] == 1
        assert lat["buckets"] == {"1": 1, "+Inf": 1}


class TestProcessRegistry:
    def test_instrumented_layers_registered_at_import(self):
        # Importing the runtime/service layers (the test suite always has)
        # must have registered the documented families on the default
        # registry: the names docs/operations.md promises.
        import repro.service.workers  # noqa: F401

        names = {family.name for family in REGISTRY.families()}
        assert {
            "repro_tasks_executed_total",
            "repro_tasks_cache_hits_total",
            "repro_tasks_deduped_total",
            "repro_task_seconds",
            "repro_cache_hits_total",
            "repro_cache_misses_total",
            "repro_cache_stores_total",
            "repro_cache_store_bytes_total",
            "repro_scheduler_queue_depth",
            "repro_scheduler_dedup_attaches_total",
            "repro_jobs_submitted_total",
            "repro_jobs_completed_total",
            "repro_jobs_failed_total",
            "repro_job_seconds",
        } <= names
