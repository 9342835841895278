"""Tests for hierarchical spans and the engine-phase profiler.

The two load-bearing contracts:

* **Disabled means free** -- with no collector installed, every hook is a
  shared no-op (no allocation, no clock reads), and instrumented code
  behaves byte-for-byte as if the hooks were not there (task keys, engine
  outputs).
* **Aggregation, not flooding** -- engine phase timers emit one synthetic
  child span per phase name per enclosing span, never one per iteration.
"""

from __future__ import annotations

import gc
import io
import json
import logging
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import spans as obs_spans
from repro.obs.spans import (
    SPANS_SCHEMA,
    JsonLogFormatter,
    SpanCollector,
    chrome_trace,
    render_tree,
    span_tree,
    spans_payload,
    trace_document,
    tree_depth,
)

BUILD_INFO = {"git_rev": "testrev0", "python": "3.x", "numpy": "9.y"}


@pytest.fixture(autouse=True)
def _isolated_collector():
    """Every test starts disabled and leaves no collector behind."""
    saved = obs_spans.collector()
    obs_spans.disable()
    yield
    obs_spans._COLLECTOR = saved


def _enable(capacity: int = 1024) -> SpanCollector:
    # Static build info: tests must not shell out to git per enable().
    return obs_spans.enable(capacity, build_info=BUILD_INFO)


class TestDisabledPath:
    def test_hooks_return_shared_noops(self):
        assert not obs_spans.enabled()
        assert obs_spans.span("x") is obs_spans._NULL
        assert obs_spans.phase("y") is obs_spans._NULL
        assert obs_spans.task_context() is None
        assert obs_spans.current_span_id() is None
        # record/absorb are plain no-ops, not errors.
        obs_spans.record_span(
            "n", "k", trace_id="t", parent_id=None, start_wall=0.0, duration=0.0
        )
        obs_spans.absorb([{"span_id": "zz"}])
        assert obs_spans.stats() == {
            "enabled": False, "capacity": 0, "spans": 0, "dropped": 0,
        }

    def test_disabled_hooks_allocate_nothing(self):
        def hot(n: int) -> None:
            for _ in range(n):
                with obs_spans.span("task"):
                    with obs_spans.phase("inner"):
                        pass

        hot(64)  # warm caches / code objects
        gc.collect()
        tracemalloc.start()
        try:
            gc.collect()
            before, _ = tracemalloc.get_traced_memory()
            hot(512)
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The shared _NULL singleton means the loop body allocates nothing;
        # allow slack for interpreter-internal bookkeeping only.
        assert after - before < 512, f"disabled hooks allocated {after - before} bytes"

    def test_disabled_hooks_add_no_measurable_overhead(self):
        iterations = 20_000
        start = time.perf_counter()
        for _ in range(iterations):
            with obs_spans.span("task"):
                with obs_spans.phase("inner"):
                    pass
        elapsed = time.perf_counter() - start
        # Two no-op context managers per iteration; even a slow CI box does
        # this in well under 25us/iteration.
        assert elapsed < 0.5, f"{iterations} disabled hook pairs took {elapsed:.3f}s"


class TestSpanTrees:
    def test_nested_spans_record_parent_links(self):
        sink = _enable()
        with obs_spans.span(
            "outer", kind="runtime", parent=("trace-nest", None)
        ) as outer:
            with obs_spans.span("inner", kind="task") as inner:
                assert obs_spans.current_span_id() == inner.span_id
            assert obs_spans.current_span_id() == outer.span_id
        spans = sink.spans("trace-nest")
        by_name = {s["name"]: s for s in spans}
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["outer"]["parent_id"] is None
        assert by_name["inner"]["kind"] == "task"
        assert by_name["inner"]["duration"] >= 0.0

    def test_exception_marks_span_and_propagates(self):
        sink = _enable()
        with pytest.raises(ValueError):
            with obs_spans.span("broken", parent=("trace-err", None)):
                raise ValueError("boom")
        (recorded,) = sink.spans("trace-err")
        assert recorded["attributes"]["error"] == "ValueError"

    def test_phase_calls_aggregate_into_one_child(self):
        sink = _enable()
        with obs_spans.span("task", parent=("trace-phase", None)) as task:
            for _ in range(100):
                with obs_spans.phase("wavefront.cycles"):
                    pass
        spans = sink.spans("trace-phase")
        phases = [s for s in spans if s["kind"] == "phase"]
        assert len(phases) == 1, "100 phase passes must emit exactly one span"
        (only,) = phases
        assert only["name"] == "wavefront.cycles"
        assert only["attributes"]["calls"] == 100
        assert only["parent_id"] == task.span_id

    def test_phase_without_active_span_is_noop(self):
        sink = _enable()
        assert obs_spans.phase("orphan") is obs_spans._NULL
        with obs_spans.phase("orphan"):
            pass
        assert sink.spans() == []

    def test_build_info_stamps_roots_only(self):
        sink = _enable()
        with obs_spans.span("root", parent=("trace-build", None)):
            with obs_spans.span("child"):
                pass
        by_name = {s["name"]: s for s in sink.spans("trace-build")}
        assert by_name["root"]["attributes"]["git_rev"] == "testrev0"
        assert "git_rev" not in by_name["child"]["attributes"]

    def test_ring_buffer_evicts_oldest_and_counts(self):
        sink = _enable(capacity=4)
        for index in range(7):
            obs_spans.record_span(
                f"s{index}", "internal", trace_id="trace-ring",
                parent_id=None, start_wall=float(index), duration=0.0,
            )
        stats = obs_spans.stats()
        assert stats["spans"] == 4 and stats["dropped"] == 3
        names = [s["name"] for s in sink.spans()]
        assert names == ["s3", "s4", "s5", "s6"]

    def test_job_root_recorded_at_terminal_after_its_children(self):
        # A job's children hang under its id while it runs; its root, named
        # by that id, is recorded once the job is terminal.
        sink = _enable()
        job_id = "a1b2c3d4e5f6"
        obs_spans.record_span(
            "scheduler.enqueue", "scheduler", trace_id="trace-job",
            parent_id=job_id, start_wall=time.time(), duration=0.001,
        )
        with obs_spans.span(
            "job.execute", kind="worker", parent=("trace-job", job_id)
        ):
            pass
        assert trace_document("trace-job", sink.spans("trace-job"))["roots"] == 2
        obs_spans.record_span(
            "service.submit", "api", trace_id="trace-job", parent_id=None,
            span_id=job_id, start_wall=time.time(), duration=0.5,
            attributes={"state": "done"},
        )
        doc = trace_document("trace-job", sink.spans("trace-job"))
        assert doc["roots"] == 1 and doc["depth"] == 2
        (root,) = doc["tree"]
        assert root["span_id"] == job_id and root["duration"] == 0.5
        assert root["attributes"]["state"] == "done"
        assert root["attributes"]["git_rev"] == "testrev0"
        assert {child["name"] for child in root["children"]} == {
            "scheduler.enqueue", "job.execute",
        }

    def test_untraced_root_has_no_trace_or_parent(self):
        sink = _enable()
        with obs_spans.span("loose") as loose:
            assert obs_spans.current_trace_id() is None
            assert obs_spans.current_span_id() == loose.span_id
            assert obs_spans.task_context() == (None, loose.span_id)
        assert obs_spans.current_span_id() is None
        assert obs_spans.task_context() == (None, None)
        (recorded,) = sink.spans()
        assert recorded["trace_id"] is None and recorded["parent_id"] is None

    def test_capture_spans_round_trips_the_pool_boundary(self):
        sink = _enable()
        with obs_spans.span(
            "tasks.run", kind="runtime", parent=("trace-pool", None)
        ):
            ctx = obs_spans.task_context()
            assert ctx[0] == "trace-pool"
            parent_span_id = ctx[1]
            # What the pooled child process does, minus the pickling:
            with obs_spans.capture_spans(ctx, "task:work") as captured:
                with obs_spans.phase("inner.loop"):
                    pass
            obs_spans.absorb(captured.spans)
        spans = sink.spans("trace-pool")
        by_name = {s["name"]: s for s in spans}
        assert by_name["task:work"]["parent_id"] == parent_span_id
        assert by_name["inner.loop"]["kind"] == "phase"
        tree = span_tree(spans)
        assert tree_depth(tree) == 3  # tasks.run -> task:work -> inner.loop


class TestPerTraceLookup:
    @settings(max_examples=100, deadline=None)
    @given(
        capacity=st.integers(1, 6),
        traces=st.lists(st.sampled_from(["t-a", "t-b", "t-c", None]), max_size=40),
    )
    def test_matches_the_ring_filtered_by_trace(self, capacity, traces):
        sink = SpanCollector(capacity)
        for index, trace_id in enumerate(traces):
            sink.record({"name": f"s{index}", "trace_id": trace_id, "parent_id": "p"})
            ring = sink.spans()
            for trace in ("t-a", "t-b", "t-c"):
                assert sink.spans(trace) == [s for s in ring if s["trace_id"] == trace]
            # Evicted traces leave nothing behind in the index.
            assert set(sink._by_trace) == {s["trace_id"] for s in ring} - {None}


class TestAssemblyAndExport:
    def _spans(self):
        return [
            {"trace_id": "t", "span_id": "a", "parent_id": None,
             "name": "root", "kind": "api", "start_wall": 1.0,
             "duration": 0.5, "pid": 7, "attributes": {}},
            {"trace_id": "t", "span_id": "b", "parent_id": "a",
             "name": "child", "kind": "worker", "start_wall": 1.1,
             "duration": 0.25, "pid": 7, "attributes": {"calls": 3}},
            {"trace_id": "t", "span_id": "c", "parent_id": "missing",
             "name": "orphan", "kind": "task", "start_wall": 1.2,
             "duration": 0.1, "pid": 8, "attributes": {}},
        ]

    def test_orphans_become_roots(self):
        tree = span_tree(self._spans())
        assert {node["name"] for node in tree} == {"root", "orphan"}
        assert tree_depth(tree) == 2

    def test_trace_document_shape(self):
        doc = trace_document("t", self._spans())
        assert doc["schema"] == SPANS_SCHEMA
        assert doc["span_count"] == 3 and doc["roots"] == 2
        assert doc["depth"] == 2
        assert len(doc["spans"]) == 3
        payload = spans_payload("t", self._spans())
        assert payload["schema"] == SPANS_SCHEMA
        assert payload["trace_id"] == "t"

    def test_chrome_trace_is_valid_trace_event_json(self):
        document = chrome_trace(self._spans())
        parsed = json.loads(json.dumps(document))
        events = parsed["traceEvents"]
        assert len(events) == 3
        child = next(e for e in events if e["name"] == "child")
        assert child["ph"] == "X"
        assert child["ts"] == pytest.approx(1.1e6)
        assert child["dur"] == pytest.approx(0.25e6)
        assert child["args"]["span_id"] == "b"
        assert child["args"]["calls"] == 3
        assert parsed["displayTimeUnit"] == "ms"

    def test_render_tree_shows_names_durations_and_calls(self):
        text = render_tree(span_tree(self._spans()))
        lines = text.splitlines()
        assert lines[0].startswith("root [api] 500.00ms")
        assert lines[1] == "  child [worker] 250.00ms x3"
        assert any(line.startswith("orphan") for line in lines)


class TestTracingNeverPerturbsScience:
    def _traced(self, fn):
        _enable()
        with obs_spans.span("probe", kind="task", parent=("identity-check", None)):
            result = fn()
        obs_spans.disable()
        return result

    def test_task_keys_identical_with_tracing_on_and_off(self):
        from repro.experiments.arrays_section4 import systolic_task

        def build_key() -> str:
            return systolic_task(order=4, batches=1, engine="fast").key()

        key_off = build_key()
        key_on = self._traced(build_key)
        assert key_on == key_off

    def test_matmul_engine_output_bitwise_identical(self, rng):
        from repro.arrays.systolic import OutputStationaryMatmulArray

        problems = [
            (rng.standard_normal((5, 5)), rng.standard_normal((5, 5)))
            for _ in range(2)
        ]
        array = OutputStationaryMatmulArray(5, engine="fast")
        baseline = array.run(problems)
        traced = self._traced(lambda: array.run(problems))
        assert traced.cycles == baseline.cycles
        assert traced.active_cell_cycles == baseline.active_cell_cycles
        assert all(
            t.tobytes() == b.tobytes()
            for t, b in zip(traced.outputs, baseline.outputs)
        )

    def test_pebble_moves_identical_with_tracing(self):
        from repro.pebble.dag import matmul_dag
        from repro.pebble.game import play_topological

        dag = matmul_dag(3)
        baseline = play_topological(dag, red_pebble_limit=8)
        traced = self._traced(lambda: play_topological(dag, red_pebble_limit=8))
        assert (traced.loads, traced.stores, traced.computations) == (
            baseline.loads, baseline.stores, baseline.computations
        )


class TestQRWavefrontPhases:
    def test_one_span_per_phase_and_one_call_per_step(self, rng):
        """An order-64 array on 100 rows: its widest bands split into
        sub-bands, but each phase is timed once per wavefront step."""
        from repro.arrays.triangular_qr import GentlemanKungTriangularArray

        order, rows = 64, 100
        sink = _enable()
        with obs_spans.span("qr", kind="task", parent=("trace-qr", None)) as task:
            GentlemanKungTriangularArray(order, engine="fast").run(
                rng.standard_normal((rows, order))
            )
        phases = [s for s in sink.spans("trace-qr") if s["kind"] == "phase"]
        assert sorted(s["name"] for s in phases) == [
            "givens_rotation_batch", "qr_wavefront.apply", "qr_wavefront.gather",
        ]
        for recorded in phases:
            assert recorded["attributes"]["calls"] == rows + order - 1
            assert recorded["parent_id"] == task.span_id


class TestJsonLogging:
    def test_formatter_carries_bound_trace_and_span(self):
        _enable()
        formatter = JsonLogFormatter()
        record = logging.LogRecord(
            "repro.test", logging.INFO, __file__, 1, "hello %s", ("world",), None
        )
        with obs_spans.span("logging", parent=("trace-log", None)) as active:
            line = json.loads(formatter.format(record))
        assert line["message"] == "hello world"
        assert line["trace_id"] == "trace-log"
        assert line["span_id"] == active.span_id
        assert line["level"] == "info"

    def test_record_extras_win_over_context(self):
        formatter = JsonLogFormatter()
        record = logging.LogRecord(
            "repro.test", logging.WARNING, __file__, 1, "m", (), None
        )
        record.trace_id = "explicit-trace"
        record.span_id = "explicit-span"
        line = json.loads(formatter.format(record))
        assert line["trace_id"] == "explicit-trace"
        assert line["span_id"] == "explicit-span"

    def test_configure_json_logging_flag_and_output(self):
        saved_flag = obs_spans._JSON_LOGGING
        stream = io.StringIO()
        handler = obs_spans.configure_json_logging(stream=stream)
        try:
            assert obs_spans.json_logging_enabled()
            logging.getLogger("repro.test.configure").info("structured")
            line = json.loads(stream.getvalue().splitlines()[-1])
            assert line["message"] == "structured"
            assert set(line) >= {"ts", "level", "logger", "trace_id", "span_id"}
        finally:
            logging.getLogger().removeHandler(handler)
            obs_spans._JSON_LOGGING = saved_flag
