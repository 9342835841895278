"""End-to-end observability: traces, timelines and /metrics over live HTTP."""

from __future__ import annotations

import http.client
import json
import threading

import pytest

from repro.exceptions import ServiceError
from repro.obs import spans as obs_spans
from repro.service import JobService, ServiceClient, serve
from repro.service.jobs import DONE

SWEEP = {"kernel": "matmul", "memory_sizes": [64, 256, 1024], "scale": 64}
#: Two of ``SWEEP``'s points: the same point keys under another job key.
SWEEP_SUB_GRID = {**SWEEP, "memory_sizes": [64, 256]}


@pytest.fixture
def live_service(tmp_path):
    """Factory for a service + HTTP server + client on an ephemeral port."""
    running = []

    def build(*, start: bool = True, workers: int = 2, **kwargs) -> tuple:
        kwargs.setdefault("cache_dir", tmp_path / "cache")
        kwargs.setdefault("parallel", False)
        service = JobService(workers=workers, **kwargs)
        server = serve("127.0.0.1", 0, service)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        if start:
            service.start()
        running.append((service, server))
        client = ServiceClient("127.0.0.1", server.port, timeout=10.0)
        return service, client

    yield build
    for service, server in running:
        server.shutdown()
        server.server_close()
        service.stop()


class TestTracePropagation:
    def test_client_trace_survives_the_round_trip(self, live_service):
        _, client = live_service()
        job = client.submit("sweep", SWEEP, trace_id="e2e-trace-0001")
        assert job["trace_id"] == "e2e-trace-0001"
        client.wait(job["id"])
        assert client.job(job["id"])["trace_id"] == "e2e-trace-0001"

    def test_service_mints_a_trace_when_omitted(self, live_service):
        _, client = live_service()
        job = client.submit("experiment", {"experiment": "warp"})
        assert isinstance(job["trace_id"], str) and len(job["trace_id"]) == 16

    def test_invalid_trace_rejected_with_400(self, live_service):
        _, client = live_service()
        with pytest.raises(ServiceError) as excinfo:
            client.submit("sweep", SWEEP, trace_id="no")
        assert excinfo.value.status == 400

    def test_body_trace_field_works_and_header_wins(self, live_service):
        service, client = live_service()
        connection = http.client.HTTPConnection(client.host, client.port)
        body = json.dumps(
            {"kind": "sweep", "params": SWEEP, "trace": "from-body-1"}
        )
        connection.request(
            "POST",
            "/jobs",
            body=body,
            headers={
                "Content-Type": "application/json",
                "X-Repro-Trace": "from-header-1",
            },
        )
        response = connection.getresponse()
        document = json.loads(response.read())
        connection.close()
        assert response.status == 201
        assert document["trace_id"] == "from-header-1"

    def test_deduped_follower_keeps_its_own_trace(self, live_service):
        service, client = live_service(start=False)
        first = client.submit("sweep", SWEEP, trace_id="primary-trace-1")
        second = client.submit("sweep", SWEEP, trace_id="follower-trace-1")
        assert second["deduped_into"] == first["id"]
        assert second["trace_id"] == "follower-trace-1"
        service.start()
        client.wait(second["id"])

    def test_trace_survives_journal_replay(self, live_service, tmp_path):
        journal = tmp_path / "jobs.jsonl"
        service, client = live_service(state_path=journal)
        job = client.submit("sweep", SWEEP, trace_id="replayed-trace-1")
        client.wait(job["id"])
        service.stop()

        from repro.service.jobs import JobStore

        recovered = JobStore(journal).get(job["id"])
        assert recovered.trace_id == "replayed-trace-1"
        assert [e["state"] for e in recovered.timeline] == [
            "queued",
            "running",
            "done",
        ]


class TestJobRootSpan:
    """The job id names the job's root span, recorded at the terminal state."""

    @pytest.fixture(autouse=True)
    def _collecting(self):
        saved = obs_spans.collector()
        obs_spans.enable(build_info={"git_rev": "testrev0"})
        yield
        obs_spans._COLLECTOR = saved

    def _root(self, trace_id: str, job) -> dict:
        """The one root of ``trace_id``, checked against its finished job."""
        document = obs_spans.trace_document(
            trace_id, obs_spans.collector().spans(trace_id)
        )
        assert document["roots"] == 1
        (root,) = document["tree"]
        assert root["name"] == "service.submit"
        assert root["span_id"] == job.id
        assert root["duration"] == pytest.approx(job.elapsed_seconds, abs=1e-6)
        assert root["attributes"]["state"] == job.state
        assert root["attributes"]["git_rev"] == "testrev0"
        return root

    def test_job_recovered_from_the_journal_keeps_its_root(self, tmp_path):
        journal = tmp_path / "jobs.jsonl"
        first = JobService(state_path=journal, parallel=False)
        job = first.submit("sweep", SWEEP, trace_id="recovered-root-1")
        first.scheduler.claim()  # this process dies mid-attempt
        first.stop()  # the crash: the journal still says running
        second = JobService(state_path=journal, parallel=False).start()
        try:
            finished = second.wait(job.id, 30.0)
        finally:
            second.stop()
        assert finished.state == DONE and finished.attempts == 2
        root = self._root("recovered-root-1", finished)
        children = {child["name"]: child for child in root["children"]}
        assert set(children) == {"scheduler.enqueue", "job.execute"}
        assert children["job.execute"]["attributes"]["attempt"] == 2

    def test_retried_job_keeps_one_root_over_its_attempts(self, monkeypatch):
        from dataclasses import replace

        from repro.service.scheduler import JOB_TABLE

        sweep = JOB_TABLE["sweep"]
        calls = []

        def flaky_run(executor, params):
            calls.append(params)
            if len(calls) == 1:
                raise OSError("transient")
            return sweep.run(executor, params)

        monkeypatch.setitem(JOB_TABLE, "sweep", replace(sweep, run=flaky_run))
        service = JobService(parallel=False).start()
        try:
            job = service.submit("sweep", SWEEP, trace_id="retried-root-1")
            finished = service.wait(job.id, 30.0)
        finally:
            service.stop()
        assert finished.state == DONE and finished.attempts == 2
        root = self._root("retried-root-1", finished)
        attempts = [
            child["attributes"] for child in root["children"]
            if child["name"] == "job.execute"
        ]
        assert [a["attempt"] for a in attempts] == [1, 2]
        assert attempts[0]["error"] == "OSError" and "error" not in attempts[1]

    def test_primary_and_follower_each_own_one_root(self, tmp_path):
        service = JobService(cache_dir=tmp_path / "cache", parallel=False)
        primary = service.submit("sweep", SWEEP, trace_id="root-primary-1")
        follower = service.submit("sweep", SWEEP, trace_id="root-follower-1")
        assert follower.deduped_into == primary.id
        service.start()
        try:
            service.wait(primary.id, 30.0)
            service.wait(follower.id, 30.0)
        finally:
            service.stop()
        root = self._root("root-primary-1", primary)
        assert {child["name"] for child in root["children"]} == {
            "scheduler.enqueue", "job.execute",
        }
        root = self._root("root-follower-1", follower)
        assert [child["name"] for child in root["children"]] == [
            "scheduler.dedup-attach",
        ]


class TestTimeline:
    def test_timeline_reports_each_state_with_durations(self, live_service):
        _, client = live_service()
        job = client.submit("sweep", SWEEP)
        client.wait(job["id"])
        timeline = client.job(job["id"])["timeline"]
        assert [event["state"] for event in timeline] == [
            "queued",
            "running",
            "done",
        ]
        for event in timeline[:-1]:
            assert event["seconds_in_state"] >= 0
            assert event["wall_time"] is not None
        assert timeline[-1]["seconds_in_state"] is None


def _sample(text: str, series: str) -> float:
    """The value of one exposition line (0.0 when the series is absent)."""
    for line in text.splitlines():
        if line.startswith(series + " "):
            return float(line.split()[-1])
    return 0.0


class TestMetricsEndpoint:
    def _fetch_text(self, client) -> tuple[int, str, str]:
        connection = http.client.HTTPConnection(client.host, client.port)
        connection.request("GET", "/metrics")
        response = connection.getresponse()
        text = response.read().decode()
        connection.close()
        return response.status, response.headers["Content-Type"], text

    def test_prometheus_text_is_populated_after_jobs(self, live_service):
        # The registry is process-global and cumulative, so every assertion
        # below is a delta over this test's own submissions.
        _, client = live_service()
        _, _, before = self._fetch_text(client)

        cold = client.submit_and_wait("sweep", SWEEP)
        warm = client.submit_and_wait("sweep", SWEEP)  # answered at admission
        client.submit_and_wait("sweep", SWEEP_SUB_GRID)  # replays its points
        client.submit_and_wait("experiment", {"experiment": "warp"})

        status, content_type, after = self._fetch_text(client)
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        assert "# TYPE repro_job_seconds histogram" in after

        def delta(series: str) -> float:
            return _sample(after, series) - _sample(before, series)

        # The warm identical sweep is answered with the cold one's payload:
        # it completes, but executes nothing, so no job latency is observed.
        assert warm["result"] == cold["result"]
        assert delta("repro_scheduler_answered_total") == 1
        assert delta('repro_job_seconds_count{kind="sweep"}') == 2
        assert delta('repro_jobs_submitted_total{kind="sweep"}') == 3
        assert delta('repro_jobs_completed_total{kind="sweep"}') == 3
        # The sub-grid sweep shares the cold sweep's point keys but not its
        # job key, so it runs and replays its points from the result cache.
        assert delta('repro_cache_hits_total{cache="results"}') == len(
            SWEEP_SUB_GRID["memory_sizes"]
        )
        # The experiment lowered onto the task runtime.
        assert delta("repro_tasks_executed_total") >= 1
        # Everything drained: the queue-depth gauge is back to zero.
        assert _sample(after, "repro_scheduler_queue_depth") == 0
        # One add counts an event in this fresh service's own counts and in
        # its family, so the two agree.
        submitted = sum(
            delta(f'repro_jobs_submitted_total{{kind="{kind}"}}') for kind in ("sweep", "experiment")
        )
        assert client.health()["scheduler"]["submitted"] == submitted == 4
        assert client.health()["scheduler"]["answered"] == 1
        caches = client.cache_stats()
        for cache in ("results", "tasks"):
            for event in ("hits", "misses"):
                family = delta(f'repro_cache_{event}_total{{cache="{cache}"}}')
                assert caches[cache][event] == family, (cache, event)

    def test_json_format(self, live_service):
        _, client = live_service()
        client.submit_and_wait("sweep", SWEEP)
        document = client.metrics()
        assert document["schema"] == "repro-metrics/v1"
        samples = document["metrics"]["repro_job_seconds"]["samples"]
        sweep = [s for s in samples if s["labels"] == {"kind": "sweep"}]
        assert sweep and sweep[0]["count"] >= 1

    def test_unknown_format_is_400(self, live_service):
        _, client = live_service()
        with pytest.raises(ServiceError) as excinfo:
            client._get("/metrics?format=xml", expect=(200,))
        assert excinfo.value.status == 400
