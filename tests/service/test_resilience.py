"""Resilience tests: supervision, retries, admission control, drain, chaos.

Every test arms the process-global fault injector explicitly and disarms it
on the way out; the injector is seeded, so each scenario's fault schedule
is exactly reproducible.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.exceptions import QueueSaturatedError, ServiceError
from repro.faults import FaultInjector, install, uninstall
from repro.obs.doctor import check_jobs, check_journal, run_doctor
from repro.service import JobService, ServiceClient, serve
from repro.service.jobs import DONE, FAILED


@pytest.fixture(autouse=True)
def _clean_injector():
    uninstall()
    yield
    uninstall()


@pytest.fixture
def live_service(tmp_path):
    """Factory for a service + HTTP server + client on an ephemeral port."""
    running = []

    def build(*, start: bool = True, workers: int = 2, **kwargs) -> tuple:
        kwargs.setdefault("cache_dir", tmp_path / "cache")
        kwargs.setdefault("parallel", False)
        service = JobService(workers=workers, **kwargs)
        service.pool.supervise_interval = 0.05  # fast reaping for tests
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


def _wait_all_terminal(service: JobService, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if all(job.terminal for job in service.jobs()):
            return
        time.sleep(0.02)
    states = {job.id: job.state for job in service.jobs()}
    raise AssertionError(f"jobs not terminal after {timeout}s: {states}")


def _recorded_paths(client: ServiceClient) -> list[str]:
    """The path of every request ``client`` sends from now on, in order."""
    paths: list[str] = []
    request = client._request

    def recording(method, path, *args, **kwargs):
        paths.append(path)
        return request(method, path, *args, **kwargs)

    client._request = recording
    return paths


def _faults_injected(client: ServiceClient) -> dict[str, float]:
    """``repro_faults_injected_total`` by kind, as ``GET /metrics`` reports it."""
    family = client.metrics()["metrics"]["repro_faults_injected_total"]
    return {sample["labels"]["kind"]: sample["value"] for sample in family["samples"]}


def _hold(path: str) -> float:
    """The seconds a result request asked the service to hold it."""
    return float(path.partition("?wait=")[2] or 0)


def _fresh_service(tmp_path, name: str, **kwargs) -> JobService:
    kwargs.setdefault("cache_dir", tmp_path / name / "cache")
    kwargs.setdefault("state_path", tmp_path / name / "journal.jsonl")
    kwargs.setdefault("parallel", False)
    service = JobService(**kwargs)
    service.pool.supervise_interval = 0.05
    return service


class TestWorkerSupervision:
    def test_crash_is_detected_requeued_and_survived(self, tmp_path):
        install(FaultInjector.from_spec("task-crash:count=1", seed=3))
        service = _fresh_service(tmp_path, "crash", workers=1)
        try:
            job = service.submit("experiment", {"experiment": "warp"})
            service.start()
            _wait_all_terminal(service)
            final = service.job(job.id)
            assert final.state == DONE
            # Attempt 1 died with the worker; attempt 2 finished.
            assert final.attempts == 2
            reasons = [
                event.get("reason")
                for event in final.timeline
                if event.get("reason")
            ]
            assert "worker-crash" in reasons
            assert service.pool.stats.restarts >= 1
            assert service.scheduler.stats.retried >= 1
        finally:
            service.stop()

    def test_crash_budget_exhaustion_fails_the_job(self, tmp_path):
        # Crash every claim: the job burns its whole budget and must end
        # up failed (not stuck queued/running forever).
        install(FaultInjector.from_spec("task-crash", seed=3))
        service = _fresh_service(tmp_path, "budget", workers=1)
        try:
            job = service.submit("experiment", {"experiment": "warp"})
            service.start()
            _wait_all_terminal(service)
            final = service.job(job.id)
            assert final.state == FAILED
            assert "retry policy" in (final.error or "")
            assert final.attempts == 3  # the experiment kind's max_attempts
        finally:
            service.stop()

    def test_journal_recovery_under_load_with_followers(self, tmp_path):
        # A dedup follower of the crashed-and-retried primary must observe
        # the final (retried) result, while unrelated jobs run undisturbed.
        install(FaultInjector.from_spec("task-crash:count=1", seed=5))
        service = _fresh_service(tmp_path, "load", workers=2)
        try:
            primary = service.submit("experiment", {"experiment": "warp"})
            follower = service.submit("experiment", {"experiment": "warp"})
            assert follower.deduped_into == primary.id
            others = [
                service.submit(
                    "sweep",
                    {
                        "kernel": "matmul",
                        "memory_sizes": [16, 64],
                        "problem_size": 256 + i,
                        "analytic": True,
                    },
                )
                for i in range(4)
            ]
            service.start()
            _wait_all_terminal(service)
            assert service.job(primary.id).state == DONE
            final_follower = service.job(follower.id)
            assert final_follower.state == DONE
            assert final_follower.result == service.job(primary.id).result
            assert all(service.job(job.id).state == DONE for job in others)
        finally:
            service.stop()

    def test_stop_reports_hung_workers(self, tmp_path):
        # A worker wedged mid-job (the slow-task fault) cannot join in
        # time: stop() must say so instead of silently abandoning it.
        install(FaultInjector.from_spec("slow-task:count=1,delay=2.0"))
        service = _fresh_service(tmp_path, "hung", workers=1)
        try:
            service.submit("experiment", {"experiment": "warp"})
            service.start()
            deadline = time.monotonic() + 5.0
            while service.scheduler.queue_depth and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.05)  # let the worker reach the injected sleep
            clean = service.stop(timeout=0.2)
            assert clean is False
            assert service.pool.hung_workers
            # The hung worker is not forgotten: stopping again while it is
            # still stuck is unclean too, and leaves its journal open.
            assert service.stop(timeout=0.1) is False
            assert service.pool.hung_workers
        finally:
            uninstall()
        # Once it unblocks it journals its job, and a stop is clean and
        # closes the journal.
        assert service.stop(timeout=10.0) is True
        assert service.pool.hung_workers == []
        assert service.store._journal is None

    def test_clean_stop_returns_true(self, tmp_path):
        service = _fresh_service(tmp_path, "clean", workers=1)
        service.start()
        assert service.stop() is True
        assert service.pool.hung_workers == []


class TestAdmissionControl:
    def test_saturated_queue_sheds_with_retry_after(self, tmp_path):
        service = _fresh_service(tmp_path, "adm", workers=1, max_queue_depth=1)
        # Workers never started: the queue cannot drain.
        first = service.submit(
            "sweep",
            {"kernel": "matmul", "memory_sizes": [16], "analytic": True},
        )
        with pytest.raises(QueueSaturatedError) as excinfo:
            service.submit(
                "sweep",
                {"kernel": "fft", "memory_sizes": [16], "analytic": True},
            )
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after >= 1.0
        assert service.scheduler.stats.rejected == 1
        # A duplicate of in-flight work is free: admitted even saturated.
        follower = service.submit(
            "sweep",
            {"kernel": "matmul", "memory_sizes": [16], "analytic": True},
        )
        assert follower.deduped_into == first.id
        service.stop()

    def test_http_429_carries_retry_after_header(self, live_service, tmp_path):
        import http.client

        service, client = live_service(start=False, max_queue_depth=1, workers=1)
        series = 'repro_jobs_rejected_total{reason="saturated"} '

        def rejected() -> float:
            """The series as ``GET /metrics`` renders it; absent reads 0."""
            connection = http.client.HTTPConnection(client.host, client.port, timeout=5.0)
            try:
                connection.request("GET", "/metrics")
                text = connection.getresponse().read().decode()
            finally:
                connection.close()
            lines = [line for line in text.splitlines() if line.startswith(series)]
            return float(lines[0][len(series):]) if lines else 0.0

        client.submit(
            "sweep", {"kernel": "matmul", "memory_sizes": [16], "analytic": True}
        )
        before = rejected()
        connection = http.client.HTTPConnection(
            client.host, client.port, timeout=5.0
        )
        try:
            import json as json_mod

            connection.request(
                "POST",
                "/jobs",
                body=json_mod.dumps(
                    {
                        "kind": "sweep",
                        "params": {
                            "kernel": "fft",
                            "memory_sizes": [16],
                            "analytic": True,
                        },
                    }
                ).encode(),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            body = json_mod.loads(response.read())
        finally:
            connection.close()
        assert response.status == 429
        retry_after = response.getheader("Retry-After")
        assert retry_after is not None and int(retry_after) >= 1
        assert body["retry_after"] >= 1.0
        assert rejected() == before + 1

    def test_client_honors_retry_after_to_completion(self, live_service):
        # The acceptance path: a shed submission resubmits after the
        # server's hint and eventually completes once workers drain.
        service, client = live_service(start=False, max_queue_depth=1, workers=1)
        client.submit(
            "sweep", {"kernel": "matmul", "memory_sizes": [16], "analytic": True}
        )
        with pytest.raises(ServiceError) as excinfo:
            client.submit(
                "sweep",
                {"kernel": "fft", "memory_sizes": [16], "analytic": True},
            )
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after is not None

        results: dict = {}

        def resubmit() -> None:
            results["doc"] = client.submit_and_wait(
                "sweep",
                {"kernel": "fft", "memory_sizes": [16], "analytic": True},
                busy_timeout=30.0,
                timeout=30.0,
            )

        waiter = threading.Thread(target=resubmit, daemon=True)
        waiter.start()
        time.sleep(0.2)  # let the client absorb at least one 429
        service.start()
        waiter.join(30.0)
        assert not waiter.is_alive()
        assert results["doc"]["state"] == DONE


class TestDrain:
    def test_drain_finishes_inflight_then_refuses(self, live_service):
        service, client = live_service(workers=1)
        job = client.submit(
            "sweep", {"kernel": "matmul", "memory_sizes": [16], "analytic": True}
        )
        assert service.drain(timeout=15.0) is True
        assert service.job(job["id"]).state == DONE
        with pytest.raises(ServiceError) as excinfo:
            client.submit(
                "sweep", {"kernel": "fft", "memory_sizes": [16], "analytic": True}
            )
        assert excinfo.value.status == 503
        assert excinfo.value.retry_after is not None
        assert client.health()["draining"] is True

    def test_start_clears_draining(self, tmp_path):
        service = _fresh_service(tmp_path, "redrain", workers=1)
        service.start()
        assert service.drain(timeout=5.0) is True
        service.start()
        try:
            assert service.draining is False
            job = service.submit(
                "sweep",
                {"kernel": "matmul", "memory_sizes": [16], "analytic": True},
            )
            _wait_all_terminal(service)
            assert service.job(job.id).state == DONE
        finally:
            service.stop()


class TestAdaptiveWait:
    def test_timeout_surfaces_state_and_timeline(self, live_service):
        _, client = live_service(start=False, workers=1)
        job = client.submit(
            "sweep", {"kernel": "matmul", "memory_sizes": [16], "analytic": True}
        )
        with pytest.raises(ServiceError, match="queued"):
            client.wait(job["id"], timeout=0.3)
        try:
            client.wait(job["id"], timeout=0.3)
        except ServiceError as exc:
            message = str(exc)
            assert "attempts 0" in message
            assert "timeline tail" in message

    def test_no_request_holds_past_poll_or_deadline(self, live_service):
        _, client = live_service(start=False, workers=1)
        job = client.submit(
            "sweep", {"kernel": "matmul", "memory_sizes": [16], "analytic": True}
        )
        paths = _recorded_paths(client)
        start = time.monotonic()
        with pytest.raises(ServiceError, match="timed out"):
            client.wait(job["id"], timeout=1.0, poll=0.4)
        elapsed = time.monotonic() - start
        # Every request but the last long-polls the result; the last reads
        # the status for the timeout message.
        assert paths[-1] == f"/jobs/{job['id']}"
        result_path = f"/jobs/{job['id']}/result"
        assert all(path.startswith(result_path) for path in paths[:-1])
        holds = [_hold(path) for path in paths[:-1]]
        assert holds[:2] == [0.4, 0.4]
        assert holds[-1] < 0.4  # the deadline clipped the last hold
        assert sum(holds) <= 1.0 + 1e-3
        assert elapsed < 1.0 + 0.5

        # Half the socket timeout caps a hold too, so a held request never
        # trips the client's own timeout.
        short = ServiceClient("127.0.0.1", client.port, timeout=0.4)
        short_paths = _recorded_paths(short)
        with pytest.raises(ServiceError, match="timed out"):
            short.wait(job["id"], timeout=0.5, poll=5.0)
        assert max(_hold(path) for path in short_paths[:-1]) <= 0.2


class TestChaosAcceptance:
    """The PR's acceptance scenario, in-process for determinism."""

    SUBMISSIONS = [
        {
            "kernel": kernel,
            "memory_sizes": [16, 64, 256],
            "problem_size": size,
            "analytic": True,
        }
        for kernel, size in (
            ("matmul", 256),
            ("matmul", 512),
            ("fft", 256),
            ("fft", 512),
            ("sorting", 256),
            ("sorting", 512),
            ("matmul", 1024),
            ("fft", 1024),
        )
    ]

    def _run(self, tmp_path, name: str, *, port_client: bool = False):
        service = _fresh_service(tmp_path, name, workers=2)
        server = serve("127.0.0.1", 0, service)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        service.start()
        client = ServiceClient("127.0.0.1", server.port, timeout=10.0)
        ids: list[str] = [None] * len(self.SUBMISSIONS)

        def submit(index: int) -> None:
            job = client.submit(
                "sweep", dict(self.SUBMISSIONS[index]), busy_timeout=30.0
            )
            ids[index] = job["id"]

        threads = [
            threading.Thread(target=submit, args=(i,), daemon=True)
            for i in range(len(self.SUBMISSIONS))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        assert all(ids), "every concurrent submission must be admitted"
        results = [client.wait(job_id, timeout=30.0)["result"] for job_id in ids]
        return service, server, client, results

    def test_chaos_run_matches_fault_free_run(self, tmp_path):
        # Baseline, no faults.
        uninstall()
        service, server, client, baseline = self._run(tmp_path, "baseline")
        before = _faults_injected(client)
        server.shutdown()
        server.server_close()
        assert service.stop() is True

        # Chaos: a worker crash mid-job and one torn journal write, under
        # 8 concurrent submissions.
        install(
            FaultInjector.from_spec(
                "task-crash:count=1;journal-torn-write:count=1,after=3",
                seed=1986,
            )
        )
        service, server, client, chaotic = self._run(tmp_path, "chaos")
        try:
            fired = _faults_injected(client)
            for kind in ("task-crash", "journal-torn-write"):
                assert fired[kind] - before.get(kind, 0) == 1, kind
            # Every job reached done, and the results are identical to the
            # fault-free run's.
            assert chaotic == baseline
            # The retry machinery visibly did the work.
            assert service.scheduler.stats.retried >= 1
            assert service.pool.stats.restarts >= 1
            metrics = client.metrics()["metrics"]
            retry_samples = metrics["repro_job_retries_total"]["samples"]
            assert sum(sample["value"] for sample in retry_samples) >= 1
            restart_samples = metrics["repro_worker_restarts_total"]["samples"]
            assert sum(sample["value"] for sample in restart_samples) >= 1
        finally:
            server.shutdown()
            server.server_close()
            service.stop()
        uninstall()

        # The torn write left a repaired artifact the doctor understands:
        # journal WARNs (not FAILs), job progress passes, overall ok.
        state_path = tmp_path / "chaos" / "journal.jsonl"
        journal_findings = check_journal(state_path)
        assert journal_findings[0].status == "warn"
        assert "torn" in journal_findings[0].detail
        (progress,) = check_jobs(state_path)
        assert progress.status == "pass"
        report = run_doctor(
            cache_dir=tmp_path / "chaos" / "cache", state_path=state_path
        )
        assert report.ok

        # And the journal replays: a restarted service sees every job
        # terminal with its retry history intact.
        recovered = JobService(
            cache_dir=tmp_path / "chaos" / "cache",
            state_path=state_path,
            parallel=False,
        )
        assert all(job.terminal for job in recovered.jobs())
        assert any(job.attempts >= 2 for job in recovered.jobs())


class TestBestEffortDurability:
    def test_cache_write_failure_does_not_fail_jobs(self, tmp_path):
        install(FaultInjector.from_spec("cache-write-failure", seed=9))
        service = _fresh_service(tmp_path, "cachefail", workers=1)
        try:
            service.start()
            job = service.submit("experiment", {"experiment": "warp"})
            _wait_all_terminal(service)
            assert service.job(job.id).state == DONE
            stats = service.executor.task_runner.cache.stats
            assert stats.store_failures >= 1
            assert stats.stores == 0
        finally:
            service.stop()

    def test_torn_tail_is_repaired_on_next_append(self, tmp_path):
        state_path = tmp_path / "torn" / "journal.jsonl"
        install(FaultInjector.from_spec("journal-torn-write:count=1", seed=2))
        service = _fresh_service(
            tmp_path, "torn", workers=1, state_path=state_path
        )
        try:
            service.start()
            # First persist is torn; every later append must first repair
            # the tail so exactly one bad line remains, and every later
            # record parses.
            job = service.submit(
                "sweep",
                {"kernel": "matmul", "memory_sizes": [16], "analytic": True},
            )
            _wait_all_terminal(service)
            assert service.job(job.id).state == DONE
        finally:
            service.stop()
        lines = state_path.read_text().splitlines()
        assert len(lines) >= 3  # queued (torn), running, done
        parsed, bad = 0, 0
        import json as json_mod

        for line in lines:
            try:
                json_mod.loads(line)
                parsed += 1
            except json_mod.JSONDecodeError:
                bad += 1
        assert bad == 1 and parsed >= 2
        # Replay recovers the job, identity included, from later records.
        recovered = JobService(state_path=state_path, parallel=False)
        assert recovered.job(job.id).state == DONE
