"""Tests for the job state machine and the persistent job store."""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.exceptions import ConfigurationError, ServiceError
from repro.service.jobs import (
    DONE,
    FAILED,
    MAX_TIMELINE_EVENTS,
    QUEUED,
    RUNNING,
    STATE_SCHEMA,
    Job,
    JobStore,
)

#: Journal lines replay must skip: no job object, a job without a kind, and
#: a job in a state the machine does not have.
MALFORMED_JOBS = pytest.mark.parametrize(
    "job",
    [None, {"id": "x"}, {"id": "x", "kind": "suite", "state": "bogus"}],
    ids=["null-job", "no-kind", "unknown-state"],
)


class TestJob:
    def test_starts_queued_with_fresh_id(self):
        store = JobStore()
        job = store.create("suite", {"suite": "quick"})
        assert job.state == QUEUED
        assert not job.terminal
        assert job.elapsed_seconds is None
        assert store.get(job.id) is job

    def test_as_dict_hides_result_by_default(self):
        store = JobStore()
        job = store.create("suite", {"suite": "quick"})
        store.mark_running(job)
        store.mark_done(job, {"answer": 42})
        assert "result" not in job.as_dict()
        assert job.as_dict()["has_result"] is True
        assert job.as_dict(include_result=True)["result"] == {"answer": 42}
        assert job.elapsed_seconds >= 0

    def test_unknown_job_is_a_404_service_error(self):
        with pytest.raises(ServiceError) as excinfo:
            JobStore().get("nope")
        assert excinfo.value.status == 404


class TestTransitions:
    def test_full_lifecycle(self):
        store = JobStore()
        job = store.create("suite", {"suite": "quick"})
        store.mark_running(job)
        assert job.state == RUNNING and job.started_at is not None
        store.mark_done(job, {"ok": True})
        assert job.state == DONE and job.terminal

    def test_queued_job_may_complete_directly(self):
        # The dedup path: a follower observes the primary's outcome without
        # ever running itself.
        store = JobStore()
        done = store.create("suite", {"suite": "quick"})
        store.mark_done(done, {"ok": True})
        failed = store.create("suite", {"suite": "quick"})
        store.mark_failed(failed, "primary failed")
        assert done.state == DONE and failed.state == FAILED
        assert failed.error == "primary failed"

    def test_terminal_states_are_final(self):
        store = JobStore()
        job = store.create("suite", {"suite": "quick"})
        store.mark_running(job)
        store.mark_done(job, None)
        with pytest.raises(ConfigurationError):
            store.mark_running(job)
        with pytest.raises(ConfigurationError):
            store.mark_failed(job, "too late")

    def test_requeue_rejects_terminal_jobs(self):
        store = JobStore()
        job = store.create("suite", {"suite": "quick"})
        store.mark_running(job)
        store.mark_failed(job, "boom")
        with pytest.raises(ConfigurationError):
            store.requeue(job)

    def test_state_counts(self):
        store = JobStore()
        store.create("suite", {"suite": "quick"})
        running = store.create("suite", {"suite": "full"})
        store.mark_running(running)
        counts = store.state_counts()
        assert counts == {QUEUED: 1, RUNNING: 1, DONE: 0, FAILED: 0}


class TestSettledWaits:
    def test_every_waiter_wakes_on_its_own_transition(self):
        """Many waiters, two finishers, a tiny switch interval: no lost wake-up."""
        store = JobStore()
        jobs = [store.create("suite", {"suite": "quick"}) for _ in range(16)]
        woke: dict[str, tuple[bool, float]] = {}

        def wait(job: Job) -> None:
            start = time.monotonic()
            settled = store.wait_terminal(job, 10.0)
            woke[job.id] = (settled, time.monotonic() - start)

        def finish(batch: list[Job]) -> None:
            for index, job in enumerate(batch):
                store.mark_running(job)
                if index % 2:
                    store.mark_done(job, {"id": job.id})
                else:
                    store.mark_failed(job, "boom")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            waiters = [threading.Thread(target=wait, args=(job,)) for job in jobs]
            idle: list[bool] = []
            drainer = threading.Thread(target=lambda: idle.append(store.wait_idle(10.0)))
            for thread in (*waiters, drainer):
                thread.start()
            finishers = [
                threading.Thread(target=finish, args=(jobs[k::2],)) for k in (0, 1)
            ]
            for thread in finishers:
                thread.start()
            for thread in (*finishers, *waiters, drainer):
                thread.join(20.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert idle == [True]
        assert sorted(woke) == sorted(job.id for job in jobs)
        # A lost notify would leave a waiter to time out after 10 s.
        assert all(settled and seconds < 5.0 for settled, seconds in woke.values())

    def test_wait_terminal_times_out_on_an_open_job(self):
        store = JobStore()
        job = store.create("suite", {"suite": "quick"})
        start = time.monotonic()
        assert store.wait_terminal(job, 0.2) is False
        assert time.monotonic() - start >= 0.2
        assert store.wait_idle(0.0) is False


class TestPersistence:
    def test_terminal_jobs_survive_restart_with_results(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path)
        job = store.create("experiment", {"experiment": "warp", "params": {}})
        store.mark_running(job)
        store.mark_done(job, {"summary": {"cell_not_io_starved": True}})
        store.close()

        recovered = JobStore(path)
        twin = recovered.get(job.id)
        assert twin.state == DONE
        assert twin.result == {"summary": {"cell_not_io_starved": True}}
        assert twin.created_at == pytest.approx(job.created_at)
        assert recovered.interrupted() == []

    def test_open_jobs_are_reported_as_interrupted(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path)
        queued = store.create("suite", {"suite": "quick"})
        running = store.create("suite", {"suite": "mixed"})
        store.mark_running(running)
        store.close()

        recovered = JobStore(path)
        interrupted = {job.id for job in recovered.interrupted()}
        assert interrupted == {queued.id, running.id}

    def test_truncated_tail_line_is_skipped(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path)
        job = store.create("suite", {"suite": "quick"})
        store.mark_running(job)
        store.mark_done(job, {"ok": True})
        store.close()
        with path.open("a") as handle:
            handle.write('{"schema": "repro-service-job/v1", "job": {"id": "tr')

        recovered = JobStore(path)
        assert recovered.get(job.id).state == DONE
        assert len(recovered) == 1

    def test_garbage_lines_are_skipped(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        path.write_text('not json\n[1, 2]\n{"schema": "other/v9", "job": {}}\n')
        assert len(JobStore(path)) == 0

    @MALFORMED_JOBS
    def test_malformed_snapshots_are_skipped(self, tmp_path, job):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path)
        done = store.create("suite", {"suite": "quick"})
        store.mark_running(done)
        store.mark_done(done, {"ok": True})
        store.close()
        with path.open("a") as handle:
            handle.write(json.dumps({"schema": STATE_SCHEMA, "job": job}) + "\n")

        recovered = JobStore(path)
        assert [job.id for job in recovered.jobs()] == [done.id]
        assert recovered.state_counts() == {QUEUED: 0, RUNNING: 0, DONE: 1, FAILED: 0}

    def test_later_snapshots_win(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path)
        job = store.create("suite", {"suite": "quick"})
        store.mark_running(job)
        store.mark_failed(job, "boom")
        store.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        states = [json.loads(line)["job"]["state"] for line in lines]
        assert states == [QUEUED, RUNNING, FAILED]
        assert JobStore(path).get(job.id).state == FAILED

    def test_transitions_share_one_journal_handle_until_close(self, tmp_path, monkeypatch):
        path = tmp_path / "jobs.jsonl"
        opened = []
        real_open = Path.open

        def counting_open(self, mode="r", *args, **kwargs):
            handle = real_open(self, mode, *args, **kwargs)
            if self == path and "a" in mode:
                opened.append(handle)
            return handle

        monkeypatch.setattr(Path, "open", counting_open)
        store = JobStore(path)
        for _ in range(3):
            job = store.create("suite", {"suite": "quick"})
            store.mark_running(job)
            store.mark_done(job, {"ok": True})
        assert len(opened) == 1
        store.close()
        assert opened[0].closed
        assert len(path.read_text().splitlines()) == 9
        # A transition after close() reopens the journal.
        store.create("suite", {"suite": "quick"})
        assert len(opened) == 2 and not opened[1].closed
        store.close()
        assert len(JobStore(path)) == 4

    def test_concurrent_transitions_keep_the_journal_line_oriented(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path)
        jobs = [store.create("suite", {"suite": "quick"}) for _ in range(8)]

        def finish(job: Job) -> None:
            store.mark_running(job)
            store.mark_done(job, {"ok": True})

        threads = [threading.Thread(target=finish, args=(job,)) for job in jobs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        store.close()

        recovered = JobStore(path)
        assert len(recovered) == 8
        assert all(job.state == DONE for job in recovered.jobs())


class TestRecoveryResilience:
    def test_stale_journal_entry_does_not_block_boot(self, tmp_path):
        # A queued job whose params no longer validate (e.g. a suite renamed
        # between versions) must not stop the service from starting; it is
        # marked failed instead.
        from repro.service.jobs import STATE_SCHEMA
        from repro.service.workers import JobService

        path = tmp_path / "jobs.jsonl"
        stale = {
            "schema": STATE_SCHEMA,
            "job": {
                "id": "stale0badjob",
                "kind": "suite",
                "params": {"suite": "renamed-away"},
                "state": QUEUED,
                "key": None,
                "created_at": 1.0,
            },
        }
        path.write_text(json.dumps(stale) + "\n")

        service = JobService(state_path=path, workers=1)
        service.stop()
        job = service.store.get("stale0badjob")
        assert job.state == FAILED
        assert "unrecoverable after restart" in job.error
        assert service.scheduler.queue_depth == 0


    @MALFORMED_JOBS
    def test_malformed_snapshot_does_not_block_boot(self, tmp_path, job):
        from repro.service.workers import JobService

        path = tmp_path / "jobs.jsonl"
        path.write_text(json.dumps({"schema": STATE_SCHEMA, "job": job}) + "\n")
        service = JobService(state_path=path, workers=1)
        assert len(service.store) == 0
        assert service.scheduler.queue_depth == 0

    def test_restart_recovery_spends_the_retry_budget(self, tmp_path):
        # Each boot claims the job and "dies" mid-attempt, leaving it running
        # in the journal.  Recovery retries it under its policy (3 attempts
        # for experiments), then fails it instead of requeueing forever.
        from repro.obs.doctor import check_jobs
        from repro.service.workers import JobService

        path = tmp_path / "jobs.jsonl"
        service = JobService(state_path=path, parallel=False)
        job_id = service.submit("experiment", {"experiment": "warp"}).id
        service.stop()
        claims = 0
        for _ in range(5):
            service = JobService(state_path=path, parallel=False)
            if not service.job(job_id).terminal:
                claimed = service.scheduler.claim(timeout=5.0)
                assert claimed is not None and claimed.id == job_id
                claims += 1
            service.stop()  # the crash: the journal still says running
        assert claims == 3
        final = JobService(state_path=path, parallel=False)
        final.stop()
        job = final.job(job_id)
        assert job.state == FAILED and job.attempts == 3
        assert job.error == (
            "interrupted by a restart and the retry policy is exhausted "
            "after 3 attempt(s)"
        )
        reasons = [event.get("reason") for event in job.timeline]
        assert reasons.count("restart-recovery") == 3  # boots 1-3 requeued it
        (progress,) = check_jobs(path)
        assert progress.status == "pass"


class TestTimelineCompaction:
    def _churn(self, store, job, cycles):
        for _ in range(cycles):
            store.mark_running(job)
            store.requeue(job, reason="test-churn")

    def test_timeline_keeps_only_the_recent_tail(self):
        store = JobStore()
        job = store.create("suite", {"suite": "quick"})
        # create records 1 event; each running/requeue cycle records 2 more.
        cycles = 30
        self._churn(store, job, cycles)
        total = 1 + 2 * cycles
        assert len(job.timeline) == MAX_TIMELINE_EVENTS
        assert job.truncated_transitions == total - MAX_TIMELINE_EVENTS
        # The tail is the *recent* history: it ends with the last requeue.
        assert job.timeline[-1]["state"] == QUEUED
        assert job.as_dict()["truncated_transitions"] == job.truncated_transitions

    def test_short_timelines_are_untouched(self):
        store = JobStore()
        job = store.create("suite", {"suite": "quick"})
        store.mark_running(job)
        store.mark_done(job, {"ok": True})
        assert len(job.timeline) == 3
        assert job.truncated_transitions == 0

    def test_truncation_count_survives_journal_replay(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path)
        job = store.create("suite", {"suite": "quick"})
        self._churn(store, job, 25)
        store.close()

        recovered = JobStore(path)
        twin = recovered.get(job.id)
        assert len(twin.timeline) == MAX_TIMELINE_EVENTS
        assert twin.truncated_transitions == job.truncated_transitions > 0
