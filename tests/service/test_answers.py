"""Warm jobs are answered at admission from the payload kept under their key.

A finished job of a recorded kind leaves its payload in the task cache
under its job key; a later submission with that key is created already
done, without a queue slot, a worker or a store ingest.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.service import JobService
from repro.service.jobs import DONE, FAILED, QUEUED, JobStore
from repro.service.scheduler import JOB_TABLE, JobScheduler

PACKAGE = Path(repro.__file__).resolve().parent

SWEEP = {"kernel": "fft", "memory_sizes": [4, 8, 64], "scale": 10}
EXPERIMENT = {
    "experiment": "pebble",
    "params": {
        "matmul_order": 4,
        "fft_points": 32,
        "matmul_memories": [4, 8],
        "fft_memories": [4, 8],
    },
}
RECORDED = [("sweep", SWEEP), ("experiment", EXPERIMENT)]


@pytest.fixture
def services(tmp_path):
    """Factory for in-process services on one cache root, stopped at exit."""
    built: list[JobService] = []

    def build(**kwargs) -> JobService:
        kwargs.setdefault("cache_dir", tmp_path / "cache")
        service = JobService(parallel=False, workers=1, **kwargs)
        built.append(service)
        return service

    yield build
    for service in built:
        service.stop()


def _run(service: JobService, kind: str, params: dict):
    return service.wait(service.submit(kind, params).id, 60.0)


@pytest.mark.parametrize(("kind", "params"), RECORDED, ids=["sweep", "experiment"])
class TestWarmRepeat:
    def test_is_answered_without_a_worker(self, services, kind, params):
        service = services().start()
        cold = _run(service, kind, params)
        answered = service.submit(kind, params)
        # Done on return from admission: nothing queued it or ran it.
        assert answered.state == DONE
        assert answered.key == cold.key and answered.id != cold.id
        assert answered.result == cold.result
        assert answered.attempts == 0
        assert [event["state"] for event in answered.timeline] == [QUEUED, DONE]
        assert service.executor.stats.jobs_executed == 1
        assert service.scheduler.stats.answered == 1
        assert service.scheduler.stats.completed == 2
        assert service.scheduler.queue_depth == 0
        document = service.trace(answered.trace_id)
        (root,) = document["tree"]
        assert root["name"] == "service.submit" and root["span_id"] == answered.id
        assert root["attributes"]["state"] == DONE
        assert [child["name"] for child in root["children"]] == ["scheduler.answer"]

    def test_takes_half_a_millisecond_and_adds_no_store_run(self, services, kind, params):
        service = services().start()
        _run(service, kind, params)
        # Joined, the worker has recorded the cold job's trace, and no
        # worker is left to run a repeat.
        assert service.pool.stop() is True
        runs = service.executor.result_store.run_count()
        seconds = []
        for _ in range(400):
            started = time.perf_counter()
            job = _run(service, kind, params)
            seconds.append(time.perf_counter() - started)
            assert job.state == DONE
        assert statistics.median(seconds) <= 0.5e-3
        assert service.executor.result_store.run_count() == runs
        assert service.executor.stats.jobs_executed == 1


def test_a_restarted_service_answers_at_admission(services):
    first = services().start()
    cold = _run(first, "sweep", SWEEP)
    assert first.stop() is True
    # Never started: no worker could run the repeat.
    restarted = services()
    job = restarted.submit("sweep", SWEEP)
    assert job.state == DONE and job.result == cold.result
    assert restarted.scheduler.stats.answered == 1
    assert restarted.executor.stats.jobs_executed == 0


def _boom(executor, params):
    raise RuntimeError("the run broke")


def test_failed_jobs_are_never_stored(services, monkeypatch):
    service = services().start()
    broken = dataclasses.replace(JOB_TABLE["experiment"], run=_boom)
    monkeypatch.setitem(JOB_TABLE, "experiment", broken)
    failed = _run(service, "experiment", EXPERIMENT)
    assert failed.state == FAILED
    assert len(service.executor.task_cache) == 0
    monkeypatch.undo()
    repeat = _run(service, "experiment", EXPERIMENT)
    assert repeat.state == DONE
    assert service.scheduler.stats.answered == 0
    assert service.executor.stats.jobs_executed == 2


def test_analytic_sweeps_are_never_stored(services):
    service = services().start()
    analytic = {"kernel": "matmul", "memory_sizes": [16, 64], "analytic": True}
    first = _run(service, "sweep", analytic)
    second = _run(service, "sweep", analytic)
    assert second.result == first.result
    assert service.scheduler.stats.answered == 0
    assert service.executor.stats.jobs_executed == 2
    assert len(service.executor.task_cache) == 0


def test_a_cleared_cache_runs_the_next_repeat(services, tmp_path):
    service = services().start()
    cold = _run(service, "sweep", SWEEP)
    assert main(["cache", "clear", "--cache-dir", str(tmp_path / "cache")]) == 0
    repeat = _run(service, "sweep", SWEEP)
    assert repeat.result["rows"] == cold.result["rows"]
    assert [event["state"] for event in repeat.timeline][-2:] == ["running", DONE]
    assert service.scheduler.stats.answered == 0
    assert service.executor.stats.jobs_executed == 2


#: Runs one small measured sweep through a ``JobService`` built on the
#: package at ``argv[1]``, optionally appending a comment to the source file
#: ``argv[3]`` after the service is built, and prints what happened.
_SERVICE_SCRIPT = """
import json, sys
from pathlib import Path
import repro
from repro.service import JobService

package, cache_dir, edit = sys.argv[1:]
assert Path(repro.__file__).parent == Path(package), repro.__file__
service = JobService(cache_dir=cache_dir or None, parallel=False, workers=1)
if edit:
    with open(Path(package) / edit, "a") as source:
        source.write("# edited after the service was built\\n")
service.start()
job = service.submit("sweep", {"kernel": "fft", "memory_sizes": [4, 8], "scale": 6})
job = service.wait(job.id, 120.0)
print(json.dumps({
    "key": job.key,
    "state": job.state,
    "answered": service.scheduler.stats.as_dict().get("answered", 0),
    "executed": service.executor.stats.jobs_executed,
}))
service.stop()
"""


@pytest.fixture
def package_copy(tmp_path: Path) -> Path:
    """A copy of the package's source in a directory of its own."""
    return shutil.copytree(
        PACKAGE, tmp_path / "src" / "repro", ignore=shutil.ignore_patterns("__pycache__")
    )


def _service_run(package: Path, cache_dir: Path | None = None, edit: str = "") -> dict:
    done = subprocess.run(
        [sys.executable, "-c", _SERVICE_SCRIPT, str(package), str(cache_dir or ""), edit],
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(package.parent)},
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_a_source_edit_turns_the_entry_into_a_miss(package_copy, tmp_path):
    cache = tmp_path / "cache"
    cold = _service_run(package_copy, cache)
    warm = _service_run(package_copy, cache)
    assert (cold["executed"], warm["answered"], warm["executed"]) == (1, 1, 0)
    with open(package_copy / "kernels" / "fft.py", "a") as source:
        source.write("# an edit that changes no behaviour\n")
    edited = _service_run(package_copy, cache)
    assert (edited["answered"], edited["executed"]) == (0, 1)
    assert edited["key"] != cold["key"] and edited["state"] == DONE


def test_a_service_keys_with_the_code_it_booted_on(package_copy):
    unedited = _service_run(package_copy)
    edited_after_boot = _service_run(package_copy, edit="kernels/fft.py")
    assert edited_after_boot["key"] == unedited["key"]
    # The edit does change the key of a process that starts after it.
    assert _service_run(package_copy)["key"] != unedited["key"]


def test_a_recovered_job_is_keyed_by_the_build_that_recovers_it(services, tmp_path):
    """A journaled key hashes the admitting build's code version; recovery
    re-keys the job, so a repeat attaches to it and is later answered."""
    journal = tmp_path / "jobs.jsonl"
    store = JobStore(journal)
    queued = JobScheduler(store).submit("experiment", {"experiment": "warp"})
    store.close()
    stale = "0" * 64  # a key no submission under this build computes
    journal.write_text(journal.read_text().replace(queued.key, stale))

    service = services(state_path=journal)
    recovered = service.job(queued.id)
    assert recovered.state == QUEUED and recovered.key == queued.key
    attached = service.submit("experiment", {"experiment": "warp"})
    assert attached.deduped_into == queued.id
    service.start()
    done = service.wait(attached.id, 60.0)
    assert done.state == DONE and service.job(queued.id).state == DONE
    assert service.executor.stats.jobs_executed == 1
    answered = service.submit("experiment", {"experiment": "warp"})
    assert answered.state == DONE and answered.result == done.result
    assert service.scheduler.stats.answered == 1
    # Only the record the admitting build wrote still carries its key.
    assert journal.read_text().count(stale) == 1
