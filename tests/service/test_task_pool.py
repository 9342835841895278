"""The job service's one task pool: shared by both workers, supervised, closed on stop."""

from __future__ import annotations

import os
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.runtime import tasks as tasks_module
from repro.runtime.tasks import Task
from repro.service import JobService
from repro.service.jobs import DONE
from repro.service.scheduler import JOB_TABLE

pytestmark = pytest.mark.skipif(
    not list(Path("/proc/self/task").glob("*/children")),
    reason="needs /proc/<pid>/task/<tid>/children",
)


def exit_on_first_call(marker: str) -> int:
    """Kill the pool child running it, the first time; then answer 7."""
    if not os.path.exists(marker):
        Path(marker).touch()
        os._exit(1)
    return 7


def _pool_starts() -> float:
    return tasks_module._METRIC_POOL_STARTS.value


def _children() -> set[int]:
    pids: set[int] = set()
    for path in Path("/proc/self/task").glob("*/children"):
        pids.update(int(pid) for pid in path.read_text().split())
    return pids


def _cold_sweep(scale: int) -> dict:
    return {"kernel": "matvec", "memory_sizes": [16, 64, 256], "scale": scale}


def _run_jobs(service: JobService, specs: list[dict]) -> None:
    jobs = [service.submit("sweep", spec) for spec in specs]
    for job in jobs:
        assert service.wait(job.id, 60.0).state == DONE


class TestServiceTaskPool:
    def test_a_child_death_is_retried_on_a_fresh_pool(self, tmp_path, monkeypatch):
        marker = str(tmp_path / "crashed-once")

        def run(executor, params):
            task = Task(fn=exit_on_first_call, params={"marker": marker})
            return {"value": executor.task_runner.run([task])[0]}

        monkeypatch.setitem(JOB_TABLE, "sweep", replace(JOB_TABLE["sweep"], run=run))
        service = JobService(parallel=True, max_workers=2, workers=1)
        before = _pool_starts()
        service.start()
        try:
            job = service.submit("sweep", _cold_sweep(40))
            finished = service.wait(job.id, 60.0)
        finally:
            service.stop()
        assert finished.state == DONE and finished.attempts == 2
        assert finished.result == {"value": 7}
        assert _pool_starts() - before == 2

    def test_two_workers_share_one_pool_of_max_workers_children(self):
        service = JobService(parallel=True, max_workers=2, workers=2)
        others = _children()
        seen: list[set[int]] = []
        done = threading.Event()

        def sample() -> None:
            while not done.is_set():
                seen.append(_children() - others)
                time.sleep(0.002)

        sampler = threading.Thread(target=sample)
        before = _pool_starts()
        service.start()
        sampler.start()
        try:
            _run_jobs(service, [_cold_sweep(scale) for scale in range(40, 48)])
        finally:
            done.set()
            sampler.join(10.0)
            service.stop()
        assert not sampler.is_alive()
        assert max(len(pids) for pids in seen) <= 2
        assert 0 < len(set().union(*seen)) <= 2  # the same PIDs across jobs
        assert _pool_starts() - before == 1

    def test_stop_joins_the_children_and_a_restart_forks_lazily(self):
        service = JobService(parallel=True, max_workers=2, workers=1)
        others = _children()
        service.start()
        try:
            _run_jobs(service, [_cold_sweep(40)])
            forked = _children() - others
            assert 0 < len(forked) <= 2
        finally:
            assert service.stop() is True
        assert not any(Path(f"/proc/{pid}").exists() for pid in forked)

        before = _pool_starts()
        service.start()
        try:
            assert _children() - others == set()  # nothing forked before a job
            _run_jobs(service, [_cold_sweep(41)])
            assert _pool_starts() - before == 1
            refork = _children() - others
            assert refork and not refork & forked
        finally:
            service.drain(timeout=30.0)
        assert not any(Path(f"/proc/{pid}").exists() for pid in refork)
        service.stop()
