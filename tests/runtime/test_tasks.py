"""Tests for the generic experiment-task runtime."""

from __future__ import annotations

import contextlib
import gc
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, TaskExecutionError
from repro.obs import spans as obs_spans
from repro.runtime import tasks as tasks_module
from repro.runtime.cache import MISS, TaskCache
from repro.runtime.engine import SweepRunner
from repro.runtime.suites import task_runner_for
from repro.runtime.tasks import (
    Task,
    TaskPool,
    TaskRunner,
    callable_code_version,
    default_worker_count,
    execute_tasks,
    openblas_threads,
    task_key,
)


def square(x: int) -> int:
    return x * x


def offset_square(x: int, offset: int = 0) -> int:
    return x * x + offset


class TestTask:
    def test_run_applies_params(self):
        assert Task(fn=square, params={"x": 7}).run() == 49

    def test_label_defaults_to_qualified_name(self):
        task = Task(fn=square, params={"x": 2})
        assert task.label.endswith("square")
        assert Task(fn=square, params={"x": 2}, name="sq2").label == "sq2"

    def test_rejects_non_callable(self):
        with pytest.raises(ConfigurationError):
            Task(fn=42, params={})

    def test_rejects_lambdas_and_nested_functions(self):
        with pytest.raises(ConfigurationError):
            Task(fn=lambda x: x, params={"x": 1})

        def nested(x):
            return x

        with pytest.raises(ConfigurationError):
            Task(fn=nested, params={"x": 1})

    def test_tasks_are_picklable(self):
        task = Task(fn=square, params={"x": 3}, name="sq3")
        clone = pickle.loads(pickle.dumps(task))
        assert clone.run() == 9
        assert clone.key() == task.key()


class TestTaskKey:
    def test_stable_across_calls(self):
        assert task_key(square, {"x": 5}) == task_key(square, {"x": 5})

    def test_sensitive_to_params(self):
        assert task_key(square, {"x": 5}) != task_key(square, {"x": 6})

    def test_sensitive_to_callable(self):
        assert task_key(square, {"x": 5}) != task_key(offset_square, {"x": 5})

    def test_sensitive_to_extra_modules(self):
        bare = task_key(square, {"x": 5})
        with_module = task_key(square, {"x": 5}, modules=("repro.pebble.game",))
        assert bare != with_module

    def test_code_version_covers_named_modules(self):
        bare = callable_code_version(square)
        extended = callable_code_version(square, ("repro.pebble.game",))
        assert bare != extended


class TestTaskCache:
    def test_store_and_load_round_trip(self, tmp_path):
        cache = TaskCache(tmp_path / "tasks")
        cache.store("ab" * 32, {"answer": 42}, label="probe")
        assert cache.load("ab" * 32) == {"answer": 42}
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    def test_missing_key_is_miss(self, tmp_path):
        cache = TaskCache(tmp_path / "tasks")
        assert cache.load("cd" * 32) is MISS
        assert cache.stats.misses == 1

    def test_cached_none_is_distinguishable_from_miss(self, tmp_path):
        cache = TaskCache(tmp_path / "tasks")
        cache.store("ef" * 32, None)
        assert cache.load("ef" * 32) is None

    def test_corrupt_entry_is_dropped_and_missed(self, tmp_path):
        cache = TaskCache(tmp_path / "tasks")
        key = "12" * 32
        cache.store(key, [1, 2, 3])
        path = cache._path(key)
        path.write_bytes(b"not a pickle")
        assert cache.load(key) is MISS
        assert not path.exists()

    def test_len_and_clear(self, tmp_path):
        cache = TaskCache(tmp_path / "tasks")
        cache.store("aa" * 32, 1)
        cache.store("bb" * 32, 2)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0


class TestTaskRunner:
    def test_serial_matches_parallel_bitwise(self):
        tasks = [Task(fn=offset_square, params={"x": x, "offset": 1}) for x in range(6)]
        serial = TaskRunner().run(tasks)
        parallel = TaskRunner(parallel=True, max_workers=2).run(tasks)
        assert serial == parallel == [x * x + 1 for x in range(6)]

    def test_results_preserve_submission_order(self):
        tasks = [Task(fn=square, params={"x": x}) for x in (5, 1, 4, 2)]
        assert TaskRunner(parallel=True, max_workers=2).run(tasks) == [25, 1, 16, 4]

    def test_warm_rerun_replays_from_cache(self, tmp_path):
        cache = TaskCache(tmp_path / "tasks")
        tasks = [Task(fn=square, params={"x": x}) for x in range(4)]
        cold = TaskRunner(cache=cache).run(tasks)
        assert cache.stats.misses == cache.stats.stores == 4
        warm = TaskRunner(cache=cache).run(tasks)
        assert cache.stats.hits == 4
        assert warm == cold

    def test_cache_distinguishes_params(self, tmp_path):
        cache = TaskCache(tmp_path / "tasks")
        runner = TaskRunner(cache=cache)
        runner.run([Task(fn=square, params={"x": 2})])
        runner.run([Task(fn=square, params={"x": 3})])
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2

    def test_run_one(self):
        assert TaskRunner().run_one(Task(fn=square, params={"x": 9})) == 81

    def test_invalid_max_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            TaskRunner(max_workers=0)

    def test_empty_batch(self):
        assert TaskRunner(parallel=True).run([]) == []


class TestExecuteTasks:
    def test_parallel_pool_produces_submission_order(self):
        tasks = [Task(fn=square, params={"x": x}) for x in range(8)]
        assert execute_tasks(tasks, TaskPool(3)) == [
            x * x for x in range(8)
        ]


def blas_threads_after_a_product() -> tuple[dict[str, int], int]:
    """A BLAS-heavy task: its OpenBLAS thread counts and how many threads
    its process runs, taken after the product."""
    a = np.ones((300, 300))
    a @ a
    time.sleep(0.05)  # keep this child busy so the other takes a task too
    return openblas_threads(), len(os.listdir("/proc/self/task"))


class TestOneBlasConfiguration:
    """One task key names one payload: BLAS bits depend on the thread count."""

    def test_order_300_systolic_task_has_one_payload(self):
        # GEMM and QR of order 300 differ between one and two BLAS threads
        # on some builds; every task now runs on one.
        from repro.experiments.arrays_section4 import systolic_task

        task = systolic_task(order=300, batches=1, qr_order=300, qr_rows=300)
        other = systolic_task(order=8, batches=1)
        alone = TaskRunner(parallel=True, max_workers=2).run([task])[0]
        pooled = TaskRunner(parallel=True, max_workers=2).run([task, other])[0]
        serial = TaskRunner().run([task])[0]
        assert alone == pooled == serial

    def test_in_process_batch_runs_one_blas_thread(self):
        if not openblas_threads():
            pytest.skip("no OpenBLAS loaded in this process")
        TaskRunner().run([Task(fn=square, params={"x": 4})])
        assert set(openblas_threads().values()) == {1}


class TestPoolChildrenRunOneBlasThread:
    def test_every_child_runs_one_thread(self):
        before = openblas_threads()
        if not before:
            pytest.skip("no OpenBLAS loaded in this process")
        tasks = [Task(fn=blas_threads_after_a_product) for _ in range(4)]
        results = execute_tasks(tasks, TaskPool(2))
        assert results == [({name: 1 for name in before}, 1)] * 4
        # The parent keeps its own BLAS threads.
        assert openblas_threads() == before


def test_default_worker_count_positive():
    assert default_worker_count() >= 1


def boom(x: int) -> int:
    raise ValueError(f"cannot handle x={x}")


class TestFailureLabels:
    def test_serial_failure_names_the_task(self):
        tasks = [
            Task(fn=square, params={"x": 2}),
            Task(fn=boom, params={"x": 3}, name="doomed-task"),
        ]
        with pytest.raises(TaskExecutionError) as excinfo:
            execute_tasks(tasks, None)
        assert excinfo.value.label == "doomed-task"
        assert "doomed-task" in str(excinfo.value)
        assert "cannot handle x=3" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_parallel_failure_names_the_task(self):
        tasks = [Task(fn=square, params={"x": 1})] + [
            Task(fn=boom, params={"x": x}, name=f"doomed-{x}") for x in (7, 8)
        ]
        with pytest.raises(TaskExecutionError) as excinfo:
            execute_tasks(tasks, TaskPool(2))
        # The first failure in submission order wins, as in a serial run.
        assert excinfo.value.label == "doomed-7"

    def test_runner_surfaces_the_label_too(self):
        with pytest.raises(TaskExecutionError) as excinfo:
            TaskRunner().run([Task(fn=boom, params={"x": 5}, name="doomed")])
        assert excinfo.value.label == "doomed"

    def test_default_label_is_the_qualified_name(self):
        with pytest.raises(TaskExecutionError) as excinfo:
            TaskRunner().run([Task(fn=boom, params={"x": 5})])
        assert excinfo.value.label.endswith("boom")


class TestInBatchDedup:
    def test_duplicate_tasks_execute_once(self):
        runner = TaskRunner()
        tasks = [Task(fn=square, params={"x": 3}) for _ in range(4)]
        assert runner.run(tasks) == [9, 9, 9, 9]
        assert runner.stats.executed == 1
        assert runner.stats.deduped == 3

    def test_dedup_preserves_order_across_mixed_batches(self):
        runner = TaskRunner()
        xs = [5, 1, 5, 4, 1, 5]
        tasks = [Task(fn=square, params={"x": x}) for x in xs]
        assert runner.run(tasks) == [x * x for x in xs]
        assert runner.stats.executed == 3
        assert runner.stats.deduped == 3

    def test_dedup_composes_with_the_cache(self, tmp_path):
        cache = TaskCache(tmp_path / "tasks")
        runner = TaskRunner(cache=cache)
        runner.run([Task(fn=square, params={"x": 2}) for _ in range(3)])
        assert runner.stats.executed == 1
        assert runner.stats.deduped == 2
        assert cache.stats.stores == 1
        # A warm rerun resolves everything from the cache.
        runner.run([Task(fn=square, params={"x": 2}) for _ in range(3)])
        assert runner.stats.cache_hits == 3
        assert runner.stats.executed == 1

    def test_stats_resolved_totals(self):
        runner = TaskRunner()
        runner.run([Task(fn=square, params={"x": x % 2}) for x in range(4)])
        stats = runner.stats
        assert stats.resolved == 4
        assert stats.as_dict() == {
            "executed": 2,
            "cache_hits": 0,
            "deduped": 2,
        }


def pid_of(i: int) -> int:
    """The PID of the process running task ``i`` (distinct keys, no dedup)."""
    return os.getpid()


def _pid_tasks(count: int, start: int = 0) -> list[Task]:
    return [Task(fn=pid_of, params={"i": i}) for i in range(start, start + count)]


def span_collection_on() -> bool:
    return obs_spans.enabled()


def _pool_starts() -> float:
    return tasks_module._METRIC_POOL_STARTS.value


def _children() -> set[int]:
    """PIDs of this process's live children (every thread's)."""
    pids: set[int] = set()
    for path in Path("/proc/self/task").glob("*/children"):
        pids.update(int(pid) for pid in path.read_text().split())
    return pids


def _gone(pid: int) -> bool:
    """Whether ``pid`` has exited (a zombie awaiting its reaper counts)."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] == "Z"
    except (FileNotFoundError, ProcessLookupError):  # reaped, or exiting as we read
        return True


def _wait_gone(pids: set[int], timeout: float = 10.0) -> set[int]:
    """The PIDs of ``pids`` still alive after up to ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        alive = {pid for pid in pids if not _gone(pid)}
        if not alive:
            return alive
        time.sleep(0.02)
    return {pid for pid in pids if not _gone(pid)}


needs_proc_children = pytest.mark.skipif(
    not list(Path("/proc/self/task").glob("*/children")),
    reason="needs /proc/<pid>/task/<tid>/children",
)


class TestTaskPool:
    def test_serial_and_one_worker_runners_own_no_pool(self):
        assert TaskRunner().pool is None
        assert TaskRunner(parallel=True, max_workers=1).pool is None
        assert SweepRunner(parallel=True, max_workers=1).pool is None

    def test_a_pool_forks_at_its_first_batch_and_reuses_its_children(self):
        before = _pool_starts()
        runner = TaskRunner(parallel=True, max_workers=2)
        assert _pool_starts() == before  # nothing forked yet
        first = set(runner.run(_pid_tasks(6)))
        second = set(runner.run(_pid_tasks(6, start=6)))
        assert os.getpid() not in first | second
        assert len(first | second) <= 2
        assert _pool_starts() == before + 1
        runner.pool.close()

    def test_concurrent_batches_share_one_fork_and_keep_their_order(self):
        pool = TaskPool(2)
        before = _pool_starts()
        results: dict[int, list[bool]] = {}
        start = threading.Barrier(6)

        def feed(thread: int) -> None:
            start.wait(10.0)  # every thread asks the unforked pool at once
            for batch in range(5):
                xs = [thread * 100 + batch * 10 + i for i in range(4)]
                got = execute_tasks([Task(fn=square, params={"x": x}) for x in xs], pool)
                results.setdefault(thread, []).append(got == [x * x for x in xs])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=feed, args=(t,)) for t in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            pool.close()
        assert results == {t: [True] * 5 for t in range(6)}
        assert _pool_starts() == before + 1

    def test_a_one_task_batch_runs_on_the_pool(self):
        runner = TaskRunner(parallel=True, max_workers=2)
        assert runner.run_one(Task(fn=pid_of, params={"i": 0})) != os.getpid()
        runner.pool.close()

    def test_a_suite_run_forks_once(self):
        from repro.runtime.suites import ExperimentScenario, Scenario, ScenarioSuite, run_suite

        suite = ScenarioSuite(
            name="pool-once",
            description="one sweep and one experiment",
            scenarios=(Scenario("fft", "fft", (8, 64), 6),),
            experiments=(ExperimentScenario("sys", "systolic", {"order": 4, "batches": 2}),),
        )
        runner = SweepRunner(parallel=True, max_workers=2)
        before = _pool_starts()
        run_suite(suite, runner, record=False)
        assert _pool_starts() == before + 1
        runner.pool.close()

    def test_a_dead_child_breaks_the_batch_and_the_next_batch_forks_afresh(self):
        pool = TaskPool(2)
        assert execute_tasks([Task(fn=square, params={"x": 3})], pool) == [9]
        before = _pool_starts()
        with pytest.raises(BrokenProcessPool):
            execute_tasks([Task(fn=os._exit, params={"status": 1})], pool)
        assert execute_tasks([Task(fn=square, params={"x": 4})], pool) == [16]
        assert _pool_starts() == before + 1
        pool.close()

    def test_a_long_lived_child_traces_only_what_its_task_ships(self):
        pool = TaskPool(2)
        obs_spans.enable()
        try:
            # Forked while this process traces: the children inherit a collector.
            assert execute_tasks([Task(fn=span_collection_on)], pool) == [True]
        finally:
            obs_spans.disable()
        assert execute_tasks([Task(fn=span_collection_on)], pool) == [False]
        pool.close()

    @needs_proc_children
    def test_close_joins_the_children_and_the_next_batch_forks_again(self):
        before_children = _children()
        pool = TaskPool(2)
        execute_tasks(_pid_tasks(4), pool)
        forked = _children() - before_children
        assert 0 < len(forked) <= 2
        pool.close()
        assert not forked & _children()
        before = _pool_starts()
        assert execute_tasks(_pid_tasks(1), pool)[0] not in forked
        assert _pool_starts() == before + 1
        pool.close()

    @needs_proc_children
    def test_a_dropped_runners_children_exit(self):
        before_children = _children()
        runner = SweepRunner(parallel=True, max_workers=2)
        task_runner_for(runner).run(_pid_tasks(4))
        forked = _children() - before_children
        assert forked
        del runner
        gc.collect()
        assert _wait_gone(forked) == set()

    @needs_proc_children
    def test_a_killed_owner_leaves_no_child_behind(self):
        owner = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "import os, time\n"
                "from repro.runtime.tasks import Task, TaskRunner\n"
                "runner = TaskRunner(parallel=True, max_workers=2)\n"
                "runner.run_one(Task(fn=os.getpid))\n"
                "print('ready', flush=True)\n"
                "time.sleep(60)\n",
            ],
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        children: set[int] = set()
        try:
            assert owner.stdout.readline().strip() == "ready"
            for path in Path(f"/proc/{owner.pid}/task").glob("*/children"):
                children.update(int(pid) for pid in path.read_text().split())
            assert len(children) == 2
            owner.kill()
            owner.wait()
            assert _wait_gone(children) == set()
        finally:
            owner.kill()
            owner.wait()
            owner.stdout.close()
            for pid in children:  # orphans, should the test fail
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
