"""Benchmarks for the ``repro.service`` job layer.

Measures the two properties the service exists for, over a live HTTP
round-trip (real sockets, real JSON), and writes the machine-readable
``BENCH_service.json`` artifact at the repo root:

* **Warm-cache latency.**  A long-lived service amortises import and
  pool-spinup cost and keeps finished payloads under their job keys, so
  resubmitting a job is answered at admission instead of re-executing the
  kernels.
* **Dedup factor.**  Eight identical concurrent submissions collapse onto
  one execution of the underlying tasks; every submission observes the
  result.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import pytest
from conftest import emit

from repro.service import JobService, ServiceClient, serve

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_service.json"

SWEEP_SPEC = {"kernel": "fft", "memory_sizes": [4, 8, 64], "scale": 10}
#: Two of ``SWEEP_SPEC``'s points: the same point keys under another job key.
SWEEP_SUB_GRID = {**SWEEP_SPEC, "memory_sizes": [4, 64]}
EXPERIMENT_SPEC = {
    "experiment": "pebble",
    "params": {
        "matmul_order": 4,
        "fft_points": 32,
        "matmul_memories": [4, 8],
        "fft_memories": [4, 8],
    },
}


@pytest.fixture
def live_service(tmp_path):
    service = JobService(cache_dir=tmp_path / "cache", parallel=False, workers=2)
    server = serve("127.0.0.1", 0, service)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    client = ServiceClient("127.0.0.1", server.port, timeout=30.0)
    yield service, client
    server.shutdown()
    server.server_close()
    service.stop()


def _timed_submit(
    client: ServiceClient, kind: str, params: dict
) -> tuple[float, dict]:
    started = time.perf_counter()
    job = client.submit_and_wait(kind, params, timeout=300.0)
    return time.perf_counter() - started, job["result"]


def test_bench_submit_latency_cold_vs_warm(live_service):
    """Submit -> result round-trip, cold cache vs warm cache."""
    service, client = live_service
    service.start()

    cold_sweep, cold_sweep_result = _timed_submit(client, "sweep", SWEEP_SPEC)
    warm_sweep, warm_sweep_result = _timed_submit(client, "sweep", SWEEP_SPEC)
    cold_experiment, cold_experiment_result = _timed_submit(
        client, "experiment", EXPERIMENT_SPEC
    )
    warm_experiment, warm_experiment_result = _timed_submit(
        client, "experiment", EXPERIMENT_SPEC
    )

    # The warm pass was answered at admission: each job executed once, and
    # each repeat carries the cold run's payload.
    assert service.scheduler.stats.answered == 2
    assert service.executor.stats.jobs_executed == 2
    assert warm_sweep_result == cold_sweep_result
    assert warm_experiment_result == cold_experiment_result
    # A sweep over a sub-grid shares the cold sweep's point keys but not its
    # job key: it runs, and replays every one of its points.
    client.submit_and_wait("sweep", SWEEP_SUB_GRID, timeout=300.0)
    assert service.executor.result_cache.stats.hits == len(
        SWEEP_SUB_GRID["memory_sizes"]
    )
    # An experiment over a subset of the cold one's tasks replays them too.
    subset = {
        **EXPERIMENT_SPEC,
        "params": {**EXPERIMENT_SPEC["params"], "fft_memories": [4]},
    }
    client.submit_and_wait("experiment", subset, timeout=300.0)
    assert service.executor.task_runner.stats.cache_hits > 0

    payload = {
        "sweep": {"cold_seconds": cold_sweep, "warm_seconds": warm_sweep},
        "experiment": {
            "cold_seconds": cold_experiment,
            "warm_seconds": warm_experiment,
        },
    }
    emit(
        "Service submit->result latency over HTTP (cold vs warm cache)",
        f"sweep      : cold {cold_sweep * 1e3:8.2f} ms  "
        f"warm {warm_sweep * 1e3:8.2f} ms\n"
        f"experiment : cold {cold_experiment * 1e3:8.2f} ms  "
        f"warm {warm_experiment * 1e3:8.2f} ms",
    )
    test_bench_submit_latency_cold_vs_warm.payload = payload


def test_bench_dedup_factor_for_identical_jobs(live_service):
    """8 identical concurrent submissions run the underlying tasks once."""
    service, client = live_service
    submissions = 8

    # Queue every submission before the workers start, the worst case for a
    # thundering herd: all eight are in flight at once.
    started = time.perf_counter()
    jobs = [client.submit("sweep", SWEEP_SPEC) for _ in range(submissions)]
    service.start()
    for job in jobs:
        client.wait(job["id"], timeout=300.0)
    elapsed = time.perf_counter() - started

    deduped = service.scheduler.stats.deduped
    executed = service.executor.stats.jobs_executed
    stores = service.executor.result_cache.stats.stores
    assert deduped == submissions - 1
    assert executed == 1
    assert stores == len(SWEEP_SPEC["memory_sizes"])

    dedup_factor = submissions / executed
    payload = {
        "submissions": submissions,
        "jobs_executed": executed,
        "deduped": deduped,
        "task_stores": stores,
        "dedup_factor": dedup_factor,
        "elapsed_seconds": elapsed,
    }
    emit(
        "Service dedup: 8 identical concurrent sweep submissions",
        f"submissions    : {submissions}\n"
        f"jobs executed  : {executed}\n"
        f"deduped        : {deduped}\n"
        f"dedup factor   : {dedup_factor:.0f}x\n"
        f"total wall time: {elapsed * 1e3:.2f} ms",
    )

    latency = getattr(test_bench_submit_latency_cold_vs_warm, "payload", None)
    bench = {
        "schema": "repro-bench-service/v1",
        "latency": latency,
        "dedup": payload,
    }
    BENCH_PATH.write_text(json.dumps(bench, indent=2) + "\n")
    emit("Service benchmark artifact", f"wrote {BENCH_PATH.name}")
