"""The ``service-mix`` workload: a closed loop of clients against ``repro serve``.

The server is a separate ``python -m repro serve`` process with its shipped
defaults (parallel, 2 worker threads, spans on) plus a ``--state-file``
journal and a fresh ``--cache-dir`` whose store already holds a fixed
history.  Each start is timed from process launch to the end of a warm-up
that submits one op of every kind: that is one ``setup_s`` sample.  One
server takes the load; a few more are started, timed and stopped before
and after it.

Every server, right after its warm-up, times ``GET /results`` over the
fixed history.  Both the start and the ``GET /results`` batch are
bracketed by :mod:`hostspeed` probes and scaled by the host's slowdown;
the client ops are not, because the client's poll interval, not the CPU,
sets their latency.  Then, on the measured server, :data:`CLIENTS` threads with
one connection each take ops from the seeded sequence of :mod:`mixgen` in
order; a client sends its next op only after the previous one completed.  After the window closes the
benchmark scrapes ``GET /metrics``, reads the server's peak RSS and journal
size, stops the server, and checks every job result against an in-process
evaluation of the same spec.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.exceptions import ServiceError  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402

import hostspeed  # noqa: E402
import mixgen  # noqa: E402
from layerprobe import LayerProbe  # noqa: E402

CLIENTS = 2

#: Every server starts on a store that already holds this many recorded
#: runs of the quick suite, so ``GET /results`` reads a fixed history.
HISTORY_RUNS = 40

#: Rounds of ``GET /results`` timed on each server, for ``report_p50_ms``.
#: A round queries each measured kernel once; the kernels' reports differ
#: in size, so a round, not a single query, is one sample.
REPORT_ROUNDS = 8

#: One op of each kind, outside the generator's spec space, run once per
#: server start so the first timed op pays no first-call set-up.
WARM_UP = (
    ("sweep", {"kernel": "fft", "memory_sizes": [8, 64], "problem_size": 256, "analytic": True}),
    ("sweep", {"kernel": "fft", "memory_sizes": [8, 64, 512], "scale": 8}),
    ("experiment", {"experiment": "systolic", "params": {"order": 4, "batches": 2, "seed": 0}}),
)

_IGNORED_RESULT_FIELDS = ("batch_jobs", "batch_grid_points")


class Server:
    """One ``repro serve`` process with its own journal and cache root."""

    def __init__(self, work: Path, history: Path) -> None:
        shutil.copytree(history, work / "cache" / "store")
        self.state_file = work / "jobs.jsonl"
        self.slowdowns: list[float] = []
        self._before = hostspeed.probe()
        self.started = time.perf_counter()
        self._log = open(work / "serve.log", "w")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--state-file", str(self.state_file),
                "--cache-dir", str(work / "cache"),
            ],
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
            env=env,
            cwd=work,
        )
        line = self.process.stdout.readline()
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.port = int(line.split("http://")[1].split()[0].rsplit(":", 1)[1])

    def client(self) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.port, timeout=60.0)

    def _scaled(
        self, value: float, before: dict[int, float], after: dict[int, float]
    ) -> float:
        self.slowdowns.append(hostspeed.slowdown(before, after))
        return value / self.slowdowns[-1]

    def warm_up(self) -> float:
        """Run the warm-up ops; returns seconds since the process launched.

        The harness polls every 2 ms here, so the figure is the server's
        readiness rather than the client's 50 ms first poll.
        """
        client = self.client()
        for kind, params in WARM_UP:
            client.submit_and_wait(kind, params, poll=0.002)
        client.results(kernel="fft")
        ready = time.perf_counter() - self.started
        return self._scaled(ready, self._before, hostspeed.probe())

    def _pin(self, cpus: set[int]) -> None:
        """Set the affinity of every thread of the server; new threads inherit it."""
        for task in Path(f"/proc/{self.process.pid}/task").iterdir():
            with contextlib.suppress(ProcessLookupError):
                os.sched_setaffinity(int(task.name), cpus)

    def report_latencies(self) -> list[float]:
        """Mean ``GET /results`` latency of each round, before any load.

        Each round runs the server and this client on one CPU, a different
        one each round, between two host-speed probes of that CPU.  One
        virtual CPU can run slower than the other for seconds, and a server
        thread tends to stay on one CPU, so without pinning a probe of both
        CPUs would not say how fast the query ran.
        """
        client = self.client()
        kernels = sorted(mixgen.MEASURED_SCALES)
        mask = os.sched_getaffinity(0)
        cpus = sorted(mask)
        latencies = []
        try:
            for index in range(REPORT_ROUNDS):
                cpu = cpus[index % len(cpus)]
                self._pin({cpu})
                os.sched_setaffinity(0, {cpu})
                before = hostspeed.probe()
                start = time.perf_counter()
                for kernel in kernels:
                    client.results(kernel=kernel)
                latency = (time.perf_counter() - start) * 1e3 / len(kernels)
                latencies.append(self._scaled(latency, before, hostspeed.probe()))
        finally:
            self._pin(mask)
            os.sched_setaffinity(0, mask)
        return latencies

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM line in the server's /proc status")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


class ClosedLoop:
    """Drives the op sequence through :data:`CLIENTS` client threads."""

    def __init__(self, server: Server, ops: list[dict[str, Any]], spool: Path | None) -> None:
        self.server = server
        self.ops = ops
        self.records: list[dict[str, Any]] = []
        self._next = 0
        self._finished: set[str] = set()
        self._lock = threading.Lock()
        self._traced = threading.local()
        # A traced run traces odd ops only; the flag is per client thread.
        self.probe = None
        if spool is not None:
            self.probe = LayerProbe(spool, active=lambda: getattr(self._traced, "on", False))

    def _take(self) -> int:
        with self._lock:
            index, self._next = self._next, self._next + 1
        return index

    def _run(self, client: ServiceClient, index: int) -> dict[str, Any]:
        op = self.ops[index]
        record: dict[str, Any] = {"index": index, "op": op["op"], "class": op["op"]}
        start = time.perf_counter()
        try:
            if op["op"] == "results":
                record["report"] = client.results(kernel=op["kernel"])
            else:
                key = mixgen.spec_key({"kind": op["kind"], "params": op["params"]})
                if op["op"] == "warm":
                    with self._lock:
                        record["class"] = "warm" if key in self._finished else "attach"
                first = client.submit(op["kind"], op["params"])
                second = client.submit(op["kind"], op["params"]) if op["op"] == "dup" else None
                record["result"] = client.wait(first["id"], timeout=60.0)["result"]
                if second is not None:
                    record["second"] = client.wait(second["id"], timeout=60.0)["result"]
                    record["attached"] = second["deduped_into"] is not None
                with self._lock:
                    self._finished.add(key)
        except ServiceError as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["ms"] = (time.perf_counter() - start) * 1e3
        record["end"] = time.perf_counter()
        return record

    def _client_thread(self, deadline: float) -> None:
        client = self.server.client()
        while time.perf_counter() < deadline:
            index = self._take()
            self._traced.on = self.probe is not None and index % 2 == 1
            record = self._run(client, index)
            record["traced"] = self._traced.on
            with self._lock:
                self.records.append(record)

    def run(self, seconds: float) -> float:
        """Run the loop for ``seconds``; returns the measured window."""
        if self.probe is not None:
            self.probe.install_client_layers()
        start = time.perf_counter()
        threads = [
            threading.Thread(target=self._client_thread, args=(start + seconds,))
            for _ in range(CLIENTS)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=seconds + 120)
                if thread.is_alive():
                    raise RuntimeError("a client thread did not finish its last op")
        finally:
            if self.probe is not None:
                self.probe.uninstall()
        self.records.sort(key=lambda record: record["index"])
        return max(record["end"] for record in self.records) - start


def scrape(client: ServiceClient) -> dict[str, float]:
    """Counters from ``GET /metrics``, summed over their labels."""
    metrics = client.metrics()["metrics"]

    def total(name: str) -> float:
        return sum(sample["value"] for sample in metrics.get(name, {}).get("samples", []))

    hits = total("repro_cache_hits_total")
    lookups = hits + total("repro_cache_misses_total")
    return {
        "dedup_attaches": total("repro_scheduler_dedup_attaches_total"),
        "cache_hit_ratio": hits / lookups if lookups else 0.0,
        "retries": total("repro_job_retries_total"),
        "rejected": total("repro_jobs_rejected_total"),
        "submitted": total("repro_jobs_submitted_total"),
    }


class Oracle:
    """In-process evaluation of a spec, for checking the service's results."""

    def __init__(self) -> None:
        self._memo: dict[str, Any] = {}

    def expected(self, kind: str, params: dict[str, Any]) -> Any:
        key = mixgen.spec_key({"kind": kind, "params": params})
        if key not in self._memo:
            self._memo[key] = json.loads(json.dumps(self._evaluate(kind, params)))
        return self._memo[key]

    @staticmethod
    def _evaluate(kind: str, params: dict[str, Any]) -> Any:
        from repro.runtime.engine import SweepRunner
        from repro.runtime.suites import build_kernel
        from repro.runtime.tasks import TaskRunner
        from repro.service.scheduler import analytic_sweep_payload, experiment_scenario

        if kind == "experiment":
            scenario = experiment_scenario(params["experiment"], params["params"])
            tasks = scenario.tasks()
            payload = scenario.as_payload(
                TaskRunner().run(tasks), task_keys=[task.key() for task in tasks]
            )
            return {"summary": payload["summary"], "task_keys": payload["task_keys"]}
        if params.get("analytic"):
            payload = analytic_sweep_payload(
                params["kernel"], params["memory_sizes"], params["problem_size"]
            )
            return {k: v for k, v in payload.items() if k not in _IGNORED_RESULT_FIELDS}
        sweep = SweepRunner().run_default(
            build_kernel(params["kernel"]), params["memory_sizes"], params["scale"]
        )
        return {"memory_sizes": list(sweep.memory_sizes), "rows": sweep.rows()}

    def check(self, op: dict[str, Any], record: dict[str, Any]) -> list[str]:
        """Problems with one op's response; an empty list means it is correct."""
        if "error" in record:
            return [f"op {record['index']} ({op['op']}): {record['error']}"]
        if op["op"] == "results":
            report = record["report"]
            if report.get("schema") != "repro-report/v1" or report["count"] != len(
                report["records"]
            ):
                return [f"op {record['index']}: malformed GET /results document"]
            return []
        expected = self.expected(op["kind"], op["params"])
        problems = []
        for field in ("result", "second"):
            if field in record:
                got = {key: record[field].get(key) for key in expected}
                if got != expected:
                    problems.append(
                        f"op {record['index']} ({op['op']} {op['kind']}): {field} differs "
                        "from the in-process evaluation"
                    )
        return problems


def seed_history(store_root: Path) -> None:
    """Record :data:`HISTORY_RUNS` runs of the quick suite into a store."""
    from repro.runtime.suites import run_suite
    from repro.store.core import ResultStore
    from repro.store.readers import ingest_payload

    payload = run_suite("quick", record=False).as_dict()
    store = ResultStore(store_root)
    for index in range(HISTORY_RUNS):
        ingest_payload(store, {**payload, "run_id": f"history-{index:02d}"})


def _server_sample(work: Path, history: Path) -> tuple[float, list[float], list[float]]:
    """Start, time and stop one server that takes no load."""
    server = Server(work, history)
    try:
        return server.warm_up(), server.report_latencies(), server.slowdowns
    finally:
        server.stop()


def run_service_mix(
    work: Path, *, seed: int, seconds: float, trace: bool, setup_split: tuple[int, int]
) -> dict[str, Any]:
    """Set up, run and check one ``service-mix`` run; returns its raw figures.

    ``setup_split`` says how many servers that take no load to start and
    time before and after the measured one.  Every server, the measured one
    included, adds one ``setup_s`` sample and :data:`REPORT_ROUNDS`
    ``GET /results`` samples over the same history, so both figures span
    the whole run rather than one moment of it.
    """
    before, after = setup_split
    history = work / "history"
    seed_history(history)
    samples = [_server_sample(work / f"idle-{index}", history) for index in range(before)]
    server = Server(work / "measured", history)
    ops = mixgen.generate(seed, int(200 * seconds) + 200)
    loop = ClosedLoop(server, ops, work / "spool" if trace else None)
    try:
        samples.append((server.warm_up(), server.report_latencies(), server.slowdowns))
        window = loop.run(seconds)
        counters = scrape(server.client())
        peak_rss_mb = server.peak_rss_mb()
        journal_bytes = server.state_file.stat().st_size
    finally:
        server.stop()
    samples += [
        _server_sample(work / f"idle-{before + index}", history) for index in range(after)
    ]
    oracle = Oracle()
    for record in loop.records:
        record["problems"] = oracle.check(loop.ops[record["index"]], record)
    return {
        "setup_s": [setup_s for setup_s, _, _ in samples],
        "records": loop.records,
        "window_s": window,
        "report_ms": [ms for _, latencies, _ in samples for ms in latencies],
        "slowdowns": [value for _, _, slowdowns in samples for value in slowdowns],
        "peak_rss_mb": peak_rss_mb,
        "journal_bytes": journal_bytes,
        "counters": counters,
        "samples": loop.probe.take() if loop.probe is not None else [],
    }
