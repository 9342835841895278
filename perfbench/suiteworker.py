"""One fresh interpreter running the suite workloads (``suite-cold``, ``suite-warm``).

``run.py`` starts this script several times per run.  A ``prime`` worker
first fills a cache root with one cold run of the full suite and its store
with :data:`HISTORY_DEPTH` recorded runs of it.  Every other start imports
the program, does the workload's first-call set-up, and prints ``ready``;
the time from process start to that line is one ``setup_s`` sample.  A
``setup`` worker exits there, a ``measure`` worker goes on to run timed ops
for ``--seconds`` and writes them as JSON to ``--out``.

suite-cold
    One op is ``run_suite("full")`` with the shipped ``repro suite``
    defaults (a parallel pool sized to the affinity mask) on a fresh cache
    root, so every kernel and simulator executes.
suite-warm
    One op builds fresh runners on the primed cache root and replays
    ``run_suite("full")``; nothing executes.

Either way the op records its result into a store that holds the primed
history, so the store depth is the same before every op.  After each op
the benchmark runs the store query behind ``repro report --suite full``
on that store, :data:`REPORT_REPEATS` times.  Each op is bracketed by
:mod:`hostspeed` probes, and the sample carries the host's slowdown over
the op and over its report queries.  In a traced run, odd ops run under
the layer probe and even ops run the shipped code untouched.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.runtime.cache import ResultCache  # noqa: E402
from repro.runtime.engine import SweepRunner  # noqa: E402
from repro.runtime.suites import run_suite  # noqa: E402
from repro.store.core import ResultStore  # noqa: E402
from repro.store.query import query, report_document  # noqa: E402
from repro.store.readers import ingest_payload  # noqa: E402

import golden  # noqa: E402
import hostspeed  # noqa: E402
from layerprobe import LayerProbe  # noqa: E402

#: Runs of the full suite in the warm workload's store before each op.
HISTORY_DEPTH = 20

#: Times the report query runs after each op; each run is one sample.
REPORT_REPEATS = 3


def _segments(store_root: Path) -> set[Path]:
    return set(store_root.glob("runs/*/*.json"))


def _runner(cache_root: Path) -> SweepRunner:
    return SweepRunner(parallel=True, cache=ResultCache(cache_root))


def prime(work: Path) -> None:
    """Fill the primed cache root and its store with ``HISTORY_DEPTH`` runs."""
    cache_root = work / "primed"
    result = run_suite("full", _runner(cache_root), record=False)
    store = ResultStore(cache_root / "store")
    payload = result.as_dict()
    for index in range(HISTORY_DEPTH):
        ingest_payload(store, {**payload, "run_id": f"history-{index:02d}"})


class SuiteOps:
    """The timed op of one suite workload, plus its correctness gate."""

    def __init__(self, workload: str, work: Path) -> None:
        self.workload = workload
        self.work = work
        self.golden = golden.load()
        self.primed = work / "primed"
        self.history = _segments(self.primed / "store")
        self.count = 0
        self.cpus = sorted(os.sched_getaffinity(0))

    def _cpu(self) -> int:
        """The CPU this op's single-threaded work runs on, a different one each op.

        One virtual CPU of a shared host can run slower than the other for
        tens of seconds.  A single-threaded process tends to stay on one CPU,
        so without pinning one run would see only the slow CPU and the next
        only the fast one.
        """
        return self.cpus[self.count % len(self.cpus)]

    def _pin(self) -> None:
        os.sched_setaffinity(0, {self._cpu()})

    def warm_up(self) -> None:
        """The first-call set-up a fresh interpreter pays before its first op."""
        if self.workload == "suite-warm":
            self.op(probe=None)
            return
        throwaway = self.work / "warm-up"
        run_suite("quick", _runner(throwaway))
        shutil.rmtree(throwaway)

    def op(self, probe: LayerProbe | None) -> dict:
        self.count += 1
        if self.workload == "suite-cold":
            cache_root = self.work / f"op-{self.count}"
            shutil.copytree(self.primed / "store", cache_root / "store")
        else:
            cache_root = self.primed
        # Built before pinning, so its pool is sized to the whole mask.
        runner = _runner(cache_root)
        before = hostspeed.probe()
        if self.workload == "suite-warm":
            self._pin()  # a replay executes nothing, so it needs no pool
        if probe is not None:
            probe.install_suite_layers()
        try:
            start = time.perf_counter()
            result = run_suite("full", runner)
            ran = time.perf_counter()
            self._pin()
            store = ResultStore(cache_root / "store")
            report_ms = []
            for _ in range(REPORT_REPEATS):
                started = time.perf_counter()
                records = query(store, suite="full")
                document = report_document(records, filters={"suite": "full"})
                report_ms.append((time.perf_counter() - started) * 1e3)
        finally:
            os.sched_setaffinity(0, self.cpus)
            if probe is not None:
                probe.uninstall()
        after = hostspeed.probe()
        alone = [self._cpu()]
        sample = {
            "ms": (ran - start) * 1e3,
            "report_ms": report_ms,
            # The cold op's pool runs on every CPU; the rest runs on one.
            "slowdown": hostspeed.slowdown(
                before, after, None if self.workload == "suite-cold" else alone
            ),
            "report_slowdown": hostspeed.slowdown(before, after, alone),
            "traced": probe is not None,
            "segments": store.run_count(),
        }
        problems = golden.check_suite(result.as_dict(), self.golden)
        if document["count"] < 1 or document["count"] != len(records):
            problems.append(f"report over the store returned {document['count']} records")
        caches = [result.runtime["cache"], result.runtime["task_cache"]]
        hits = sum(stats["hits"] for stats in caches)
        lookups = hits + sum(stats["misses"] for stats in caches)
        sample["hit_ratio"] = hits / lookups if lookups else 0.0
        if self.workload == "suite-warm" and hits != lookups:
            problems.append(f"warm replay missed the cache {lookups - hits} times")
        if probe is not None:
            layers = probe.drain()
            layers["store.query"] = {"ms": statistics.median(report_ms), "calls": 1.0}
            executed = self.golden["layers"] if self.workload == "suite-cold" else {}
            problems += golden.check_layers(layers, executed)
            sample["layers"] = layers
        sample["problems"] = problems
        if self.workload == "suite-cold":
            shutil.rmtree(cache_root)
        else:
            for path in _segments(self.primed / "store") - self.history:
                path.unlink()
        return sample


def _peak_rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(ops: SuiteOps, seconds: float, trace: bool) -> dict:
    probe = LayerProbe(ops.work / "spool") if trace else None
    samples = []
    deadline = time.perf_counter() + seconds
    # A traced run needs at least one untraced and one traced op.
    while len(samples) < (2 if trace else 1) or time.perf_counter() < deadline:
        traced = trace and len(samples) % 2 == 1
        samples.append(ops.op(probe if traced else None))
    return {"ops": samples, "peak_rss_mb": _peak_rss_mb()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("suite-cold", "suite-warm"), required=True)
    parser.add_argument("--role", choices=("prime", "setup", "measure"), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    if args.role == "prime":
        prime(args.work)
        return 0
    ops = SuiteOps(args.workload, args.work)
    ops.warm_up()
    print("ready", flush=True)
    if args.role == "measure":
        args.out.write_text(json.dumps(measure(ops, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
