"""The repository benchmark: one command, three workloads, every metric by name.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 15 --trace 0

``--trace 0`` runs the workload untraced and prints the end-to-end metrics;
``--trace 1`` runs it with the layer probe on every other op and prints the
per-layer metrics.  Human-readable lines come first; the last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any, Mapping

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from benchstats import percentile, result_line  # noqa: E402

WORKLOADS = ("suite-cold", "suite-warm", "service-mix")

#: Fresh-process set-ups per run; ``setup_s`` is their median.  They are
#: split around the window so one slow spell of the host skews fewer.  On
#: ``service-mix`` the measured server is one of them.
SETUP_SAMPLES = 5


def _setup_split() -> tuple[int, int]:
    """Set-ups to take before and after the measured one."""
    before = (SETUP_SAMPLES - 1) // 2
    return before, SETUP_SAMPLES - 1 - before

#: Seconds a worker process may take beyond the measured window.
WORKER_GRACE = 150

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
    "report_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

SUITE_KERNELS = (
    "matmul", "triangularization", "grid2d", "grid3d", "fft",
    "sorting", "matvec", "triangular_solve", "sparse_matvec",
)
ARRAYS = ("mesh", "matvec", "qr")
EXPERIMENTS = ("figure2", "linear-array", "mesh-array", "systolic", "pebble", "warp")

#: Suite layers timed as a whole: metric name -> probe layer.
_SUITE_LAYER_TIMES = {
    "runtime.engine.run_plans_ms": "runtime.engine.run_plans",
    "runtime.tasks.run_ms": "runtime.tasks.run",
    "runtime.tasks.key_ms": "runtime.tasks.key",
    "runtime.cache.key_ms": "runtime.cache.key",
    "runtime.cache.load_ms": "runtime.cache.load",
    "runtime.suites.as_dict_ms": "runtime.suites.as_dict",
    "store.ingest_ms": "store.ingest",
    "store.query_ms": "store.query",
    **{f"experiments.{kind}.ms": f"experiments.{kind}" for kind in EXPERIMENTS},
}

#: The layers that together make up one suite op.
_SUITE_TOP_LAYERS = (
    "runtime.engine.run_plans", "runtime.tasks.run", "runtime.suites.as_dict", "store.ingest",
)


def _per_layer_units() -> dict[str, str]:
    units = {name: "ms" for name in _SUITE_LAYER_TIMES}
    units["runtime.cache.hit_ratio"] = "ratio"
    units["store.segments"] = "count"
    for kernel in SUITE_KERNELS:
        units.update({
            f"kernels.{kernel}.ms": "ms",
            f"kernels.{kernel}.ops": "count",
            f"kernels.{kernel}.words": "count",
            f"kernels.{kernel}.ns_per_op": "ns/op",
        })
    for array in ARRAYS:
        units.update({
            f"arrays.{array}.ms": "ms",
            f"arrays.{array}.cycles": "count",
            f"arrays.{array}.active_cells": "count",
        })
    units.update({
        "service.submit_ms": "ms",
        "service.wait_ms": "ms",
        "service.polls_per_job": "count",
        "service.results_ms": "ms",
        "service.journal_bytes_per_job": "bytes",
        "service.dedup_attaches": "count",
        "service.cache_hit_ratio": "ratio",
        "service.retries": "count",
        "service.rejected": "count",
        "service.warm_job_p50_ms": "ms",
        "service.cold_job_p50_ms": "ms",
        "op_p90_ms": "ms",
        "obs.tracing_overhead_frac": "ratio",
        "obs.attributed_frac": "ratio",
        "host.slowdown": "ratio",
    })
    return units


PER_LAYER = _per_layer_units()


# ---------------------------------------------------------------------------
# Suite workloads: fresh worker processes.
# ---------------------------------------------------------------------------


def _worker(workload: str, role: str, work: Path, **options: Any) -> float:
    """Run one suite worker; returns seconds from launch to its ``ready`` line.

    For a ``setup`` worker the seconds are scaled by the host's slowdown,
    probed just before the launch and just after the worker exits.
    """
    before = hostspeed.probe()
    command = [
        sys.executable, str(HERE / "suiteworker.py"),
        "--workload", workload, "--role", role, "--work", str(work),
    ]
    for name, value in options.items():
        command += [f"--{name}", str(value)]
    started = time.perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=work)
    try:
        ready = process.stdout.readline().strip()
        elapsed = time.perf_counter() - started
        process.stdout.read()
        code = process.wait(timeout=options.get("seconds", 0) + WORKER_GRACE)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    if code != 0 or (role != "prime" and ready != "ready"):
        raise RuntimeError(f"suite worker {role} exited with code {code} (said {ready!r})")
    return elapsed / hostspeed.slowdown(before, hostspeed.probe())


def run_suite_workload(workload: str, work: Path, seconds: float, trace: bool) -> dict:
    """Prime, then the set-ups around the measured worker.

    The measured worker starts its first op right after ``ready``, so no
    probe can follow its set-up; one more set-up worker takes its place.
    """
    _worker(workload, "prime", work)
    before, after = _setup_split()
    setup = [_worker(workload, "setup", work) for _ in range(before)]
    out = work / "measure.json"
    _worker(workload, "measure", work, seconds=seconds, trace=int(trace), out=out)
    setup += [_worker(workload, "setup", work) for _ in range(after + 1)]
    return {"setup_s": setup, **json.loads(out.read_text())}


def _median_or_none(values: list[float]) -> float | None:
    return median(values) if values else None


def _layer_median(ops: list[dict], layer: str, field: str = "ms") -> float:
    return median([op["layers"].get(layer, {}).get(field, 0.0) for op in ops])


def summarize_suite(raw: dict) -> tuple[dict[str, float], dict[str, float], list[str], int]:
    """End-to-end figures, per-layer figures, problems and failed ops of a suite run."""
    ops = raw["ops"]
    plain = [op for op in ops if not op["traced"]]
    traced = [op for op in ops if op["traced"]]
    latencies = [op["ms"] / op["slowdown"] for op in plain]
    figures = {
        "setup_s": median(raw["setup_s"]),
        "op_p50_ms": median(latencies),
        "ops_per_s": len(plain) / sum(latencies) * 1e3,
        "report_p50_ms": median(
            [ms / op["report_slowdown"] for op in plain for ms in op["report_ms"]]
        ),
        "peak_rss_mb": raw["peak_rss_mb"],
        "op_p90_ms": percentile(latencies, 90),
        "wall_op_p50_ms": median([op["ms"] for op in plain]),
        "host_slowdown": median([op["slowdown"] for op in ops]),
    }
    layers = dict.fromkeys(PER_LAYER, 0.0)
    if traced:
        for name, layer in _SUITE_LAYER_TIMES.items():
            layers[name] = _layer_median(traced, layer)
        for kernel in SUITE_KERNELS:
            layer = f"kernels.{kernel}"
            for field in ("ms", "ops", "words"):
                layers[f"{layer}.{field}"] = _layer_median(traced, layer, field)
            if layers[f"{layer}.ops"]:
                layers[f"{layer}.ns_per_op"] = layers[f"{layer}.ms"] * 1e6 / layers[f"{layer}.ops"]
        for array in ARRAYS:
            for field in ("ms", "cycles", "active_cells"):
                layers[f"arrays.{array}.{field}"] = _layer_median(traced, f"arrays.{array}", field)
        layers["host.slowdown"] = figures["host_slowdown"]
        layers["runtime.cache.hit_ratio"] = median([op["hit_ratio"] for op in traced])
        layers["store.segments"] = median([op["segments"] for op in traced])
        layers["op_p90_ms"] = figures["op_p90_ms"] or 0.0
        layers["obs.tracing_overhead_frac"] = (
            median([op["ms"] / op["slowdown"] for op in traced]) / figures["op_p50_ms"] - 1
        )
        layers["obs.attributed_frac"] = median([
            sum(op["layers"].get(layer, {}).get("ms", 0.0) for layer in _SUITE_TOP_LAYERS)
            / op["ms"]
            for op in traced
        ])
    problems = [problem for op in ops for problem in op["problems"]]
    failed = sum(1 for op in ops if op["problems"])
    return figures, layers, problems, failed


# ---------------------------------------------------------------------------
# The service workload: this process is the load generator.
# ---------------------------------------------------------------------------


def summarize_service(raw: dict) -> tuple[dict[str, float], dict[str, float], list[str], int]:
    """End-to-end figures, per-layer figures, problems and failed ops of a service run."""
    records = raw["records"]
    plain = [record for record in records if not record["traced"]]
    traced = [record for record in records if record["traced"]]
    latencies = [record["ms"] for record in plain]
    figures = {
        "setup_s": median(raw["setup_s"]),
        "op_p50_ms": median(latencies),
        "ops_per_s": len(records) / raw["window_s"],
        "report_p50_ms": median(raw["report_ms"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "op_p90_ms": percentile(latencies, 90),
        "host_slowdown": median(raw["slowdowns"]),
        "warm_job_p50_ms": _median_or_none([r["ms"] for r in plain if r["class"] == "warm"]),
        "cold_job_p50_ms": _median_or_none([r["ms"] for r in plain if r["class"] == "cold"]),
    }
    layers = dict.fromkeys(PER_LAYER, 0.0)
    counters = raw["counters"]
    layers.update({
        "service.journal_bytes_per_job": raw["journal_bytes"] / counters["submitted"],
        "service.dedup_attaches": counters["dedup_attaches"],
        "service.cache_hit_ratio": counters["cache_hit_ratio"],
        "service.retries": counters["retries"],
        "service.rejected": counters["rejected"],
        "service.warm_job_p50_ms": figures["warm_job_p50_ms"] or 0.0,
        "service.cold_job_p50_ms": figures["cold_job_p50_ms"] or 0.0,
        "op_p90_ms": figures["op_p90_ms"] or 0.0,
        "host.slowdown": figures["host_slowdown"],
    })
    if traced:
        calls: dict[str, list[float]] = {}
        for sample in raw["samples"]:
            calls.setdefault(sample["layer"], []).append(sample["s"] * 1e3)
        for name in ("submit", "wait", "results"):
            if calls.get(f"service.{name}"):
                layers[f"service.{name}_ms"] = median(calls[f"service.{name}"])
        waits = len(calls.get("service.wait", ()))
        layers["service.polls_per_job"] = len(calls.get("service.poll", ())) / max(1, waits)
        layers["obs.tracing_overhead_frac"] = (
            median([r["ms"] for r in traced]) / figures["op_p50_ms"] - 1
        )
        client_ms = sum(
            sum(calls.get(f"service.{name}", ())) for name in ("submit", "wait", "results")
        )
        layers["obs.attributed_frac"] = client_ms / sum(r["ms"] for r in traced)
    problems = [problem for record in records for problem in record["problems"]]
    failed = sum(1 for record in records if record["problems"])
    return figures, layers, problems, failed


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def environment() -> dict[str, Any]:
    """Where and on what a run was measured."""
    from repro.obs.metrics import build_info

    return {
        **build_info(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg": [round(value, 2) for value in os.getloadavg()],
    }


def _print_figures(
    title: str, figures: Mapping[str, float | None], units: Mapping[str, str]
) -> None:
    print(title)
    for name, value in figures.items():
        shown = "n/a (too few samples)" if value is None else f"{value:.6g} {units[name]}"
        print(f"  {name:<36s} {shown}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    work = ROOT / ".perfbench-tmp" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        print(f"env {json.dumps(environment(), sort_keys=True)}")
        if args.workload == "service-mix":
            from serviceload import run_service_mix

            raw = run_service_mix(
                work, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                setup_split=_setup_split(),
            )
            figures, layers, problems, failed = summarize_service(raw)
            attempted = len(raw["records"])
        else:
            # The suite definitions fix their problems; the seed selects nothing.
            raw = run_suite_workload(args.workload, work, args.seconds, bool(args.trace))
            figures, layers, problems, failed = summarize_suite(raw)
            attempted = len(raw["ops"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    for problem in problems[:20]:
        print(f"INCORRECT: {problem}")
    extra_units = {"op_p90_ms": "ms", "warm_job_p50_ms": "ms", "cold_job_p50_ms": "ms",
                   "wall_op_p50_ms": "ms", "host_slowdown": "ratio", "failed_frac": "ratio"}
    figures["failed_frac"] = failed / attempted
    _print_figures(
        f"{args.workload}: {attempted} ops, seed {args.seed}, trace {args.trace}",
        figures, {**END_TO_END, **extra_units},
    )
    if args.trace:
        _print_figures("per-layer (traced ops)", layers, PER_LAYER)
        chosen = {name: (layers[name], unit) for name, unit in PER_LAYER.items()}
    else:
        chosen = {name: (figures[name], unit) for name, unit in END_TO_END.items()}
    print(result_line(correct=not problems, attempted=attempted, failed=failed, metrics=chosen))
    return 0


if __name__ == "__main__":
    sys.exit(main())
