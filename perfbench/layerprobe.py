"""Per-layer timing, taken from outside the program.

A :class:`LayerProbe` wraps the public entry points of each layer (the
sweep engine, the task runner, the caches, the kernels, the systolic array
simulators, the experiment drivers, the result store, the service client)
and records one sample per call: the layer name, its wall time and the
counts the call returned.  Nothing under ``src/`` changes; the wrappers are
installed for a traced op and removed after it, so untraced ops run the
shipped code untouched.

The suite runtime forks its process pool per batch, so a pool child
inherits the wrappers installed at fork time.  Samples taken in a child are
appended to a spool file named after its pid; :meth:`LayerProbe.drain`
collects them together with the samples taken in this process.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

#: Experiment kind for each experiment driver a task can call.
EXPERIMENT_DRIVERS = {
    "run_figure2_experiment": "figure2",
    "run_linear_array_experiment": "linear-array",
    "run_mesh_array_experiment": "mesh-array",
    "run_systolic_experiment": "systolic",
    "measure_pebble_point": "pebble",
    "run_warp_experiment": "warp",
}


class LayerProbe:
    """Installs timing wrappers and collects their samples."""

    def __init__(self, spool: Path, active: Callable[[], bool] = lambda: True) -> None:
        self.spool = Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        self.active = active
        self._owner = os.getpid()
        self._samples: list[dict[str, Any]] = []
        self._lock = threading.Lock()
        self._saved: list[tuple[Any, str, Any]] = []

    # -- samples -------------------------------------------------------------

    def record(self, layer: str, seconds: float, **counts: float) -> None:
        sample = {"layer": layer, "s": seconds, **counts}
        if os.getpid() == self._owner:
            with self._lock:
                self._samples.append(sample)
            return
        with open(self.spool / f"{os.getpid()}.jsonl", "a") as handle:
            handle.write(json.dumps(sample) + "\n")

    def take(self) -> list[dict[str, Any]]:
        """Every sample recorded since the last take, this process's first."""
        with self._lock:
            samples, self._samples = self._samples, []
        for path in sorted(self.spool.glob("*.jsonl")):
            samples.extend(json.loads(line) for line in path.read_text().splitlines())
            path.unlink()
        return samples

    def drain(self) -> dict[str, dict[str, float]]:
        """Per-layer totals (``ms``, ``calls`` and counts) since the last take."""
        samples = self.take()
        totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for sample in samples:
            entry = totals[sample.pop("layer")]
            entry["ms"] += sample.pop("s") * 1e3
            entry["calls"] += 1
            for name, value in sample.items():
                entry[name] += value
        return {layer: dict(entry) for layer, entry in totals.items()}

    # -- wrappers ------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str | Callable[..., str | None],
        counts: Callable[[Any], dict[str, float]] | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` as ``layer``.

        ``layer`` may be a function of the call's arguments that names the
        layer, or returns ``None`` for calls that belong to no layer.
        ``counts`` maps the call's return value to the counts to record.
        """
        original = getattr(owner, attr)
        probe = self

        @functools.wraps(original)
        def timed(*args: Any, **kwargs: Any) -> Any:
            name = layer(*args, **kwargs) if callable(layer) else layer
            if name is None or not probe.active():
                return original(*args, **kwargs)
            start = time.perf_counter()
            value = original(*args, **kwargs)
            seconds = time.perf_counter() - start
            probe.record(name, seconds, **(counts(value) if counts else {}))
            return value

        self._saved.append((owner, attr, original))
        setattr(owner, attr, timed)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- the layer tables ----------------------------------------------------

    def install_suite_layers(self) -> None:
        """Wrap the layers a suite run passes through."""
        from repro.arrays.systolic import LinearMatvecArray, OutputStationaryMatmulArray
        from repro.arrays.triangular_qr import GentlemanKungTriangularArray
        from repro.kernels.base import Kernel
        from repro.runtime import suites
        from repro.runtime.cache import ResultCache, TaskCache
        from repro.runtime.engine import SweepRunner
        from repro.runtime.tasks import Task, TaskRunner
        from repro.store import readers

        kernel_keys = {
            factory().name: key for key, factory in suites.kernel_factories().items()
        }

        def kernel_layer(kernel: Any, *args: Any, **kwargs: Any) -> str:
            return f"kernels.{kernel_keys.get(kernel.name, kernel.name)}"

        def kernel_counts(execution: Any) -> dict[str, float]:
            return {
                "ops": float(execution.cost.compute_ops),
                "words": float(execution.cost.io_words),
            }

        def experiment_layer(task: Any) -> str | None:
            kind = EXPERIMENT_DRIVERS.get(getattr(task.fn, "__name__", ""))
            return f"experiments.{kind}" if kind else None

        def array_counts(active_attr: str) -> Callable[[Any], dict[str, float]]:
            return lambda result: {
                "cycles": float(result.cycles),
                "active_cells": float(getattr(result, active_attr)),
            }

        self.wrap(SweepRunner, "run_plans", "runtime.engine.run_plans")
        self.wrap(TaskRunner, "run", "runtime.tasks.run")
        self.wrap(Task, "key", "runtime.tasks.key")
        self.wrap(ResultCache, "key_for", "runtime.cache.key")
        self.wrap(ResultCache, "load", "runtime.cache.load")
        self.wrap(TaskCache, "load", "runtime.cache.load")
        self.wrap(suites.SuiteResult, "as_dict", "runtime.suites.as_dict")
        self.wrap(readers, "ingest_payload", "store.ingest")
        self.wrap(Kernel, "execute", kernel_layer, kernel_counts)
        self.wrap(Task, "run", experiment_layer)
        self.wrap(
            OutputStationaryMatmulArray, "run", "arrays.mesh",
            array_counts("active_cell_cycles"),
        )
        self.wrap(
            LinearMatvecArray, "run", "arrays.matvec", array_counts("active_cell_cycles")
        )
        self.wrap(
            GentlemanKungTriangularArray, "run", "arrays.qr",
            array_counts("active_cell_steps"),
        )

    def install_client_layers(self) -> None:
        """Wrap the service client calls a closed-loop op makes."""
        from repro.service.client import ServiceClient

        self.wrap(ServiceClient, "submit", "service.submit")
        self.wrap(ServiceClient, "wait", "service.wait")
        self.wrap(ServiceClient, "job", "service.poll")
        self.wrap(ServiceClient, "results", "service.results")
