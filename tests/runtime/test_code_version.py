"""Every key covers all the code its task runs.

A key hashes the callable, the package's code version and the parameters
(:func:`~repro.runtime.tasks.task_key`).  The coverage tests trace each
task kind under ``sys.setprofile`` and fail naming any ``src/repro`` file
whose code ran but which :func:`~repro.runtime.tasks.code_version` does not
read: a cached result of such a task could outlive an edit of that file.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy
import pytest

import repro
from repro.runtime.engine import point_task
from repro.runtime.suites import EXPERIMENT_KINDS, KERNEL_FACTORIES, get_suite
from repro.runtime.tasks import Task, code_version, source_digest
from repro.service.scheduler import JOB_TABLE, job_kind, normalize_job_params
from repro.service.workers import JobExecutor

PACKAGE = Path(repro.__file__).resolve().parent

#: One submission of every ``JOB_TABLE`` entry, the suite kind on ``quick``.
JOB_SUBMISSIONS = {
    "sweep": ("sweep", {"kernel": "fft", "memory_sizes": [4, 8], "scale": 6}),
    "sweep-analytic": (
        "sweep",
        {"kernel": "matmul", "memory_sizes": [16, 64], "analytic": True},
    ),
    "experiment": ("experiment", {"experiment": "figure2"}),
    "suite": ("suite", {"suite": "quick"}),
}


def _point(name: str) -> Task:
    """One sweep point of a kernel, small enough for any dimension."""
    kernel = KERNEL_FACTORIES[name]()
    memory = max(16, 4 ** getattr(kernel, "dimension", 1), kernel.minimum_memory_words)
    return point_task(kernel, memory, scale=8)


def _first_quick_task(kind: str) -> Task:
    """The first task of the quick suite's first scenario of an experiment kind."""
    scenario = next(s for s in get_suite("quick").experiments if s.experiment == kind)
    return scenario.tasks()[0]


def _job_run(label: str) -> Callable[[], Any]:
    kind, params = JOB_SUBMISSIONS[label]
    params = normalize_job_params(kind, params)
    executor = JobExecutor(parallel=False)
    return lambda: job_kind(kind, params).run(executor, params)


def _traced_files(run: Callable[[], Any]) -> set[Path]:
    """The ``src/repro`` files whose code ran in ``run``, in any thread."""
    filenames: set[str] = set()

    def profile(frame: Any, event: str, arg: Any) -> None:
        if event == "call":
            filenames.add(frame.f_code.co_filename)

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)  # type: ignore[arg-type]
    paths = {Path(name).resolve() for name in filenames if name.endswith(".py")}
    return {path for path in paths if path.is_relative_to(PACKAGE)}


@pytest.fixture(scope="module")
def digest_files() -> set[Path]:
    """The files ``code_version()`` reads, recorded as it reads them."""
    read: set[Path] = set()
    read_bytes = Path.read_bytes

    def recording(path: Path) -> bytes:
        read.add(path.resolve())
        return read_bytes(path)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Path, "read_bytes", recording)
        assert code_version.__wrapped__() == code_version()
    return read


def _module(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


#: What the coverage tests trace: one sweep point of every kernel, the first
#: task of every experiment kind and the run of every job kind.
UNITS = [
    *(f"point-{name}" for name in KERNEL_FACTORIES),
    *(f"experiment-{kind}" for kind in EXPERIMENT_KINDS),
    *(f"job-{label}" for label in JOB_SUBMISSIONS),
]


def _traced_call(unit: str) -> Callable[[], Any]:
    """A job's run, or a task's callable on its parameters without the runtime around it."""
    kind, _, name = unit.partition("-")
    if kind == "job":
        return _job_run(name)
    task = _point(name) if kind == "point" else _first_quick_task(name)
    return partial(task.fn, **task.params)


class TestKeysCoverTheCodeThatRuns:
    @pytest.mark.parametrize("unit", UNITS)
    def test_every_file_that_ran_is_in_the_digest(self, unit, digest_files):
        traced = _traced_files(_traced_call(unit))
        assert len(traced) > 1, f"{unit}: the profiler saw no package code"
        uncovered = sorted(_module(path) for path in traced - digest_files)
        assert uncovered == [], f"{unit} ran code its key does not hash: {uncovered}"

    def test_the_job_submissions_cover_every_job_table_entry(self):
        submitted = [job_kind(kind, params) for kind, params in JOB_SUBMISSIONS.values()]
        entries = [e for top in JOB_TABLE.values() for e in (top, top.analytic) if e]
        assert sorted(map(id, submitted)) == sorted(map(id, entries))


@pytest.fixture
def package_copy(tmp_path: Path) -> Path:
    """A copy of the package's source in a directory of its own."""
    return shutil.copytree(
        PACKAGE, tmp_path / "repro", ignore=shutil.ignore_patterns("__pycache__")
    )


class TestSourceDigest:
    def test_reads_every_source_file_of_the_package(self, digest_files):
        assert digest_files == {path.resolve() for path in PACKAGE.rglob("*.py")}

    def test_a_copy_elsewhere_has_the_same_digest(self, package_copy):
        assert source_digest(package_copy) == code_version()

    @pytest.mark.parametrize(
        "relative", ["core/model.py", "kernels/matmul.py", "arrays/topology.py"]
    )
    def test_appending_a_byte_changes_the_digest(self, package_copy, relative):
        with open(package_copy / relative, "ab") as source:
            source.write(b"\n")
        assert source_digest(package_copy) != code_version()

    def test_adding_a_module_changes_the_digest(self, package_copy):
        (package_copy / "kernels" / "extra.py").write_text("")
        assert source_digest(package_copy) != code_version()


def _keys() -> dict[str, list[str]]:
    """One sweep point's key per kernel and the first task key per experiment kind."""
    return {
        "points": [_point(name).key() for name in KERNEL_FACTORIES],
        "tasks": [_first_quick_task(kind).key() for kind in EXPERIMENT_KINDS],
    }


def test_every_key_changes_with_numpy_version(monkeypatch):
    """Recipes and seeds name arrays only through numpy's generators."""
    before = _keys()
    monkeypatch.setattr(numpy, "__version__", "0.0.0+another-stream")
    after = _keys()
    for kind in ("points", "tasks"):
        assert all(b != a for b, a in zip(before[kind], after[kind], strict=True)), kind


def test_a_fresh_interpreter_computes_the_same_keys():
    path = os.pathsep.join([str(Path(__file__).parent), str(PACKAGE.parent)])
    script = "import json, test_code_version as t; print(json.dumps(t._keys()))"
    fresh = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert json.loads(fresh.stdout) == _keys()
