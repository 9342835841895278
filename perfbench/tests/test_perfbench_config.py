"""``BENCHMARK.json`` lists exactly the workloads and metrics the benchmark prints."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def config():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_top_level_keys(config):
    assert set(config) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert config["command"] == ["python3", "perfbench/run.py"]
    assert config["paths"] == ["perfbench"]
    assert isinstance(config["run_seconds"], int) and 1 <= config["run_seconds"] <= 60


def test_workloads_are_the_ones_the_benchmark_runs(config):
    assert [workload["name"] for workload in config["workloads"]] == list(run.WORKLOADS)
    for workload in config["workloads"]:
        assert set(workload) == {"name", "why"}
        assert workload["why"] and "\n" not in workload["why"] and len(workload["why"]) <= 200


def test_end_to_end_metrics_match(config):
    listed = {metric["name"]: metric["unit"] for metric in config["end_to_end"]}
    assert listed == run.END_TO_END
    for metric in config["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(metric for metric in config["end_to_end"] if metric["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(metric["bound"] for metric in config["end_to_end"])


def test_per_layer_metrics_match(config):
    listed = {metric["name"]: metric["unit"] for metric in config["per_layer"]}
    assert listed == run.PER_LAYER
    for metric in config["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


def test_names_and_units_are_well_formed(config):
    names = [
        entry["name"]
        for group in ("workloads", "end_to_end", "per_layer")
        for entry in config[group]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in config["end_to_end"] + config["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")


def test_without_the_program_the_benchmark_refuses_to_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "suite-warm", "--seed", "1", "--seconds", "1"]) != 0
    assert "metrics" not in capsys.readouterr().out
