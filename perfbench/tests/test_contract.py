"""BENCHMARK.json is well formed and matches what the benchmark prints."""

import json
import re
import shutil
import subprocess
import sys

import pytest

from common import ROOT

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_keys_and_limits():
    assert set(DECLARED) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    assert DECLARED["command"] == ["python3", "perfbench/run.py"]
    assert DECLARED["paths"] == ["perfbench"]
    assert 1 <= DECLARED["run_seconds"] <= 60
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    names += [w["name"] for w in DECLARED["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in DECLARED["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in DECLARED["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])
    assert len(DECLARED["per_layer"]) <= 128


def test_each_workload_records_why_it_was_chosen():
    workloads = DECLARED["workloads"]
    assert [w["name"] for w in workloads] == ["paper", "fleet"]
    for workload in workloads:
        assert set(workload) == {"name", "why"}
        assert workload["why"].strip()
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.slow
@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_equal_the_declared_ones(trace, key):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet", "--seed",
         "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0
    assert doc["attempted"] >= 1
    printed = {name: m["unit"] for name, m in doc["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in DECLARED[key]}
