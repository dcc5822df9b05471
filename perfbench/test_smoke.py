"""Toy-size checks of the benchmark itself; a few seconds each.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CATALOGUE = json.loads((HERE / "metrics.json").read_text())


def bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def test_catalogue_lists_every_benchmark_metric():
    listed = {m["name"]: m for m in CATALOGUE["end_to_end"] + CATALOGUE["per_layer"]}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        entry = listed[metric["name"]]
        assert entry["gated"] and (entry["unit"], entry["better"]) == (
            metric["unit"], metric["better"])
    gated = {name for name, entry in listed.items() if entry["gated"]}
    assert gated == {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert [w["name"] for w in CATALOGUE["workloads"] if w["gated"]] == [
        w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in CATALOGUE["workloads"]])
def test_smoke_run_reports_every_listed_metric(workload, trace):
    done = bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["attempted"] == record["attempted"]
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"] and value["value"] > 0
    assert record["workload"] == workload and record["threads"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(tmp_path, "reassemble", 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
