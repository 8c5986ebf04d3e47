"""Smoke test of the benchmark: every workload, with its checks, at the
smallest sizes, untraced and traced.  Takes a few seconds:

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _run(cwd, *args, timeout=120):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_runs_and_checks(workload, trace):
    proc = _run(HERE.parent, "--workload", workload, "--seed", "7", "--seconds", "0",
                "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["attempted"] >= 1
    units = tracing.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS


def test_fails_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(tmp_path, "--workload", "long_words", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_magnus_reference_on_short_words():
    # x_0 x_1^-1 = (1 + x0)(1 - x1 + x1^2 - ...), cut at weight 2
    E = workloads.magnus([(0, 1), (1, -1)], 2)
    assert E == {(): 1, (0,): 1, (1,): -1, (0, 1): -1, (1, 1): 1}
    # free reduction leaves the expansion unchanged
    assert workloads.magnus([(0, 1), (1, 1), (1, -1)], 3) == workloads.magnus([(0, 1)], 3)


def test_closed_forms():
    assert [workloads._necklaces(2, p) for p in range(7)] == [1, 2, 3, 4, 6, 8, 14]
    assert [workloads._necklaces(3, p) for p in range(5)] == [1, 3, 6, 11, 24]
