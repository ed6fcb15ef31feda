"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests

The run tests start the benchmark at its smallest size, one pass per
workload, and take about a minute and a half together.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int, seed: int = 3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


_RESULTS = {}


def small_run(workload: str, trace: int):
    """(result line, run record) of one small run, cached per session."""
    key = (workload, trace)
    if key not in _RESULTS:
        proc = _run(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr[-2000:]
        lines = proc.stdout.strip().splitlines()
        _RESULTS[key] = (json.loads(lines[-1]), json.loads(lines[-2])["run_record"])
    return _RESULTS[key]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_small_run_emits_every_named_metric(workload, trace):
    result, _ = small_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for m in section:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    assert result["attempted"] >= 1
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0
                   for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_inputs_not_op_count_or_mix(workload):
    for size in workloads.SIZES:
        for p in range(3):
            a = workloads.plan_pass(workload, 1, p, size)
            b = workloads.plan_pass(workload, 2, p, size)
            assert a != b
            assert [op["kind"] for op in a] == [op["kind"] for op in b]
            assert a == workloads.plan_pass(workload, 1, p, size)


def test_gram_pairs_counts_rho3_failures_as_failed_ops():
    result, record = small_run("gram-pairs", 0)
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (9, 3)
    # The rho3 row is the last three ops of the pass.
    assert [f.split(":")[0] for f in record["failures"]] == [
        f"pass 0 op {i} gram" for i in (6, 7, 8)]
    assert all("ConvergenceError" in f for f in record["failures"])


def test_every_per_layer_metric_has_an_interaction_entry():
    groups = json.loads((BENCH / "interactions.json").read_text())["groups"]
    mapped = [m for g in groups for m in g["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    names = set(workloads.WORKLOADS)
    for g in groups:
        assert set(g["on"]) | set(g["flat_on"]) | set(g["zero_on"]) <= names


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_layers_read_zero_where_predicted(workload):
    result, _ = small_run(workload, 1)
    groups = json.loads((BENCH / "interactions.json").read_text())["groups"]
    for g in groups:
        for name in g["metrics"]:
            value = result["metrics"][name]["value"]
            if workload in g["zero_on"]:
                assert value == 0, name
            elif workload in g["on"] and not name.endswith("import_s"):
                assert value > 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "zeros-scan", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
