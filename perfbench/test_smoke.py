"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Every workload runs once untraced and once traced.  Each run must exit 0,
pass every output check, and end with the result line carrying exactly the
metrics of ``BENCHMARK.json`` with their units.  A copy of the benchmark
without the hebsim sources must fail without printing a result.
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
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *BENCH["command"][1:], *args]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    out = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
              "--trace", trace, "--size", "tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    specs = BENCH["per_layer"] if trace == "1" else BENCH["end_to_end"]
    assert set(result["metrics"]) == {s["name"] for s in specs}
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))
    if trace == "0":
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, name


def test_fails_without_sources():
    bare = HERE / "results" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("results"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        out = run(bare, "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                  "--trace", "0")
        assert out.returncode != 0
        assert '"correct"' not in out.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
