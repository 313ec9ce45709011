"""Smoke test of the benchmark at toy sizes (about four minutes on one core).

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs once untraced and once traced; each must verify clean
and print the metrics BENCHMARK.json names, with their units (every one of
them for the workloads BENCHMARK.json lists). A run whose outputs are
damaged before verification must report failures.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
LISTED = {w["name"] for w in SPEC["workloads"]}
WORKLOADS = ["extract_docs", "extract_plain_skewed", "registry_ops"]


def run(workload: str, trace: int, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "toy", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit(workload, trace):
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if workload in LISTED or trace:
        assert got == spec
    else:
        assert got.items() <= spec.items() and len(got) >= len(spec) - 1
    if trace:
        # the named spans' self times account for the replay's wall time
        assert abs(result["metrics"]["trace.replay_self_frac"]["value"] - 1) < 0.05
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["extract_docs", "registry_ops"])
def test_corrupted_output_fails_verification(workload):
    result = run(workload, 0, "--corrupt")
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
