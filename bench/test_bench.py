"""Tiny-scale checks of the benchmark itself.

Run from the repository root: ``python3 -m pytest bench/test_bench.py -q``
(about two minutes on two cores).  Each workload runs at ``--scale
tiny`` with tracing off and on; every metric ``BENCHMARK.json`` names
for that mode must be printed with its unit, and the forced-mismatch
switch must make the oracles fail.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    MANIFEST = json.load(_fh)
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]


def _run(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--seconds", "1",
         "--scale", "tiny", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return proc, last


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc, last = _run("--workload", workload, "--seed", "3", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    section = MANIFEST["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in section} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["paper-cold", "service-mix"])
def test_forced_mismatch_fails_the_run(workload):
    proc, last = _run("--workload", workload, "--seed", "3", "--trace", "0",
                      "--force-mismatch")
    assert proc.returncode != 0
    result = json.loads(last)
    assert result["correct"] is False
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"),
         "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
