"""Smoke test of the benchmark itself: every workload at a tiny size, on
whatever backend is present (nothing is built), untraced and traced.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_emitted_and_no_op_fails(workload, trace):
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "0.4",
                "--trace", str(trace), "--no-build")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], "\n".join(lines[:-1])
    if not trace:
        # error_ratio is 0 on both backends
        assert result["metrics"]["success_ratio.compiled"]["value"] == 1.0
        assert result["metrics"]["success_ratio.pure"]["value"] == 1.0
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    with open(os.path.join(HERE, "run.py"), encoding="utf-8") as src:
        (bench / "run.py").write_text(src.read())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "points",
                           "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
