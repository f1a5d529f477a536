"""Checks of the benchmark itself (not part of the package's test suite).

    python3 -m pytest bench/test_repeat.py -q

Each case runs bench/run.py in a child process for one second of measuring.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Counts that depend only on the workload and the seed, never on timing.
EXACT_COUNTS = (
    "evolution.trotter_steps",
    "evolution.trotter_calls",
    "evolution.propagate_calls",
    "evolution.expm_calls",
    "liouvillian.dense_bytes",
    "serialize.bytes_written",
)


def _run(root: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def _result(root: Path, workload: str, seed: int, trace: int) -> dict:
    proc = _run(root, workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout + proc.stderr
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_counts_repeat_exactly(workload):
    first, second = (_result(ROOT, workload, 11, trace=1) for _ in range(2))
    assert [(n, v["unit"]) for n, v in first["metrics"].items()] == [
        (m["name"], m["unit"]) for m in SPEC["per_layer"]
    ]
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_untraced_run_reports_end_to_end_metrics():
    result = _result(ROOT, SPEC["workloads"][-1]["name"], 3, trace=0)
    assert {n: v["unit"] for n, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 1, trace=0)
    assert proc.returncode != 0
    assert proc.stdout == ""
