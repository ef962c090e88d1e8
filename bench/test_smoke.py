"""Smoke test of the benchmark harness: every workload for one pass
(--seconds 0), untraced and traced, must be correct, report exactly the
metrics that BENCHMARK.json declares, and record the same inputs digest
either way.

    python -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@functools.cache
def _one_pass(trace: str) -> subprocess.CompletedProcess:
    return _run("--workload", "all", "--seed", "1", "--seconds", "0", "--trace", trace)


def _inputs_digests(stdout: str) -> dict[str, str]:
    """inputs_sha256 of each workload's env line, by workload."""
    env = [json.loads(ln.split(" env ", 1)[1]) for ln in stdout.splitlines()
           if ln.startswith("[") and " env " in ln]
    return {e["workload"]: e["inputs_sha256"] for e in env}


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_workload_one_pass(trace):
    proc = _one_pass(trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    expected = {f"{w['name']}.{m['name']}" for w in SPEC["workloads"] for m in declared}
    assert set(result["metrics"]) == expected
    units = {m["name"]: m["unit"] for m in declared}
    for key, metric in result["metrics"].items():
        assert metric["unit"] == units[key.split(".", 1)[1]]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_inputs_digest_does_not_depend_on_trace():
    untraced, traced = (_inputs_digests(_one_pass(t).stdout) for t in ("0", "1"))
    assert set(untraced) == {w["name"] for w in SPEC["workloads"]}
    assert untraced == traced


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "atlas-diff", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
