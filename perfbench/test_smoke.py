"""Smoke tests of the benchmark harness: shrunken cohorts, one round.

    python3 -m pytest -q perfbench/test_smoke.py

They run the real harness as a child process, so a broken harness fails here
in seconds rather than after a full benchmark run. They live outside
``tests/`` so that the package's own suite does not grow.
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


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload,trace", [("lovo_roundtrip", "0"), ("hct_roundtrip", "1"),
                                            ("ingest_score", "1")])
def test_smoke_run_is_correct(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"] for m in wanted} == set(result["metrics"])
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_rerun_at_same_seed_matches_hashes():
    for _ in range(2):
        proc = _run("--workload", "ingest_score", "--seed", "4", "--seconds", "1",
                    "--trace", "0", "--smoke")
        assert proc.returncode == 0, proc.stdout + proc.stderr


def test_without_sources_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("--workload", "lovo_roundtrip", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

