"""Every benchmarked workload at smoke size, end to end through ``run.py``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import BENCH, ROOT
from workloads import StreamK16

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [workload["name"] for workload in SPEC["workloads"]]


def _run(cwd, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("seed", [5, 6])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_is_correct(workload, seed):
    done = _run(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "0.5", "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stderr
    *_, report_line, summary_line = done.stdout.strip().splitlines()
    summary = json.loads(summary_line)
    report = json.loads(report_line)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True, report["failures"]
    assert summary["failed"] == 0 and summary["attempted"] >= 1
    assert report["metrics"]["failed_frac"]["value"] == 0
    assert [m["name"] for m in SPEC["end_to_end"]] == list(summary["metrics"])
    for metric in SPEC["end_to_end"]:
        assert summary["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert summary["metrics"][metric["name"]]["value"] > 0
    assert report["host"]["kernel_backend"] == "numpy"
    assert report["host"]["seed"] == seed


def test_traced_smoke_run_reports_every_per_layer_metric():
    done = _run(ROOT, "--workload", "tree-fan8-k256", "--seed", "7", "--seconds", "0.5", "--trace", "1", "--smoke")
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert [m["name"] for m in SPEC["per_layer"]] == list(summary["metrics"])
    assert summary["metrics"]["comm.tree.merges"]["value"] > 0
    assert summary["metrics"]["other_s"]["value"] > 0


def test_same_seed_same_inputs():
    first, second = StreamK16(9, smoke=True), StreamK16(9, smoke=True)
    assert np.array_equal(first.b, second.b)
    for (rows_a, deltas_a), (rows_b, deltas_b) in zip(first.batches(3), second.batches(3)):
        assert np.array_equal(rows_a, rows_b) and np.array_equal(deltas_a, deltas_b)


@pytest.mark.xfail(
    strict=True,
    reason="hash-mode live l0 sampler: pairwise fingerprint coefficients accept "
    "symmetric two-entry cells, so a sample can fall outside the support",
)
def test_stream_k16_hash_mode_samples_stay_in_support():
    workload = StreamK16(1, smoke=True)
    workload.build()
    records = []
    for _ in range(20):
        ((_label, op),) = workload.pass_ops()
        records.append(op())
    verdict = workload.check(records)
    assert not verdict.failures, verdict.failures


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", WORKLOAD_NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
