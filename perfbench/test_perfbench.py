"""Tests of the benchmark itself: tiny smoke runs with every check on, and
proof that the output checks are live.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_is_correct_and_reports_every_end_to_end_metric(workload):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.1", "--trace", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    out = last_json(proc.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for m in BENCHMARK["end_to_end"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert out["metrics"][m["name"]]["value"] > 0


def test_tiny_traced_run_reports_every_per_layer_metric():
    proc = run_bench(ROOT, "--workload", "certify", "--seed", "5", "--seconds", "0.1", "--trace", "1", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    out = last_json(proc.stdout)
    assert out["correct"]
    assert set(out["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for m in BENCHMARK["per_layer"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
    assert out["metrics"]["matfun.MatQ.ops"]["value"] > 0
    assert out["metrics"]["certificate.psi_bits"]["value"] > 0


def _run_all(ops, inproc=False):
    for op in ops:
        workloads.run_op(op, inproc=inproc)
    return ops


def test_corrupted_psi_counts_as_failed():
    ops = _run_all(workloads.certify_ops(random.Random(1), tiny=True))
    assert all(not workloads.check_op(op)[0] for op in ops)
    before = workloads.digest(ops)
    op = next(op for op in ops if op.kind == "certify_scalar")
    op.result = dataclasses.replace(op.result, psi_k=op.result.psi_k * 7 + 1)
    errors, _ = workloads.check_op(op)
    assert errors
    assert workloads.digest(ops) != before


def test_wrong_cli_exit_code_counts_as_failed(tmp_path):
    ops = _run_all(workloads.cli_ops(random.Random(1), True, tmp_path), inproc=True)
    assert all(not workloads.check_op(op)[0] for op in ops)
    op = next(op for op in ops if op.kind == "matrix")
    op.result = dict(op.result, rc=1)
    errors, defect = workloads.check_op(op)
    assert errors and not defect


def test_known_defects_are_recognised_not_hidden(tmp_path):
    ops = _run_all(workloads.cli_ops(random.Random(1), True, tmp_path), inproc=True)
    defects = [op for op in ops if op.args["defect"]]
    assert {op.args["defect"] for op in defects} == set(workloads.KNOWN_DEFECTS)
    for op in defects:
        errors, _ = workloads.check_op(op)
        assert not errors
        # any other failure of these inputs is a real failure
        op.result = dict(op.result, rc=3, stderr="")
        errors, defect = workloads.check_op(op)
        assert errors and not defect


def _copy_benchmark(dest: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))


def test_refuses_to_run_without_the_program(tmp_path):
    _copy_benchmark(tmp_path)
    proc = run_bench(tmp_path, "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_digest_mismatch_fails_the_run(tmp_path):
    _copy_benchmark(tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "perfbench" / "reference.json").write_text(json.dumps({"sweep/tiny": "0" * 64}))
    proc = run_bench(tmp_path, "--workload", "sweep", "--seed", str(workloads.DEFAULT_SEED), "--seconds", "0.1", "--trace", "0", "--size", "tiny")
    assert proc.returncode == 1
    out = last_json(proc.stdout)
    assert not out["correct"] and out["failed"] >= 1
