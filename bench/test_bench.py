"""Self-test of the benchmark at tiny shapes. No timing thresholds.

    python3 -m pytest -q bench/test_bench.py

Checks that every end-to-end and per-layer metric named in BENCHMARK.json
is reported with its unit for every workload, that each run records its
environment and passes its output checks, that the benchmark refuses to
run without the sources, and that the tracer survives missing targets.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def _tiny(workload: str, trace: int) -> tuple[dict, list[str]]:
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.5",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported_with_its_unit(workload, trace):
    result, lines = _tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    for key in ("git_sha", "src_sha256", "python", "numpy", "blas", "nproc", "seed", "shapes"):
        assert key in env
    assert env["seed"] == 5 and env["workload"] == workload


def test_refuses_to_run_without_sources():
    bare = os.path.join(ROOT, ".bench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", WORKLOADS[0],
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not os.listdir(os.path.dirname(bare)):
            os.rmdir(os.path.dirname(bare))


def test_tracer_records_absent_targets_and_restores_originals(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    monkeypatch.syspath_prepend(BENCH_DIR)
    import numpy as np
    import slim.lora
    import slim.tensor
    from tracer import Tracer, summarize

    original = slim.lora.svd_truncated
    tracer = Tracer()
    tracer.install([
        ("slim.tensor", "svd_truncated", "tensor.svd_truncated"),
        ("slim.tensor", "no_such_function", "tensor.gone"),
        ("slim.no_such_module", "anything", "gone.too"),
    ])
    try:
        assert tracer.absent == ["slim.tensor.no_such_function", "slim.no_such_module.anything"]
        assert slim.lora.svd_truncated is not original
        slim.lora.naive_lora(np.eye(4), np.zeros((4, 4)), 2)
        assert summarize(tracer.spans)["tensor.svd_truncated"]["calls"] == 1
        with pytest.raises(ValueError):
            tracer.install([("slim.cli", "_weight_space_report", "cli.report")])
    finally:
        tracer.uninstall()
    assert slim.lora.svd_truncated is original and slim.tensor.svd_truncated is original


def test_self_time_subtracts_direct_children(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    from tracer import summarize

    spans = [
        {"id": 1, "parent": None, "name": "a", "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "name": "b", "start": 1.0, "end": 4.0},
        {"id": 3, "parent": 2, "name": "b", "start": 2.0, "end": 3.0},
        {"id": 4, "parent": 1, "name": "c", "start": 5.0, "end": 6.0},
    ]
    agg = summarize(spans)
    assert agg["a"]["self_s"] == pytest.approx(6.0)
    assert agg["b"]["s"] == pytest.approx(3.0) and agg["b"]["calls"] == 1
    assert agg["b"]["self_s"] == pytest.approx(3.0)
