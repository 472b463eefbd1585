"""Tests of the benchmark itself: ``python -m pytest perfbench``.

Each workload runs at its smoke size, untraced and traced, and must print
exactly the metrics BENCHMARK.json names, with their units, and pass its
output checks.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import edrisk.train  # noqa: E402
from edrisk import mlp  # noqa: E402

import kernels  # noqa: E402
import tracing  # noqa: E402


def _run(root: Path, workload: str, trace: int):
    cmd = [*BENCH["command"], "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd + ["--smoke"], cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, env_line, result_line = proc.stdout.splitlines()
    env = json.loads(env_line)["env"]
    assert env["seed"] == 5 and env["blas_threads"] <= env["nproc"]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, BENCH["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_grad_work_by_hand():
    # sizes [2, 3], one row: forward 1x2x3, head 1x3x1, output weight
    # gradient 3x1x1, outer 1x1x3, weight gradient 2x1x3
    assert kernels.grad_work([2, 3], 1) == (12 + 6 + 6 + 6 + 12, 8 * (11 + 7 + 7 + 7 + 11))


def test_tracer_nests_spans_and_restores_attributes():
    original = edrisk.train.grad
    rng = np.random.default_rng(0)
    X, y = rng.standard_normal((64, 5)), (rng.random(64) < 0.5).astype(float)
    model = mlp.init(mlp.Architecture.named("nn2"), 5, seed=0)
    cfg = edrisk.train.TrainConfig(total_steps=6, batch_size=16, seed=0)
    tracer = tracing.Tracer(run_id="t")
    with tracer.installed():
        edrisk.train.train(model, (X, y), (X, y), cfg)
    assert edrisk.train.grad is original
    names = [s[0] for s in tracer.spans]
    root = names.index("train.train")
    assert all(s[3] == root for s in tracer.spans if s[0] in ("train.grad", "train.loss", "train.validation_forward"))
    m = tracer.metrics(wall_s=1.0)
    assert m["train.steps"] == m["train.grad.calls"] == 6
    assert m["train.evals"] == m["train.loss.calls"] == 2
    assert 0 < m["train.self.s"] < m["train.train.s"]
