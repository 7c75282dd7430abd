"""Smoke check of the benchmark on toy sizes.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload untraced and traced through ``run.py --scale tiny`` and
checks the result line against BENCHMARK.json; also checks that a directory
holding only the benchmark fails without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)
# per-layer metrics each workload must reach (the rest may read 0)
REACHED = {
    "node_cora": ("graph.load_s", "tape.nodes", "tape.op.edge_spmm.bwd_ms", "attention.diffusion_ms",
                  "model.block1_ms", "optim.step_ms", "tasks.loss_ms", "train.val_ms"),
    "kg_train": ("tape.op.kl_smoothed.fwd_ms", "tasks.targets_s", "tasks.targets_mb", "optim.step_ms"),
    "kg_eval": ("graph.load_s", "model.forward_ms", "tasks.rank_ms", "tasks.ranks"),
    "spectrum": ("linalg.eigen_ms", "linalg.solve_ms", "analysis.report_ms", "analysis.share_ms",
                 "attention.oracle_ms"),
}


def run(root, *args):
    return subprocess.run([sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
                          capture_output=True, text=True, timeout=170, cwd=root)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    done = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--scale", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, done.stdout
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    positive = REACHED[workload] if trace else result["metrics"]
    assert all(result["metrics"][name]["value"] > 0 for name in positive), result["metrics"]


def test_bare_directory_fails_without_result():
    bare = os.path.join(ROOT, ".bench_out", "smoke_bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        done = run(bare, "--workload", "node_cora", "--seed", "0", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
