import csv
import json
import os

import numpy as np
import pytest

from magna.cli import main
from magna.graph import save_node_dataset

from helpers import compositional_kg, read_bytes, read_json, separable_node_dataset


@pytest.fixture(scope="module")
def node_dir(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("node_data"))
    save_node_dataset(separable_node_dataset(seed=0, per_class=8), path)
    return path


@pytest.fixture(scope="module")
def kg_dir(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("kg_data"))
    compositional_kg(path)
    return path


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cfg") / "tiny.json")
    config = {
        "network": {"blocks": 1, "dim": 8, "heads": 2, "alpha": 0.3, "hops": 2,
                    "relation_dim": 4},
        "train": {"lr": 0.02, "weight_decay": 1e-4, "epochs": 15, "window": 15,
                  "batch_size": 64},
    }
    with open(path, "w") as fh:
        json.dump(config, fh)
    return path


def read_csv_rows(path):
    with open(path) as fh:
        first = fh.readline()
        assert first.startswith("# ")
        return first, list(csv.DictReader(fh))


def test_analyze_spectrum_path_graph(tmp_path):
    graph_file = str(tmp_path / "path.tsv")
    with open(graph_file, "w") as fh:
        fh.write("0\t1\n1\t2\n")
    out = str(tmp_path / "out")
    rc = main(["analyze", "spectrum", "--graph", graph_file, "--alpha", "0.5", "--out", out])
    assert rc == 0
    header, rows = read_csv_rows(os.path.join(out, "spectrum.csv"))
    assert "seed=0" in header
    lam_hat = sorted(float(r["lambda_hat"]) for r in rows)
    np.testing.assert_allclose(lam_hat, [1.0 / 3.0, 0.5, 1.0], atol=1e-10)
    assert os.path.isfile(os.path.join(out, "config.resolved.json"))
    summary = read_json(os.path.join(out, "spectrum.json"))
    assert summary["max_eigen_deviation"] <= 1e-10

    # listing each pair in both directions describes the same undirected graph
    both_file = str(tmp_path / "both.tsv")
    with open(both_file, "w") as fh:
        fh.write("0\t1\n1\t0\n1\t2\n2\t1\n")
    both_out = str(tmp_path / "both_out")
    assert main(["analyze", "spectrum", "--graph", both_file, "--alpha", "0.5", "--out", both_out]) == 0
    assert read_csv_rows(os.path.join(both_out, "spectrum.csv")) == read_csv_rows(os.path.join(out, "spectrum.csv"))


def test_analyze_spectrum_rejects_alpha_one(tmp_path, capsys):
    graph_file = str(tmp_path / "path.tsv")
    with open(graph_file, "w") as fh:
        fh.write("0\t1\n1\t2\n")
    rc = main(["analyze", "spectrum", "--graph", graph_file, "--alpha", "1.0",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "error: alpha must be in (0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("content, line", [("0\t1\n1\n", 2), ("0\t1\n\n1\tx\n", 3),
                                           ("0\t-1\n", 1), ("0\t1\t-2\n", 1)])
def test_analyze_spectrum_bad_edge_file_names_line(tmp_path, capsys, content, line):
    graph_file = str(tmp_path / "bad.tsv")
    with open(graph_file, "w") as fh:
        fh.write(content)
    rc = main(["analyze", "spectrum", "--graph", graph_file, "--alpha", "0.5",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"{graph_file}:{line}:" in capsys.readouterr().err


def assert_timing_only_in_report(out):
    """The dataset load's time is in train_report.json, and metrics.json
    holds exactly the report's metrics, byte for byte."""
    with open(os.path.join(out, "train_report.json")) as fh:
        report = json.load(fh)
    assert report["load_seconds"] > 0 and report["wall_seconds"] > 0
    metrics = {"task": report["task"], "seed": report["seed"], "best_epoch": report["best_epoch"],
               "val_metric": report["best_val"], "test_metric": report["test_metric"]}
    expected = json.dumps(metrics, indent=2, sort_keys=True) + "\n"
    with open(os.path.join(out, "metrics.json"), "rb") as fh:
        assert fh.read() == expected.encode()


def test_train_node_is_byte_deterministic(node_dir, tiny_config, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        rc = main(["train-node", "--data", node_dir, "--config", tiny_config,
                   "--out", out, "--seed", "7"])
        assert rc == 0
        outs.append(out)
    blobs = [read_bytes(os.path.join(o, "metrics.json")) for o in outs]
    assert blobs[0] == blobs[1]
    metrics = json.loads(blobs[0])
    assert set(metrics) == {"task", "seed", "best_epoch", "val_metric", "test_metric"}
    assert metrics["seed"] == 7
    assert_timing_only_in_report(outs[0])
    resolved = read_json(os.path.join(outs[0], "config.resolved.json"))
    assert resolved["network"]["blocks"] == 1
    assert resolved["train"]["lr"] == 0.02
    assert resolved["seed"] == 7


def test_unknown_config_key_fails_with_message(node_dir, tmp_path, capsys):
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        json.dump({"network": {"blocs": 2}}, fh)
    rc = main(["train-node", "--data", node_dir, "--config", bad,
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "blocs" in capsys.readouterr().err


def test_unreadable_data_dir_fails(tmp_path, capsys):
    rc = main(["train-node", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "missing file" in capsys.readouterr().err


def test_train_kg_then_eval_kg_roundtrip(kg_dir, tiny_config, tmp_path):
    train_out = str(tmp_path / "kg_train")
    rc = main(["train-kg", "--data", kg_dir, "--config", tiny_config,
               "--out", train_out, "--seed", "3"])
    assert rc == 0
    ckpt = os.path.join(train_out, "checkpoint.json")
    assert os.path.isfile(ckpt)

    eval_out = str(tmp_path / "kg_eval")
    rc = main(["eval-kg", "--data", kg_dir, "--checkpoint", ckpt,
               "--out", eval_out, "--per-triple"])
    assert rc == 0
    metrics = read_json(os.path.join(eval_out, "kg_metrics.json"))
    assert {"MR", "MRR", "Hits@1", "Hits@3", "Hits@10"} <= set(metrics)
    assert metrics["Hits@1"] <= metrics["Hits@3"] <= metrics["Hits@10"]
    header, rows = read_csv_rows(os.path.join(eval_out, "ranks.csv"))
    assert len(rows) == 1  # one test triple, tail+head ranks in one row
    assert {"head", "relation", "tail", "tail_rank", "head_rank"} <= set(rows[0])

    # the recorded test metric from training matches a fresh evaluation
    train_metrics = read_json(os.path.join(train_out, "metrics.json"))
    assert train_metrics["test_metric"] == pytest.approx(metrics["MRR"], abs=1e-12)


def test_search_cli_writes_sorted_trials(node_dir, tiny_config, tmp_path):
    space_file = str(tmp_path / "space.json")
    with open(space_file, "w") as fh:
        json.dump({
            "lr": {"kind": "range", "low": 5e-3, "high": 5e-2, "scale": "log"},
            "hops": {"kind": "choice", "values": [1, 2, 3]},
        }, fh)
    out = str(tmp_path / "search_out")
    rc = main(["search", "--data", node_dir, "--config", tiny_config,
               "--space", space_file, "--trials", "3", "--out", out, "--seed", "2"])
    assert rc == 0
    header, rows = read_csv_rows(os.path.join(out, "trials.csv"))
    assert "seed=2" in header
    assert len(rows) == 3
    vals = [float(r["val_metric"]) for r in rows]
    assert vals == sorted(vals, reverse=True)
    assert all(r["hops"] in {"1", "2", "3"} for r in rows)


def test_search_rejects_bad_space(node_dir, tmp_path, capsys):
    space_file = str(tmp_path / "space.json")
    with open(space_file, "w") as fh:
        json.dump({"warp": {"kind": "fixed", "value": 1}}, fh)
    rc = main(["search", "--data", node_dir, "--space", space_file,
               "--trials", "1", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "unknown search parameter" in capsys.readouterr().err


def test_ablate_labels_gat_equivalent(node_dir, tiny_config, tmp_path):
    out = str(tmp_path / "ablation")
    rc = main(["ablate", "--data", node_dir, "--config", tiny_config, "--out", out,
               "--flags", "no_diffusion,no_layernorm,no_feedforward", "--seed", "1"])
    assert rc == 0
    header, rows = read_csv_rows(os.path.join(out, "ablation.csv"))
    variants = {r["variant"]: r for r in rows}
    assert set(variants) == {"full", "no_diffusion", "no_layernorm", "no_feedforward",
                             "no_diffusion+no_layernorm+no_feedforward"}
    combined = variants["no_diffusion+no_layernorm+no_feedforward"]
    assert combined["label"] == "gat_equivalent"
    assert variants["full"]["label"] == "full"


def test_ablate_rejects_unknown_flag(node_dir, tmp_path, capsys):
    rc = main(["ablate", "--data", node_dir, "--out", str(tmp_path / "o"),
               "--flags", "no_gravity"])
    assert rc == 1
    assert "no_gravity" in capsys.readouterr().err


def test_analyze_discrepancy_end_to_end(node_dir, tiny_config, tmp_path):
    train_out = str(tmp_path / "t")
    assert main(["train-node", "--data", node_dir, "--config", tiny_config,
                 "--out", train_out, "--seed", "5"]) == 0
    out = str(tmp_path / "disc")
    rc = main(["analyze", "discrepancy", "--data", node_dir,
               "--checkpoint", os.path.join(train_out, "checkpoint.json"),
               "--layer", "0", "--head", "1", "--out", out])
    assert rc == 0
    header, rows = read_csv_rows(os.path.join(out, "discrepancy.csv"))
    assert len(rows) == 16
    summary = read_json(os.path.join(out, "discrepancy.json"))
    assert summary["mean"] >= 0.0


def test_discrepancy_bad_layer_fails(node_dir, tiny_config, tmp_path, capsys):
    train_out = str(tmp_path / "t2")
    assert main(["train-node", "--data", node_dir, "--config", tiny_config,
                 "--out", train_out, "--seed", "5"]) == 0
    rc = main(["analyze", "discrepancy", "--data", node_dir,
               "--checkpoint", os.path.join(train_out, "checkpoint.json"),
               "--layer", "7", "--head", "0", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "out of range" in capsys.readouterr().err


def test_train_kg_is_byte_deterministic(kg_dir, tiny_config, tmp_path):
    blobs = []
    for name in ("k1", "k2"):
        out = str(tmp_path / name)
        rc = main(["train-kg", "--data", kg_dir, "--config", tiny_config,
                   "--out", out, "--seed", "11"])
        assert rc == 0
        blobs.append(read_bytes(os.path.join(out, "metrics.json")))
    assert blobs[0] == blobs[1]
    assert_timing_only_in_report(out)


def test_search_cli_on_kg_data(kg_dir, tiny_config, tmp_path):
    space_file = str(tmp_path / "space.json")
    with open(space_file, "w") as fh:
        json.dump({"hops": {"kind": "choice", "values": [1, 2]}}, fh)
    out = str(tmp_path / "kg_search")
    rc = main(["search", "--data", kg_dir, "--config", tiny_config,
               "--space", space_file, "--trials", "2", "--out", out, "--seed", "4"])
    assert rc == 0
    header, rows = read_csv_rows(os.path.join(out, "trials.csv"))
    assert len(rows) == 2
    resolved = read_json(os.path.join(out, "config.resolved.json"))
    assert resolved["task"] == "search-kg"
    with open(os.path.join(out, "train_report.json")) as fh:
        report = json.load(fh)
    assert report["seed"] == 4 and report["load_seconds"] > 0


def test_sweep_script_runs(node_dir, tiny_config, tmp_path):
    import subprocess
    import sys

    out_csv = str(tmp_path / "sweep.csv")
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "sweep.py")
    proc = subprocess.run(
        [sys.executable, script, "--data", node_dir, "--config", tiny_config,
         "--param", "hops", "--values", "1,2", "--seeds", "0", "--out", out_csv],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    header, rows = read_csv_rows(out_csv)
    assert [r["hops"] for r in rows] == ["1", "2"]
    assert all(0.0 <= float(r["mean_test"]) <= 1.0 for r in rows)
