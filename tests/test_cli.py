import csv
import dataclasses
import json
import os

import numpy as np
import pytest

from magna import cli
from magna.cli import main
from magna.graph import NodeDataset, load_kg_dataset, load_node_dataset
from magna.train import train_node_classifier

from helpers import compositional_kg, read_bytes, read_json, save_node_dataset, separable_node_dataset

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "configs")


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


@pytest.fixture(scope="module")
def node_checkpoint(node_dir, tiny_config, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("node_ckpt"))
    assert main(["train-node", "--data", node_dir, "--config", tiny_config,
                 "--out", out, "--seed", "5"]) == 0
    return os.path.join(out, "checkpoint.json")


@pytest.fixture(scope="module")
def kg_checkpoint(kg_dir, tiny_config, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("kg_ckpt"))
    assert main(["train-kg", "--data", kg_dir, "--config", tiny_config,
                 "--out", out, "--seed", "3"]) == 0
    return os.path.join(out, "checkpoint.json")


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


def test_train_report_records_minor_faults_and_peak_rss(node_dir, kg_dir, tiny_config, tmp_path,
                                                       monkeypatch):
    for task, data in (("node", node_dir), ("kg", kg_dir)):
        out = str(tmp_path / task)
        assert main([f"train-{task}", "--data", data, "--config", tiny_config, "--out", out]) == 0
        report = read_json(os.path.join(out, "train_report.json"))
        assert isinstance(report["minor_faults"], int) and report["minor_faults"] >= 0
        assert report["max_rss_mb"] > 0
    # without the resource module (Windows) both keys are null
    monkeypatch.setattr(cli, "resource", None)
    out = str(tmp_path / "no_resource")
    assert main(["train-node", "--data", node_dir, "--config", tiny_config, "--out", out]) == 0
    report = read_json(os.path.join(out, "train_report.json"))
    assert report["minor_faults"] is None and report["max_rss_mb"] is None
    assert_timing_only_in_report(out)


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
    # ranked by validation metric, descending; the trial index breaks ties
    assert [r["rank"] for r in rows] == ["1", "2", "3"]
    keys = [(-float(r["val_metric"]), int(r["trial"])) for r in rows]
    assert keys == sorted(keys)
    assert all(r["hops"] in {"1", "2", "3"} for r in rows)


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_search_rejects_jobs_below_one(node_dir, tmp_path, capsys, jobs):
    space_file = str(tmp_path / "space.json")
    with open(space_file, "w") as fh:
        json.dump({"hops": {"kind": "choice", "values": [1, 2]}}, fh)
    out = str(tmp_path / "o")
    rc = main(["search", "--data", node_dir, "--space", space_file,
               "--trials", "2", "--jobs", jobs, "--out", out])
    assert rc == 1
    assert capsys.readouterr().err == f"error: --jobs must be at least 1, got {jobs}\n"
    assert not os.path.exists(out)


def test_search_rejects_bad_space(node_dir, tmp_path, capsys):
    space_file = str(tmp_path / "space.json")
    with open(space_file, "w") as fh:
        json.dump({"warp": {"kind": "fixed", "value": 1}}, fh)
    rc = main(["search", "--data", node_dir, "--space", space_file,
               "--trials", "1", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "unknown search parameter" in capsys.readouterr().err


def test_search_range_over_integer_field_fails_with_message(node_dir, tiny_config, tmp_path, capsys):
    """A range samples floats; an integer field such as ``hops`` takes a choice."""
    space_file = str(tmp_path / "space.json")
    with open(space_file, "w") as fh:
        json.dump({"hops": {"kind": "range", "low": 2, "high": 4}}, fh)
    rc = main(["search", "--data", node_dir, "--config", tiny_config, "--space", space_file,
               "--trials", "1", "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: hops must be an integer, got ") and "Traceback" not in err


def test_search_space_that_a_config_rejects_writes_no_file(node_dir, tiny_config, tmp_path, capsys):
    space_file = str(tmp_path / "space.json")
    with open(space_file, "w") as fh:
        json.dump({"hops": {"kind": "range", "low": 2, "high": 4}}, fh)
    out = str(tmp_path / "o")
    rc = main(["search", "--data", node_dir, "--config", tiny_config, "--space", space_file,
               "--trials", "3", "--out", out])
    assert rc == 1
    assert "hops must be an integer" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("space, message", [
    ({"no_diffusion": {"kind": "choice", "values": ["false"]}},
     "no_diffusion must be a boolean, got 'false'"),
    ({"alpha": {"kind": "choice", "values": ["0.1"]}}, "alpha must be a number, got '0.1'"),
    ({"label_smoothing": {"kind": "range", "low": 1.0, "high": 2.0}},
     "label smoothing must be in [0, 1), got "),
    ({"weight_decay": {"kind": "range", "low": -2.0, "high": -1.0}}, "weight decay must be >= 0, got "),
    # json writes and reads the NaN literal
    ({"lr": {"kind": "choice", "values": [float("nan")]}}, "lr must be finite, got nan"),
], ids=["quoted-flag", "quoted-alpha", "label-smoothing", "weight-decay", "nan-lr"])
def test_search_value_a_config_rejects_fails_with_message(node_dir, tiny_config, tmp_path, capsys,
                                                          space, message):
    space_file = str(tmp_path / "space.json")
    with open(space_file, "w") as fh:
        json.dump(space, fh)
    out = str(tmp_path / "o")
    rc = main(["search", "--data", node_dir, "--config", tiny_config, "--space", space_file,
               "--trials", "2", "--out", out])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "Traceback" not in err
    assert not os.path.exists(out)


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
        json.dump({"hops": {"kind": "choice", "values": [1, 2]},
                   "lr": {"kind": "choice", "values": [0.002, 0.02]}}, fh)
    out = str(tmp_path / "kg_search")
    rc = main(["search", "--data", kg_dir, "--config", tiny_config,
               "--space", space_file, "--trials", "3", "--out", out, "--seed", "2"])
    assert rc == 0
    header, rows = read_csv_rows(os.path.join(out, "trials.csv"))
    # seed 2 draws its one lr = 0.02 trial last, so ranking moves it to the top
    assert rows[0]["trial"] == "2"
    keys = [(-float(r["val_metric"]), int(r["trial"])) for r in rows]
    assert keys == sorted(keys)
    resolved = read_json(os.path.join(out, "config.resolved.json"))
    assert resolved["task"] == "search-kg"
    with open(os.path.join(out, "train_report.json")) as fh:
        report = json.load(fh)
    assert report["seed"] == 2 and report["load_seconds"] > 0


def write_space(tmp_path, space) -> str:
    path = str(tmp_path / "space.json")
    with open(path, "w") as fh:
        json.dump(space, fh)
    return path


def test_grid_search_rows_are_the_trainer_runs(node_dir, tiny_config, tmp_path):
    # on these data the two head counts, and the two seeds at one head, give
    # different test accuracies, so a row that pairs the wrong runs shows
    space_file = write_space(tmp_path, {"heads": {"kind": "grid", "values": [1, 2]},
                                        "seed": {"kind": "grid", "values": [0, 1]}})
    out = str(tmp_path / "sweep")
    rc = main(["search", "--data", node_dir, "--config", tiny_config, "--space", space_file,
               "--trials", "1", "--jobs", "2", "--out", out])
    assert rc == 0
    header, rows = read_csv_rows(os.path.join(out, "trials.csv"))
    # one trial per grid point, names sorted, values in the order given
    points = {row["trial"]: (int(row["heads"]), int(row["seed"])) for row in rows}
    assert points == {"0": (1, 0), "1": (1, 1), "2": (2, 0), "3": (2, 1)}
    dataset = load_node_dataset(node_dir)
    net_cfg, train_cfg = cli.load_run_config(tiny_config)
    for row in rows:
        heads, seed = points[row["trial"]]
        assert row["trial_seed"] == row["seed"]
        report, _ = train_node_classifier(dataset, dataclasses.replace(net_cfg, heads=heads),
                                          dataclasses.replace(train_cfg, seed=seed))
        assert float(row["val_metric"]) == report.best_val
        assert float(row["test_metric"]) == report.test_metric
        assert int(row["best_epoch"]) == report.best_epoch
    assert len({row["test_metric"] for row in rows}) > 1


def test_ablation_grid_rows_are_the_trainer_runs(node_dir, tiny_config, tmp_path):
    """configs/ablate_node.json trains every on/off mix of the three ablation
    flags; each row is the trainer's own run with those flags."""
    out = str(tmp_path / "ablation")
    rc = main(["search", "--data", node_dir, "--config", tiny_config, "--out", out, "--seed", "1",
               "--space", os.path.join(CONFIGS, "ablate_node.json"), "--trials", "1"])
    assert rc == 0
    header, rows = read_csv_rows(os.path.join(out, "trials.csv"))
    assert "seed=1" in header
    flags = ("no_diffusion", "no_layernorm", "no_feedforward")
    by_flags = {tuple(f for f in flags if row[f] == "True"): row for row in rows}
    assert len(rows) == len(by_flags) == 2 ** len(flags)
    dataset = load_node_dataset(node_dir)
    net_cfg, train_cfg = cli.load_run_config(tiny_config)
    # the full model, each flag alone, and all three: the one-hop attention baseline
    for variant in [(), *((f,) for f in flags), flags]:
        row = by_flags[variant]
        report, _ = train_node_classifier(dataset,
                                          dataclasses.replace(net_cfg, **{f: True for f in variant}),
                                          dataclasses.replace(train_cfg, seed=1))
        assert row["val_metric"] == repr(report.best_val)
        assert row["test_metric"] == repr(report.test_metric)
        assert row["best_epoch"] == str(report.best_epoch)


@pytest.mark.parametrize("space, config, message", [
    ({"hops": {"kind": "grid", "values": [2.5]}}, None, "hops must be an integer, got 2.5"),
    ({"alpha": {"kind": "grid", "values": [0.5, 1.5]}}, None, "alpha must be in (0, 1], got 1.5"),
    ({"hops": {"kind": "grid", "values": [1]}}, "missing.json", "config file not found: missing.json"),
    ({"hops": {"kind": "grid", "values": [1, 2, 1]}}, None, "hops: repeated grid values [1]"),
    ({"hops": {"kind": "grid", "values": [[1], [1]]}}, None, "hops: repeated grid values [[1]]"),
    ({"seed": {"kind": "grid", "values": [0, 1, 0]}}, None, "seed: repeated grid values [0]"),
], ids=["hops-not-int", "alpha-out-of-range", "missing-config", "repeated", "repeated-unhashable",
        "repeated-seed"])
def test_grid_search_fails_with_message_and_no_file(node_dir, tiny_config, tmp_path, capsys,
                                                    space, config, message):
    """Every grid point's config is checked before any file is written."""
    space_file = write_space(tmp_path, space)
    out = str(tmp_path / "sweep")
    rc = main(["search", "--data", node_dir, "--config", config or tiny_config,
               "--space", space_file, "--trials", "1", "--out", out])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("command, what", [("train-node", "config"), ("search", "search space")])
@pytest.mark.parametrize("payload", [[], "x", 3])
def test_config_and_space_files_must_hold_an_object(node_dir, tmp_path, capsys, command, what, payload):
    path = str(tmp_path / "file.json")
    with open(path, "w") as fh:
        json.dump(payload, fh)
    out = str(tmp_path / "o")
    if command == "train-node":
        argv = ["train-node", "--data", node_dir, "--config", path, "--out", out]
    else:
        argv = ["search", "--data", node_dir, "--space", path, "--trials", "1", "--out", out]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: a {what} file must be a JSON object, not {type(payload).__name__}\n")
    assert not os.path.exists(out)


def test_checkpoint_config_records_model_shape(node_dir, kg_dir, node_checkpoint, kg_checkpoint):
    """The checkpoint's config holds what rebuilding the model needs, and
    nothing else."""
    node = load_node_dataset(node_dir)
    config = read_json(node_checkpoint)["config"]
    assert set(config) == {"task", "network", "in_dim", "num_classes"}
    assert config["task"] == "node"
    assert (config["in_dim"], config["num_classes"]) == (node.features.shape[1], node.num_classes)
    config = read_json(kg_checkpoint)["config"]
    assert config == {"task": "kg", "network": config["network"], "entity_dim": 100}
    assert config["network"]["dim"] == 8


def test_analyze_discrepancy_on_kg_checkpoint(kg_dir, kg_checkpoint, tmp_path):
    out = str(tmp_path / "disc")
    rc = main(["analyze", "discrepancy", "--data", kg_dir, "--checkpoint", kg_checkpoint,
               "--layer", "0", "--head", "1", "--out", out, "--seed", "2"])
    assert rc == 0
    header, rows = read_csv_rows(os.path.join(out, "discrepancy.csv"))
    assert header.endswith(" seed=2\n")
    assert len(rows) == load_kg_dataset(kg_dir).num_entities
    summary = read_json(os.path.join(out, "discrepancy.json"))
    assert list(summary) == ["mean", "num_nodes", "max", "seed"]
    assert summary["num_nodes"] == len(rows)
    assert summary["mean"] == pytest.approx(np.mean([float(r["delta"]) for r in rows]), abs=1e-12)
    assert read_json(os.path.join(out, "config.resolved.json"))["task"] == "analyze-discrepancy"


def test_eval_kg_rejects_node_checkpoint(node_dir, node_checkpoint, tmp_path, capsys):
    out = str(tmp_path / "o")
    rc = main(["eval-kg", "--data", node_dir, "--checkpoint", node_checkpoint, "--out", out])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {node_checkpoint}: ") and "'node'" in err
    assert not os.path.exists(out)


def _drop_params(payload):
    del payload["params"]


def _drop_network(payload):
    del payload["config"]["network"]


def _drop_one_param(payload):
    del payload["params"][sorted(payload["params"])[0]]


def _reshape_one_param(payload):
    payload["params"][sorted(payload["params"])[0]] = {"shape": [1, 1], "values": [0.0]}


def _mistype_network_value(payload):
    payload["config"]["network"]["dim"] = "x"


def _bad_network_value(payload):
    payload["config"]["network"]["hops"] = 0


def _future_version(payload):
    payload["format_version"] = 9


def _not_json(payload):
    return "{"  # the whole file


def _not_an_object(payload):
    return "[]"  # the whole file


def _mistype_entity_dim(payload):
    payload["config"]["entity_dim"] = "x"


@pytest.mark.parametrize("corrupt", [_drop_params, _drop_network, _drop_one_param, _reshape_one_param,
                                     _mistype_network_value, _bad_network_value, _future_version,
                                     _not_json, _not_an_object, _mistype_entity_dim])
@pytest.mark.parametrize("command", [["eval-kg"], ["analyze", "discrepancy", "--layer", "0", "--head", "0"]],
                         ids=["eval-kg", "discrepancy"])
def test_malformed_checkpoint_fails_with_message(kg_dir, kg_checkpoint, tmp_path, capsys,
                                                 corrupt, command):
    payload = read_json(kg_checkpoint)
    text = corrupt(payload)
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        fh.write(json.dumps(payload) if text is None else text)
    out = str(tmp_path / "o")
    rc = main(command + ["--data", kg_dir, "--checkpoint", bad, "--out", out])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: malformed checkpoint: ")
    assert not os.path.exists(out)


def test_checkpoint_on_other_feature_width_names_both_shapes(node_dir, node_checkpoint, tmp_path,
                                                              capsys):
    """A node model takes its input width from --data, not from the
    checkpoint; on wider features the error names both shapes."""
    node = load_node_dataset(node_dir)
    wider = np.hstack([node.features, node.features])
    other = str(tmp_path / "wider")
    save_node_dataset(NodeDataset(node.graph, wider, node.labels, node.split, node.num_classes), other)
    out = str(tmp_path / "o")
    rc = main(["analyze", "discrepancy", "--data", other, "--checkpoint", node_checkpoint,
               "--layer", "0", "--head", "0", "--out", out])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {node_checkpoint}: malformed checkpoint: shape mismatch for 'input.w': "
        f"the checkpoint has (4, 8), the model needs (8, 8)\n")
    assert not os.path.exists(out)
