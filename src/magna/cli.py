"""Command-line entry point for training, evaluation, search, and analysis.

Every run writes a resolved-config snapshot (all defaults materialized) into
its output directory, so any artifact can be reproduced from that directory
alone. All randomness flows from the run seed; the seed is recorded in every
output file (JSON key or ``# seed=`` CSV header line). Exit code is 0 only
when every requested artifact was written.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

import numpy as np

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from .analysis import attention_discrepancy, spectrum_report
from .graph import GraphFormatError, load_kg_dataset, load_node_dataset, read_edge_file
from .model import NetworkConfig
from .optim import load_checkpoint, save_checkpoint
from .search import run_trials, sample_trials
from .tape import no_grad
from .tasks import kg_filtered_ranks, ranking_metrics
from .train import (
    TrainConfig,
    build_kg_model,
    build_node_model,
    train_kg,
    train_node_classifier,
)

__all__ = ["main"]

_LOADERS = {"node": load_node_dataset, "kg": load_kg_dataset}


class CliError(Exception):
    """User-facing failure; printed to stderr with exit code 1."""


def _load_json(path: str, what: str) -> dict:
    if not os.path.isfile(path):
        raise CliError(f"{what} file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CliError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise CliError(f"{path}: a {what} file must be a JSON object, not {type(data).__name__}")
    return data


def load_run_config(path: str | None) -> tuple[NetworkConfig, TrainConfig]:
    """Parse a {"network": {...}, "train": {...}} config file; unknown keys
    anywhere are errors."""
    if path is None:
        return NetworkConfig(), TrainConfig()
    data = _load_json(path, "config")
    unknown = set(data) - {"network", "train"}
    if unknown:
        raise CliError(f"unknown config sections: {sorted(unknown)}")
    try:
        net = NetworkConfig.from_dict(data.get("network", {}))
        train = TrainConfig.from_dict(data.get("train", {}))
    except (ValueError, TypeError) as exc:
        raise CliError(f"config validation failed: {exc}") from exc
    return net, train


def _resolved_configs(path: str | None, task: str,
                      seed: int | None = None) -> tuple[NetworkConfig, TrainConfig]:
    """The run config with the epoch cap for ``task`` and, if given, the run
    seed filled in."""
    net, train = load_run_config(path)
    resolved = {**train.to_dict(), "epochs": train.epoch_cap(task)}
    if seed is not None:
        resolved["seed"] = seed
    return net, TrainConfig.from_dict(resolved)


def _write_json(path: str, payload: dict, sort_keys: bool = True) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=sort_keys)
        fh.write("\n")


def _write_csv(path: str, comment: str, header: list, rows) -> None:
    """An artifact table: one ``# comment`` line, the header, then ``rows``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_resolved_config(out_dir: str, task: str, seed: int, extras: dict,
                           net: NetworkConfig | None = None,
                           train: TrainConfig | None = None) -> str:
    """Create ``out_dir`` and write the run's resolved config, the first file
    every command writes; returns ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    payload = {"task": task, "seed": seed, **extras}
    if net is not None:
        payload["network"] = net.to_dict()
    if train is not None:
        payload["train"] = train.to_dict()
    _write_json(os.path.join(out_dir, "config.resolved.json"), payload)
    return out_dir


def _timed_load(load, path: str):
    """``load(path)`` and the seconds it took."""
    start = time.monotonic()
    dataset = load(path)
    return dataset, time.monotonic() - start


def _faults_and_peak_rss() -> tuple:
    """This process's minor page faults so far and its peak RSS in MB, or
    (None, None) where ``resource`` is missing."""
    if resource is None:
        return None, None
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_minflt, usage.ru_maxrss / (2 ** 20 if sys.platform == "darwin" else 1024)


def _restore_model(data_dir: str, checkpoint: str, seed: int, task: str | None = None):
    """Read ``checkpoint`` once, rebuild its node or KG model on the dataset in
    ``data_dir`` and load the saved parameters. ``task``, if given, is the
    only kind accepted. Returns the dataset, the model and its network config."""
    try:
        values, config = load_checkpoint(checkpoint)
        net_cfg = NetworkConfig.from_dict(config["network"])
        entity_dim = int(config.get("entity_dim", 100))
    except KeyError as exc:
        raise CliError(f"{checkpoint}: malformed checkpoint: no {exc.args[0]!r} entry") from exc
    except (TypeError, ValueError) as exc:  # not JSON, another format version, a bad config value
        raise CliError(f"{checkpoint}: malformed checkpoint: {exc}") from exc
    kind = config.get("task")
    expected = [task] if task else list(_LOADERS)
    if kind not in expected:
        raise CliError(f"{checkpoint}: task {kind!r}, expected {' or '.join(expected)}")
    data = _LOADERS[kind](data_dir)
    rng = np.random.default_rng(seed)
    if kind == "node":
        model = build_node_model(data, net_cfg, rng)
    else:
        model = build_kg_model(data, net_cfg, rng, entity_dim=entity_dim)
    try:
        model.store.restore(values)
    except (KeyError, ValueError) as exc:  # saved names or shapes that are not the model's
        raise CliError(f"{checkpoint}: malformed checkpoint: {exc.args[0]}") from exc
    return data, model, net_cfg


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(args) -> int:
    net_cfg, train_cfg = _resolved_configs(args.config, args.task, seed=args.seed)
    data, load_seconds = _timed_load(_LOADERS[args.task], args.data)
    out = _write_resolved_config(args.out, args.task, args.seed, {"data": args.data},
                                 net_cfg, train_cfg)
    faults_before, _ = _faults_and_peak_rss()
    if args.task == "node":
        report, model = train_node_classifier(data, net_cfg, train_cfg)
        shape = {"in_dim": data.features.shape[1], "num_classes": data.num_classes}
    else:
        report, model = train_kg(data, net_cfg, train_cfg)
        shape = {"entity_dim": model.features.shape[1]}
    faults_after, max_rss_mb = _faults_and_peak_rss()
    _write_json(os.path.join(out, "metrics.json"), report.metrics_dict())
    _write_json(os.path.join(out, "train_report.json"),
                {**report.to_dict(), "load_seconds": load_seconds,
                 "minor_faults": None if faults_before is None else faults_after - faults_before,
                 "max_rss_mb": max_rss_mb})
    save_checkpoint(os.path.join(out, "checkpoint.json"), model.store,
                    {"task": args.task, "network": net_cfg.to_dict(), **shape})
    mrr = "_mrr" if args.task == "kg" else ""
    print(f"best_epoch={report.best_epoch} val{mrr}={report.best_val:.4f} test{mrr}={report.test_metric:.4f}")
    return 0


def cmd_eval_kg(args) -> int:
    kg, model, net_cfg = _restore_model(args.data, args.checkpoint, args.seed, task="kg")
    out = _write_resolved_config(args.out, "kg-eval", args.seed,
                                 {"data": args.data, "checkpoint": args.checkpoint}, net_cfg)
    with no_grad():
        entity = model.entity_repr().data
    ranks = kg_filtered_ranks(entity, model.decoder.relations.data, kg, kg.test)
    metrics = ranking_metrics(ranks).to_dict()
    _write_json(os.path.join(out, "kg_metrics.json"), {"seed": args.seed, **metrics})
    _write_csv(os.path.join(out, "kg_metrics.csv"), f"seed={args.seed}", ["metric", "value"],
               [[key, repr(val)] for key, val in metrics.items()])
    if args.per_triple:
        _write_csv(os.path.join(out, "ranks.csv"), f"seed={args.seed}",
                   ["head", "relation", "tail", "tail_rank", "head_rank"],
                   [[*hrt, tail, head] for hrt, tail, head in zip(kg.test.tolist(), ranks[::2], ranks[1::2])])
    print(json.dumps(metrics))
    return 0


def _sniff_task(data_dir: str) -> str:
    if os.path.isfile(os.path.join(data_dir, "features.tsv")):
        return "node"
    if os.path.isfile(os.path.join(data_dir, "train.txt")):
        return "kg"
    raise CliError(f"cannot tell dataset kind from {data_dir} (no features.tsv or train.txt)")


def cmd_search(args) -> int:
    if args.jobs < 1:
        raise CliError(f"--jobs must be at least 1, got {args.jobs}")
    task = _sniff_task(args.data)
    net_cfg, train_cfg = _resolved_configs(args.config, task)
    space = _load_json(args.space, "search space")
    # every trial config is checked before any file is written
    trials = sample_trials(net_cfg, train_cfg, space, args.trials, args.seed)
    dataset, load_seconds = _timed_load(_LOADERS[task], args.data)
    out = _write_resolved_config(args.out, f"search-{task}", args.seed,
                                 {"data": args.data, "space": space, "trials": args.trials,
                                  "jobs": args.jobs}, net_cfg, train_cfg)
    rows = sorted(run_trials(dataset, trials, jobs=args.jobs),
                  key=lambda r: (-r["val_metric"], r["trial"]))
    names = sorted(space)
    _write_csv(os.path.join(out, "trials.csv"), f"seed={args.seed}",
               ["rank", "trial", "val_metric", "test_metric", "best_epoch", "trial_seed"] + names,
               [[rank, row["trial"], repr(row["val_metric"]), repr(row["test_metric"]),
                 row["best_epoch"], row["seed"]] + [repr(row["params"][n]) for n in names]
                for rank, row in enumerate(rows, start=1)])
    _write_json(os.path.join(out, "train_report.json"), {"seed": args.seed, "load_seconds": load_seconds})
    best = rows[0]
    print(f"best trial {best['trial']}: val={best['val_metric']:.4f} params={best['params']}")
    return 0


def cmd_analyze_spectrum(args) -> int:
    rows, _ = read_edge_file(args.graph)
    if len(rows) == 0:
        raise GraphFormatError("no edges", args.graph)
    # symmetric 0/1 adjacency; a pair listed in both directions sets the same entries
    src, dst = rows[:, 0], rows[:, 2]
    adj = np.zeros((int(max(src.max(), dst.max())) + 1,) * 2)
    adj[src, dst] = adj[dst, src] = 1.0
    out = _write_resolved_config(args.out, "analyze-spectrum", args.seed,
                                 {"graph": args.graph, "alpha": args.alpha})
    report = spectrum_report(adj, args.alpha)
    columns = [report.lam, report.lam_hat, report.lam_hat_predicted, report.lam_g,
               report.lam_hat_g, report.ratio, report.ratio_predicted]
    _write_csv(os.path.join(out, "spectrum.csv"),
               f"alpha={report.alpha!r} symmetrized={report.symmetrized} seed={args.seed}",
               ["index", "lambda", "lambda_hat", "lambda_hat_predicted",
                "lambda_g", "lambda_hat_g", "ratio", "ratio_predicted"],
               # an indeterminate ratio (NaN) is an empty cell
               [[i, *("" if np.isnan(v) else repr(v) for v in vals)]
                for i, vals in enumerate(zip(*(c.tolist() for c in columns)))])
    _write_json(os.path.join(out, "spectrum.json"), {**report.summary(), "seed": args.seed},
                sort_keys=False)
    print(json.dumps(report.summary()))
    return 0


def cmd_analyze_discrepancy(args) -> int:
    _, model, _ = _restore_model(args.data, args.checkpoint, args.seed)
    out = _write_resolved_config(args.out, "analyze-discrepancy", args.seed,
                                 {"data": args.data, "checkpoint": args.checkpoint,
                                  "layer": args.layer, "head": args.head})
    try:
        report = attention_discrepancy(model.net, model.features, args.layer, args.head)
    except IndexError as exc:
        raise CliError(str(exc)) from exc
    _write_csv(os.path.join(out, "discrepancy.csv"), f"mean={report.mean!r} seed={args.seed}",
               ["node", "delta"], [[i, repr(d)] for i, d in enumerate(report.per_node.tolist())])
    _write_json(os.path.join(out, "discrepancy.json"), {**report.summary(), "seed": args.seed},
                sort_keys=False)
    print(json.dumps(report.summary()))
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="magna", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=True, config=True):
        if data:
            p.add_argument("--data", required=True, help="dataset directory")
        if config:
            p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=0)

    for task, what in (("node", "a node classifier"), ("kg", "a KG completion model")):
        p = sub.add_parser(f"train-{task}", help=f"train {what}")
        common(p)
        p.set_defaults(func=cmd_train, task=task)

    p = sub.add_parser("eval-kg", help="filtered ranking metrics from a checkpoint")
    common(p, config=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--per-triple", action="store_true", help="also write per-triple ranks")
    p.set_defaults(func=cmd_eval_kg)

    p = sub.add_parser("search", help="random hyperparameter search and grid sweeps")
    common(p)
    p.add_argument("--space", required=True, help="JSON search-space file")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_search)

    analyze = sub.add_parser("analyze", help="spectral and attention diagnostics")
    asub = analyze.add_subparsers(dest="analysis", required=True)

    p = asub.add_parser("spectrum", help="diffusion spectrum of a graph under uniform attention")
    p.add_argument("--graph", required=True, help="edge-list TSV file")
    p.add_argument("--alpha", type=float, required=True)
    common(p, data=False, config=False)
    p.set_defaults(func=cmd_analyze_spectrum)

    p = asub.add_parser("discrepancy", help="attention-vs-uniform discrepancy per node")
    common(p, config=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--layer", type=int, required=True)
    p.add_argument("--head", type=int, required=True)
    p.set_defaults(func=cmd_analyze_discrepancy)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, GraphFormatError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
