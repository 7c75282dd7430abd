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

from .analysis import (
    attention_discrepancy,
    spectrum_report,
    write_discrepancy_csv,
    write_spectrum_csv,
    write_summary_json,
)
from .graph import GraphFormatError, load_kg_dataset, load_node_dataset, read_edge_file
from .model import ABLATION_FLAGS, NetworkConfig
from .optim import load_checkpoint, save_checkpoint
from .search import random_search, validate_space
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


class CliError(Exception):
    """User-facing failure; printed to stderr with exit code 1."""


def _load_json(path: str, what: str) -> dict:
    if not os.path.isfile(path):
        raise CliError(f"{what} file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise CliError(f"invalid JSON in {path}: {exc}") from exc


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


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_resolved_config(out_dir: str, task: str, seed: int, extras: dict,
                           net: NetworkConfig | None = None,
                           train: TrainConfig | None = None) -> None:
    payload = {"task": task, "seed": seed, **extras}
    if net is not None:
        payload["network"] = net.to_dict()
    if train is not None:
        payload["train"] = train.to_dict()
    _write_json(os.path.join(out_dir, "config.resolved.json"), payload)


def _prepare_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _timed_load(load, path: str):
    """``load(path)`` and the seconds it took."""
    start = time.monotonic()
    dataset = load(path)
    return dataset, time.monotonic() - start


def _write_train_outputs(out_dir: str, report, store, checkpoint_config: dict,
                         load_seconds: float) -> None:
    _write_json(os.path.join(out_dir, "metrics.json"), report.metrics_dict())
    _write_json(os.path.join(out_dir, "train_report.json"),
                {**report.to_dict(), "load_seconds": load_seconds})
    save_checkpoint(os.path.join(out_dir, "checkpoint.json"), store, checkpoint_config)


# ---------------------------------------------------------------------------
# subcommands


def cmd_train_node(args) -> int:
    net_cfg, train_cfg = load_run_config(args.config)
    train_cfg = TrainConfig.from_dict({**train_cfg.to_dict(), "seed": args.seed,
                                       "epochs": train_cfg.epoch_cap("node")})
    dataset, load_seconds = _timed_load(load_node_dataset, args.data)
    out = _prepare_out(args.out)
    _write_resolved_config(out, "node", args.seed, {"data": args.data}, net_cfg, train_cfg)
    report, model = train_node_classifier(dataset, net_cfg, train_cfg)
    ckpt_cfg = {"task": "node", "network": net_cfg.to_dict(),
                "in_dim": dataset.features.shape[1], "num_classes": dataset.num_classes}
    _write_train_outputs(out, report, model.store, ckpt_cfg, load_seconds)
    print(f"best_epoch={report.best_epoch} val={report.best_val:.4f} test={report.test_metric:.4f}")
    return 0


def cmd_train_kg(args) -> int:
    net_cfg, train_cfg = load_run_config(args.config)
    train_cfg = TrainConfig.from_dict({**train_cfg.to_dict(), "seed": args.seed,
                                       "epochs": train_cfg.epoch_cap("kg")})
    kg, load_seconds = _timed_load(load_kg_dataset, args.data)
    out = _prepare_out(args.out)
    _write_resolved_config(out, "kg", args.seed, {"data": args.data}, net_cfg, train_cfg)
    report, model = train_kg(kg, net_cfg, train_cfg)
    ckpt_cfg = {"task": "kg", "network": net_cfg.to_dict(), "entity_dim": 100}
    _write_train_outputs(out, report, model.store, ckpt_cfg, load_seconds)
    print(f"best_epoch={report.best_epoch} val_mrr={report.best_val:.4f} test_mrr={report.test_metric:.4f}")
    return 0


def _restore_kg_model(data_dir: str, checkpoint_path: str, seed: int):
    values, config = load_checkpoint(checkpoint_path)
    if config.get("task") != "kg":
        raise CliError(f"checkpoint {checkpoint_path} is not a KG model")
    net_cfg = NetworkConfig.from_dict(config["network"])
    kg = load_kg_dataset(data_dir)
    model = build_kg_model(kg, net_cfg, np.random.default_rng(seed),
                           entity_dim=int(config.get("entity_dim", 100)))
    model.store.restore(values)
    return kg, model, net_cfg


def cmd_eval_kg(args) -> int:
    kg, model, net_cfg = _restore_kg_model(args.data, args.checkpoint, args.seed)
    out = _prepare_out(args.out)
    _write_resolved_config(out, "kg-eval", args.seed,
                           {"data": args.data, "checkpoint": args.checkpoint}, net_cfg)
    with no_grad():
        entity = model.entity_repr().data
    ranks = kg_filtered_ranks(entity, model.decoder.relations.data, kg, kg.test)
    metrics = ranking_metrics(ranks)
    _write_json(os.path.join(out, "kg_metrics.json"), {"seed": args.seed, **metrics.to_dict()})
    with open(os.path.join(out, "kg_metrics.csv"), "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# seed={args.seed}\n")
        writer = csv.writer(fh)
        writer.writerow(["metric", "value"])
        for key, val in metrics.to_dict().items():
            writer.writerow([key, repr(val)])
    if args.per_triple:
        with open(os.path.join(out, "ranks.csv"), "w", newline="", encoding="utf-8") as fh:
            fh.write(f"# seed={args.seed}\n")
            writer = csv.writer(fh)
            writer.writerow(["head", "relation", "tail", "tail_rank", "head_rank"])
            for i, (h, r, t) in enumerate(kg.test):
                writer.writerow([int(h), int(r), int(t), ranks[2 * i], ranks[2 * i + 1]])
    print(json.dumps(metrics.to_dict()))
    return 0


def _sniff_task(data_dir: str) -> str:
    if os.path.isfile(os.path.join(data_dir, "features.tsv")):
        return "node"
    if os.path.isfile(os.path.join(data_dir, "train.txt")):
        return "kg"
    raise CliError(f"cannot tell dataset kind from {data_dir} (no features.tsv or train.txt)")


def cmd_search(args) -> int:
    task = args.task or _sniff_task(args.data)
    net_cfg, train_cfg = load_run_config(args.config)
    train_cfg = TrainConfig.from_dict({**train_cfg.to_dict(),
                                       "epochs": train_cfg.epoch_cap(task)})
    space = _load_json(args.space, "search space")
    validate_space(space)
    dataset, load_seconds = _timed_load(load_node_dataset if task == "node" else load_kg_dataset, args.data)
    out = _prepare_out(args.out)
    _write_resolved_config(out, f"search-{task}", args.seed,
                           {"data": args.data, "space": space, "trials": args.trials,
                            "jobs": args.jobs}, net_cfg, train_cfg)
    rows = random_search(task, dataset, net_cfg, train_cfg, space,
                         trials=args.trials, seed=args.seed, jobs=args.jobs)
    names = sorted(space)
    with open(os.path.join(out, "trials.csv"), "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# seed={args.seed}\n")
        writer = csv.writer(fh)
        writer.writerow(["rank", "trial", "val_metric", "test_metric", "best_epoch", "trial_seed"] + names)
        for rank, row in enumerate(rows, start=1):
            writer.writerow([rank, row["trial"], repr(row["val_metric"]), repr(row["test_metric"]),
                             row["best_epoch"], row["seed"]] + [repr(row["params"][n]) for n in names])
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
    out = _prepare_out(args.out)
    _write_resolved_config(out, "analyze-spectrum", args.seed,
                           {"graph": args.graph, "alpha": args.alpha})
    report = spectrum_report(adj, args.alpha)
    write_spectrum_csv(report, os.path.join(out, "spectrum.csv"), seed=args.seed)
    write_summary_json(report.summary(), os.path.join(out, "spectrum.json"), seed=args.seed)
    print(json.dumps(report.summary()))
    return 0


def cmd_analyze_discrepancy(args) -> int:
    values, config = load_checkpoint(args.checkpoint)
    task = config.get("task")
    if task == "node":
        dataset = load_node_dataset(args.data)
        net_cfg = NetworkConfig.from_dict(config["network"])
        model = build_node_model(dataset, net_cfg, np.random.default_rng(args.seed))
        model.store.restore(values)
        net, features = model.net, model.features
    elif task == "kg":
        kg, model, _ = _restore_kg_model(args.data, args.checkpoint, args.seed)
        net, features = model.net, model.store["entities"]
    else:
        raise CliError(f"checkpoint {args.checkpoint} has unknown task {task!r}")
    out = _prepare_out(args.out)
    _write_resolved_config(out, "analyze-discrepancy", args.seed,
                           {"data": args.data, "checkpoint": args.checkpoint,
                            "layer": args.layer, "head": args.head})
    try:
        report = attention_discrepancy(net, features, args.layer, args.head)
    except IndexError as exc:
        raise CliError(str(exc)) from exc
    write_discrepancy_csv(report, os.path.join(out, "discrepancy.csv"), seed=args.seed)
    write_summary_json(report.summary(), os.path.join(out, "discrepancy.json"), seed=args.seed)
    print(json.dumps(report.summary()))
    return 0


def cmd_ablate(args) -> int:
    flags = [f.strip() for f in args.flags.split(",") if f.strip()]
    unknown = set(flags) - set(ABLATION_FLAGS)
    if unknown:
        raise CliError(f"unknown ablation flags: {sorted(unknown)}")
    if not flags:
        raise CliError("need at least one flag")
    net_cfg, train_cfg = load_run_config(args.config)
    train_cfg = TrainConfig.from_dict({**train_cfg.to_dict(), "seed": args.seed,
                                       "epochs": train_cfg.epoch_cap("node")})
    dataset = load_node_dataset(args.data)
    out = _prepare_out(args.out)
    _write_resolved_config(out, "ablate", args.seed,
                           {"data": args.data, "flags": flags}, net_cfg, train_cfg)

    variants: list[tuple[str, tuple[str, ...]]] = [("full", ())]
    variants += [(flag, (flag,)) for flag in flags]
    if len(flags) > 1:
        variants.append(("+".join(flags), tuple(flags)))

    rows = []
    for name, flag_set in variants:
        cfg = net_cfg.with_flags(flag_set)
        report, _ = train_node_classifier(dataset, cfg, train_cfg)
        label = "gat_equivalent" if set(flag_set) == set(ABLATION_FLAGS) else name
        rows.append((name, label, report.best_val, report.test_metric, report.best_epoch))
    with open(os.path.join(out, "ablation.csv"), "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# seed={args.seed}\n")
        writer = csv.writer(fh)
        writer.writerow(["variant", "label", "val_metric", "test_metric", "best_epoch"])
        for row in rows:
            writer.writerow([row[0], row[1], repr(row[2]), repr(row[3]), row[4]])
    for name, label, val, test, _ in rows:
        print(f"{name} ({label}): val={val:.4f} test={test:.4f}")
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

    p = sub.add_parser("train-node", help="train a node classifier")
    common(p)
    p.set_defaults(func=cmd_train_node)

    p = sub.add_parser("train-kg", help="train a KG completion model")
    common(p)
    p.set_defaults(func=cmd_train_kg)

    p = sub.add_parser("eval-kg", help="filtered ranking metrics from a checkpoint")
    common(p, config=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--per-triple", action="store_true", help="also write per-triple ranks")
    p.set_defaults(func=cmd_eval_kg)

    p = sub.add_parser("search", help="random hyperparameter search")
    common(p)
    p.add_argument("--space", required=True, help="JSON search-space file")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--task", choices=["node", "kg"], default=None)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("ablate", help="train ablation variants side by side")
    common(p)
    p.add_argument("--flags", required=True,
                   help=f"comma-separated subset of {','.join(ABLATION_FLAGS)}")
    p.set_defaults(func=cmd_ablate)

    analyze = sub.add_parser("analyze", help="spectral and attention diagnostics")
    asub = analyze.add_subparsers(dest="analysis", required=True)

    p = asub.add_parser("spectrum", help="diffusion spectrum of a graph under uniform attention")
    p.add_argument("--graph", required=True, help="edge-list TSV file")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_analyze_spectrum)

    p = asub.add_parser("discrepancy", help="attention-vs-uniform discrepancy per node")
    common(p, config=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--layer", type=int, required=True)
    p.add_argument("--head", type=int, required=True)
    p.set_defaults(func=cmd_analyze_discrepancy)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, GraphFormatError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
