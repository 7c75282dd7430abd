#!/usr/bin/env python3
"""Sweep one architecture hyperparameter on a node dataset and tabulate
accuracy per value (seed-averaged). Reproduces the hop-count / teleport /
depth sensitivity curves at whatever scale the config sets.

Examples:
  python scripts/sweep.py --data data/cora --config configs/cora_desk.json \
      --param hops --values 1,2,3,6,10 --seeds 0,1,2 --out out/hops_sweep.csv
  python scripts/sweep.py --data data/cora --config configs/cora_desk.json \
      --param alpha --values 0.05,0.1,0.25,0.5 --out out/alpha_sweep.csv
  python scripts/sweep.py --data data/cora --config configs/cora_desk.json \
      --param blocks --values 3,6,12,18,24 --out out/depth_sweep.csv
"""

import argparse
import csv
import dataclasses
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from magna.cli import load_run_config, run_command  # noqa: E402
from magna.graph import load_node_dataset  # noqa: E402
from magna.model import NetworkConfig  # noqa: E402
from magna.search import run_trials  # noqa: E402


def parse_value(param: str, text: str):
    kind = float if "float" in str(NetworkConfig.__dataclass_fields__[param].type) else int
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{param} takes {kind.__name__} values, got {text!r}") from None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", required=True)
    parser.add_argument("--config", default=None)
    parser.add_argument("--param", required=True,
                        choices=["hops", "alpha", "blocks", "heads", "dim"])
    parser.add_argument("--values", required=True, help="comma-separated values")
    parser.add_argument("--seeds", default="0,1,2")
    parser.add_argument("--out", required=True, help="output CSV path")
    return run_command(sweep, parser.parse_args())


def sweep(args) -> int:
    net_cfg, train_cfg = load_run_config(args.config)
    values = [parse_value(args.param, v) for v in args.values.split(",")]
    seeds = [int(s) for s in args.seeds.split(",")]
    # every value's config is checked before the dataset loads or the CSV opens
    trials = [[({args.param: value}, dataclasses.replace(net_cfg, **{args.param: value}),
                dataclasses.replace(train_cfg, seed=seed)) for seed in seeds] for value in values]
    dataset = load_node_dataset(args.data)

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", newline="") as fh:
        fh.write(f"# param={args.param} seeds={args.seeds}\n")
        writer = csv.writer(fh)
        writer.writerow([args.param, "mean_val", "mean_test", "std_test", "mean_epochs"])
        for value, value_trials in zip(values, trials):
            rows = run_trials(dataset, value_trials)
            vals = [r["val_metric"] for r in rows]
            tests = [r["test_metric"] for r in rows]
            epochs = [r["epochs"] for r in rows]
            writer.writerow([value, np.mean(vals), np.mean(tests), np.std(tests), np.mean(epochs)])
            fh.flush()
            print(f"{args.param}={value}: val={np.mean(vals):.4f} test={np.mean(tests):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
