"""Hyperparameter search over Fixed / Range / Choice / Grid spaces.

A space is a JSON object mapping parameter names to one of:
  {"kind": "fixed",  "value": v}
  {"kind": "range",  "low": a, "high": b, "scale": "linear" | "log"}
  {"kind": "choice", "values": [...]}
  {"kind": "grid",   "values": [...]}
Names must be NetworkConfig or TrainConfig fields, ``seed`` included; the run
seed is every trial's seed unless the space sets one. Grid entries are
enumerated, not sampled: ``sample_trials`` walks the product of their distinct
values (names sorted, values in the order given) and draws ``trials`` samples
of the other entries at each point from one generator seeded by the run seed.
A sweep over seeds is a grid of ``seed``. Every trial's config is drawn and
checked up front. ``run_trials`` trains any list of ``(params, net_cfg,
train_cfg)`` trials and returns one row per trial in trial order; ``jobs``
only parallelizes the training runs.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from .graph import NodeDataset
from .model import NetworkConfig
from .train import TrainConfig, train_kg, train_node_classifier

__all__ = ["validate_space", "sample_space", "sample_trials", "run_trials"]

_KINDS = ("fixed", "range", "choice", "grid")
_NET_FIELDS = set(NetworkConfig.__dataclass_fields__)
_TRAIN_FIELDS = set(TrainConfig.__dataclass_fields__)


def validate_space(space: dict) -> None:
    for name, spec in space.items():
        if name not in _NET_FIELDS and name not in _TRAIN_FIELDS:
            raise ValueError(f"unknown search parameter {name!r}")
        if not isinstance(spec, dict) or spec.get("kind") not in _KINDS:
            raise ValueError(f"{name}: kind must be one of {_KINDS}")
        kind = spec["kind"]
        allowed = {
            "fixed": {"kind", "value"},
            "range": {"kind", "low", "high", "scale"},
            "choice": {"kind", "values"},
            "grid": {"kind", "values"},
        }[kind]
        extra = set(spec) - allowed
        if extra:
            raise ValueError(f"{name}: unexpected keys {sorted(extra)}")
        if kind == "fixed" and "value" not in spec:
            raise ValueError(f"{name}: fixed entry needs a value")
        if kind == "range":
            low, high = spec.get("low"), spec.get("high")
            if low is None or high is None or not low < high:
                raise ValueError(f"{name}: range needs low < high")
            if spec.get("scale", "linear") not in ("linear", "log"):
                raise ValueError(f"{name}: scale must be linear or log")
            if spec.get("scale", "linear") == "log" and low <= 0:
                raise ValueError(f"{name}: log range needs positive bounds")
        values = spec.get("values")
        if kind in ("choice", "grid") and not (isinstance(values, list) and values):
            raise ValueError(f"{name}: {kind} needs a nonempty values list")
        if kind == "grid":
            # ``in`` compares with ==, so an unhashable value is no error here
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ValueError(f"{name}: repeated grid values {repeated}")


def sample_space(space: dict, rng: np.random.Generator) -> dict:
    out = {}
    for name in sorted(space):
        spec = space[name]
        kind = spec["kind"]
        if kind == "fixed":
            out[name] = spec["value"]
        elif kind == "range":
            low, high = float(spec["low"]), float(spec["high"])
            if spec.get("scale", "linear") == "log":
                out[name] = math.exp(rng.uniform(math.log(low), math.log(high)))
            else:
                out[name] = rng.uniform(low, high)
        else:
            values = spec["values"]
            out[name] = values[int(rng.integers(len(values)))]
    return out


def _apply(sampled: dict, net_cfg: NetworkConfig, train_cfg: TrainConfig):
    net_over = {k: v for k, v in sampled.items() if k in _NET_FIELDS}
    train_over = {k: v for k, v in sampled.items() if k in _TRAIN_FIELDS}
    return replace(net_cfg, **net_over), replace(train_cfg, **train_over)


def _run_trial(args):
    dataset, net_cfg, train_cfg, index, params = args
    trainer = train_node_classifier if isinstance(dataset, NodeDataset) else train_kg
    report, _ = trainer(dataset, net_cfg, train_cfg)
    return {
        "trial": index,
        "params": params,
        "seed": train_cfg.seed,
        "best_epoch": report.best_epoch,
        "val_metric": report.best_val,
        "test_metric": report.test_metric,
    }


def sample_trials(base_net: NetworkConfig, base_train: TrainConfig, space: dict,
                  trials: int, seed: int) -> list[tuple[dict, NetworkConfig, TrainConfig]]:
    """Every trial's parameters and configs: ``trials`` draws at each grid
    point, all up front from ``seed``; a value a config rejects raises here,
    before any training."""
    if trials < 1:
        raise ValueError("need at least one trial")
    validate_space(space)
    grid = sorted(name for name, spec in space.items() if spec["kind"] == "grid")
    sampled_space = {name: spec for name, spec in space.items() if name not in grid}
    base_train = replace(base_train, seed=seed)
    sample_rng = np.random.default_rng(np.random.SeedSequence(seed))
    out = []
    for point in itertools.product(*(space[name]["values"] for name in grid)):
        for _ in range(trials):
            params = dict(sorted({**sample_space(sampled_space, sample_rng),
                                  **dict(zip(grid, point))}.items()))
            out.append((params, *_apply(params, base_net, base_train)))
    return out


def run_trials(dataset, trials: list, jobs: int = 1) -> list[dict]:
    """Train every ``(params, net_cfg, train_cfg)`` trial on ``dataset`` with
    the trainer for its type, and return one row per trial in trial order."""
    jobs_args = [(dataset, net_cfg, train_cfg, i, params)
                 for i, (params, net_cfg, train_cfg) in enumerate(trials)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_run_trial, jobs_args))
    return [_run_trial(a) for a in jobs_args]
