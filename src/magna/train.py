"""Optimization loops with validation-driven early stopping.

Both trainers run full-graph forward/backward per step, track the best
validation metric, and only ever touch the test split once, after the loop,
with the best parameters restored. All randomness flows from named streams
spawned off the run seed, so two runs with the same config and seed produce
identical numbers.

On glibc, ``_fit`` pins the allocator's mmap and trim thresholds for the
whole process, and they stay pinned after it returns (see
``_pin_heap_thresholds``). No value a trainer computes depends on them.
"""

from __future__ import annotations

import ctypes
import math
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .graph import SPLIT_TEST, SPLIT_TRAIN, SPLIT_VAL, KgDataset, NodeDataset, kg_answer_index
from .model import MagnaNet, NetworkConfig, check_field_types
from .optim import Adam, ParamStore
from .tape import Tensor, no_grad
from .tasks import (
    ClassifierHead,
    DistMultDecoder,
    cross_entropy_loss,
    kg_filtered_ranks,
    kl_label_smoothing_loss,
    ranking_metrics,
    smoothed_targets,
)

__all__ = [
    "TrainConfig",
    "TrainReport",
    "EarlyStopper",
    "NodeModel",
    "KgModel",
    "build_node_model",
    "build_kg_model",
    "node_accuracy",
    "kg_validation_mrr",
    "train_node_classifier",
    "train_kg",
]


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-2
    weight_decay: float = 5e-4
    epochs: int | None = None       # None: 1000 for node runs, 400 for KG runs
    window: int = 200
    seed: int = 0
    batch_size: int = 1024          # KG query groups per step
    label_smoothing: float = 0.1    # KG loss only

    def __post_init__(self):
        check_field_types(self, integers=("window", "seed", "batch_size", "epochs"),
                          numbers=("lr", "weight_decay", "label_smoothing"), optional=("epochs",))
        if self.window < 1:
            raise ValueError("early-stop window must be >= 1")
        if self.epochs is not None and self.epochs < 1:
            raise ValueError("epoch cap must be >= 1")
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
        if self.weight_decay < 0:
            raise ValueError(f"weight decay must be >= 0, got {self.weight_decay}")
        # NaN passes both comparisons above, and JSON reads NaN and Infinity
        for name in ("lr", "weight_decay"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError(f"label smoothing must be in [0, 1), got {self.label_smoothing}")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")

    def epoch_cap(self, task: str) -> int:
        if self.epochs is not None:
            return self.epochs
        return 1000 if task == "node" else 400

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        unknown = set(data) - {f.name for f in cls.__dataclass_fields__.values()}
        if unknown:
            raise ValueError(f"unknown train config keys: {sorted(unknown)}")
        return cls(**data)


@dataclass
class TrainReport:
    task: str
    seed: int
    train_loss: list = field(default_factory=list)
    val_metric: list = field(default_factory=list)
    best_epoch: int = 0
    best_val: float = float("-inf")
    test_metric: float = float("nan")
    wall_seconds: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)

    def metrics_dict(self) -> dict:
        """The compact metrics.json payload. Deterministic given config and
        seed; wall-clock timing stays in the full report."""
        return {
            "task": self.task,
            "seed": self.seed,
            "best_epoch": self.best_epoch,
            "val_metric": self.best_val,
            "test_metric": self.test_metric,
        }


class EarlyStopper:
    """Stop when the metric has not strictly improved for ``window`` epochs."""

    def __init__(self, window: int):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.best = float("-inf")
        self.best_epoch = 0
        self._since = 0

    def update(self, epoch: int, metric: float) -> bool:
        """Record one epoch; returns True if this is a new best."""
        if metric > self.best:
            self.best = metric
            self.best_epoch = epoch
            self._since = 0
            return True
        self._since += 1
        return False

    @property
    def should_stop(self) -> bool:
        return self._since >= self.window


def _streams(seed: int, n: int = 3) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]


# mallopt parameters, from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20   # the largest glibc accepts on 64-bit
_TRIM_THRESHOLD_BYTES = 128 << 20


def _pin_heap_thresholds() -> None:
    """Keep freed training arrays in the heap for the next step to reuse.

    glibc's default thresholds are dynamic: the trim threshold is twice the
    last freed mmap chunk, so each step gives the top of the heap back to
    the kernel and the next step faults it in again. Setting either
    threshold turns the dynamic ones off, so both are set: arrays up to
    32 MiB come from the heap, and the heap keeps up to 128 MiB of free top.
    Arrays above 32 MiB are still mapped and unmapped each time.

    Process-wide and permanent. Does nothing on any other C library, or
    when glibc's own ``MALLOC_*_`` variables or a ``glibc.malloc.``
    tunable in ``GLIBC_TUNABLES`` are set: the user's settings win.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):
        return
    if ("glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")
            or any(k.startswith("MALLOC_") and k.endswith("_") for k in os.environ)):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def _fit(task: str, train_cfg: TrainConfig, store: ParamStore, start: float,
         run_epoch, validate, test) -> TrainReport:
    """The early-stopping loop behind both trainers. ``run_epoch(optimizer)``
    trains one epoch and returns its loss; ``validate()`` and ``test()``
    score the current parameters (higher is better)."""
    _pin_heap_thresholds()
    optimizer = Adam(store, lr=train_cfg.lr, weight_decay=train_cfg.weight_decay)
    stopper = EarlyStopper(train_cfg.window)
    report = TrainReport(task=task, seed=train_cfg.seed)
    best_params = store.snapshot()

    for epoch in range(1, train_cfg.epoch_cap(task) + 1):
        report.train_loss.append(run_epoch(optimizer))
        val = validate()
        report.val_metric.append(val)
        if stopper.update(epoch, val):
            best_params = store.snapshot()
        if stopper.should_stop:
            break

    store.restore(best_params)
    report.best_epoch = stopper.best_epoch
    report.best_val = stopper.best
    report.test_metric = test()
    report.wall_seconds = time.monotonic() - start
    return report


# ---------------------------------------------------------------------------
# node classification


@dataclass
class NodeModel:
    net: MagnaNet
    head: ClassifierHead
    store: ParamStore
    features: Tensor

    def logits(self, *, training: bool = False, rng=None) -> Tensor:
        return self.head.logits(self.net.forward(self.features, training=training, rng=rng))


def build_node_model(dataset: NodeDataset, cfg: NetworkConfig,
                     rng: np.random.Generator) -> NodeModel:
    graph = dataset.graph.with_self_loops()
    store = ParamStore()
    net = MagnaNet(cfg, graph, dataset.features.shape[1], store, rng)
    head = ClassifierHead.create(store, cfg.dim, dataset.num_classes, rng)
    return NodeModel(net, head, store, Tensor(dataset.features))


def node_accuracy(model: NodeModel, dataset: NodeDataset, which: int) -> float:
    with no_grad():
        logits = model.logits()
    _, acc = cross_entropy_loss(logits, dataset.labels, dataset.mask(which))
    return acc


def train_node_classifier(dataset: NodeDataset, net_cfg: NetworkConfig,
                          train_cfg: TrainConfig) -> tuple[TrainReport, NodeModel]:
    start = time.monotonic()
    init_rng, drop_rng, _ = _streams(train_cfg.seed)
    model = build_node_model(dataset, net_cfg, init_rng)
    train_mask = dataset.mask(SPLIT_TRAIN)

    def run_epoch(optimizer: Adam) -> float:
        model.store.zero_grad()
        logits = model.logits(training=True, rng=drop_rng)
        loss, _ = cross_entropy_loss(logits, dataset.labels, train_mask)
        loss.backward()
        optimizer.step()
        return float(loss.data)

    report = _fit("node", train_cfg, model.store, start, run_epoch,
                  lambda: node_accuracy(model, dataset, SPLIT_VAL),
                  lambda: node_accuracy(model, dataset, SPLIT_TEST))
    return report, model


# ---------------------------------------------------------------------------
# knowledge-graph completion


@dataclass
class KgModel:
    net: MagnaNet
    decoder: DistMultDecoder
    store: ParamStore
    kg: KgDataset

    @property
    def features(self) -> Tensor:
        """The entity embedding table, the network's input."""
        return self.store["entities"]

    def entity_repr(self, *, training: bool = False, rng=None) -> Tensor:
        return self.net.forward(self.features, training=training, rng=rng)


def build_kg_model(kg: KgDataset, cfg: NetworkConfig, rng: np.random.Generator,
                   entity_dim: int = 100) -> KgModel:
    graph = kg.graph.with_self_loops()
    store = ParamStore()
    store.glorot("entities", (kg.num_entities, entity_dim), rng)
    net = MagnaNet(cfg, graph, entity_dim, store, rng)
    decoder = DistMultDecoder.create(store, kg.num_relations, cfg.dim, rng)
    return KgModel(net, decoder, store, kg)


def _train_queries(kg: KgDataset) -> tuple[np.ndarray, np.ndarray, list]:
    """Unique (entity, relation) queries over the train split, reverse
    direction included, in sorted order, each with its full tail set as an
    int64 array."""
    keys, indptr, answers = kg_answer_index(kg.train, len(kg.relation_names))
    heads, rels = np.divmod(keys, kg.num_relations)
    return heads, rels, [answers[lo:hi] for lo, hi in zip(indptr[:-1].tolist(), indptr[1:].tolist())]


def kg_validation_mrr(model: KgModel, triples: np.ndarray) -> float:
    if len(triples) == 0:
        raise ValueError("no triples to evaluate")
    with no_grad():
        entity = model.entity_repr().data
    ranks = kg_filtered_ranks(entity, model.decoder.relations.data, model.kg, triples)
    return ranking_metrics(ranks).mrr


def train_kg(kg: KgDataset, net_cfg: NetworkConfig, train_cfg: TrainConfig,
             entity_dim: int = 100) -> tuple[TrainReport, KgModel]:
    start = time.monotonic()
    init_rng, drop_rng, shuffle_rng = _streams(train_cfg.seed)
    model = build_kg_model(kg, net_cfg, init_rng, entity_dim=entity_dim)
    heads, rels, tails = _train_queries(kg)

    def run_step(optimizer: Adam, batch: np.ndarray) -> float:
        """One step on ``batch``; returns its loss times its size. The step's
        graph dies on return, before the next step builds its own."""
        # built per batch: all queries at once would take queries x entities
        targets = smoothed_targets([tails[i] for i in batch], kg.num_entities,
                                   train_cfg.label_smoothing)
        model.store.zero_grad()
        entity = model.entity_repr(training=True, rng=drop_rng)
        # the scores, their softmax and their gradient share one buffer
        loss = kl_label_smoothing_loss(entity, model.decoder.relations, heads[batch], rels[batch],
                                       targets)
        loss.backward()
        optimizer.step()
        return float(loss.data) * len(batch)

    def run_epoch(optimizer: Adam) -> float:
        order = shuffle_rng.permutation(len(heads))
        epoch_loss = 0.0
        for lo in range(0, len(order), train_cfg.batch_size):
            epoch_loss += run_step(optimizer, order[lo : lo + train_cfg.batch_size])
        return epoch_loss / len(heads)

    report = _fit("kg", train_cfg, model.store, start, run_epoch,
                  lambda: kg_validation_mrr(model, kg.valid),
                  lambda: kg_validation_mrr(model, kg.test))
    return report, model
