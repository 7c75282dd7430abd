"""Task heads, losses, and metrics for node classification and KG completion.

The losses are tape ops with hand-derived adjoints (softmax minus target),
so the finite-difference checks cover them like any architecture op. Ranking
evaluation is pure numpy: queries are grouped by (entity, relation) key, a
block of distinct keys is scored against all entities in one matrix product,
each key's row is filtered once against its known-true answers, and each
query counts its rank on its key's row, never losing its own target; ties
count at half weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .graph import KgDataset, kg_queries
from .optim import ParamStore
from .tape import Tensor, add, matmul, mul, transpose

__all__ = [
    "ClassifierHead",
    "DistMultDecoder",
    "RankingMetrics",
    "cross_entropy_loss",
    "distmult_scores",
    "kl_label_smoothing_loss",
    "smoothed_targets",
    "filtered_rank",
    "kg_filtered_ranks",
    "ranking_metrics",
]


@dataclass(frozen=True)
class ClassifierHead:
    """Linear map from node representations to class logits."""

    w: Tensor
    b: Tensor

    @classmethod
    def create(cls, store: ParamStore, dim: int, num_classes: int,
               rng: np.random.Generator) -> "ClassifierHead":
        return cls(
            w=store.glorot("classifier.w", (dim, num_classes), rng),
            b=store.zeros("classifier.b", (1, num_classes)),
        )

    def logits(self, h: Tensor) -> Tensor:
        return add(matmul(h, self.w), self.b)


@dataclass(frozen=True)
class DistMultDecoder:
    """Diagonal bilinear decoder: one trainable d-vector per relation
    (reverse relations included)."""

    relations: Tensor

    @classmethod
    def create(cls, store: ParamStore, num_relations: int, dim: int,
               rng: np.random.Generator) -> "DistMultDecoder":
        return cls(relations=store.glorot("decoder.relations", (num_relations, dim), rng))


def _log_softmax(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise log-softmax and softmax of ``z``, each built in place in one
    buffer from the shifted rows."""
    logp = z - z.max(axis=1, keepdims=True)
    p = np.exp(logp)
    s = p.sum(axis=1, keepdims=True)
    p /= s
    logp -= np.log(s)
    return logp, p


def cross_entropy_loss(logits: Tensor, labels: np.ndarray, mask: np.ndarray) -> tuple[Tensor, float]:
    """Mean negative log-softmax over masked rows, plus argmax accuracy.

    Argmax ties resolve to the lowest class id.
    """
    rows = np.flatnonzero(np.asarray(mask))
    if rows.size == 0:
        raise ValueError("cross_entropy_loss: empty mask")
    z = logits.data[rows]
    y = np.asarray(labels)[rows]
    if (y < 0).any() or (y >= z.shape[1]).any():
        raise ValueError("cross_entropy_loss: label out of range")
    logp, p = _log_softmax(z)
    loss_val = float(-logp[np.arange(rows.size), y].mean())
    accuracy = float((z.argmax(axis=1) == y).mean())

    def backward(g):
        dz = p.copy()
        dz[np.arange(rows.size), y] -= 1.0
        full = np.zeros_like(logits.data)
        full[rows] = (float(g) / rows.size) * dz
        logits.accumulate(full)

    return Tensor.from_op(np.asarray(loss_val), (logits,), "cross_entropy", backward), accuracy


def distmult_scores(head_repr: Tensor, relation_vec: Tensor, all_entities: Tensor) -> Tensor:
    """Score every entity as tail for each (head, relation) row: one matmul
    of (e_h * w_r) against the entity matrix."""
    return matmul(mul(head_repr, relation_vec), transpose(all_entities))


def smoothed_targets(tail_sets, num_entities: int, eps: float) -> np.ndarray:
    """Target rows: (1-eps) uniform over true tails plus eps uniform overall.
    Each tail set is a set or an array of distinct entity ids."""
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"label smoothing must be in [0, 1), got {eps}")
    targets = np.full((len(tail_sets), num_entities), eps / num_entities)
    for i, tails in enumerate(tail_sets):
        if not isinstance(tails, np.ndarray):
            tails = np.fromiter(tails, dtype=np.int64, count=len(tails))
        if tails.size == 0:
            raise ValueError(f"empty tail set at row {i}")
        targets[i, tails] += (1.0 - eps) / tails.size
    return targets


def kl_label_smoothing_loss(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean KL(target || softmax(logits)) per row; zero iff they coincide.

    Rows are as wide as the entity count, so the per-entry terms are built
    in one buffer, in place; only the softmax outlives the call. The adjoint
    overwrites it with the gradient. ``targets`` is only read.
    """
    if logits.data.shape != targets.shape:
        raise ValueError(f"shape mismatch: logits {logits.data.shape} vs targets {targets.shape}")
    logp, p = _log_softmax(logits.data)
    # terms = t log t - t logp, with t log t = 0 where t = 0
    terms = np.log(targets, out=np.zeros_like(targets), where=targets > 0)
    terms *= targets
    logp *= targets
    terms -= logp
    loss_val = float(terms.sum(axis=1).mean())

    def backward(g):
        np.subtract(p, targets, out=p)
        np.multiply(p, float(g) / targets.shape[0], out=p)
        logits.accumulate(p)

    return Tensor.from_op(np.asarray(loss_val), (logits,), "kl_smoothed", backward)


# Bytes of float64 scores per key block in ``kg_filtered_ranks``, about
# 51 rows at WN18RR shape. On a 2-core Xeon with one BLAS thread, 1 MB
# blocks ranked 2x slower and 4-16 MB ones alike; larger blocks only add
# peak memory.
_RANK_BLOCK_BYTES = 2**24


def _rank_rows(scores: np.ndarray, rows: np.ndarray, targets: np.ndarray,
               known_rows: np.ndarray, known_cols: np.ndarray) -> np.ndarray:
    """Filtered rank of ``targets[j]`` within row ``rows[j]`` of ``scores``.

    The entries ``(known_rows, known_cols)`` are known-true answers and are
    removed, except a query's own target; ties count half each. ``scores`` is
    overwritten.
    """
    s_target = scores[rows, targets]
    # NaN compares false with everything, so a removed entry never counts;
    # a target is read before it can be removed and is never its own tie
    scores[known_rows, known_cols] = np.nan
    ranks = np.empty(len(targets))
    for j, (i, t, s) in enumerate(zip(rows.tolist(), targets.tolist(), s_target.tolist())):
        row = scores[i]
        # counts over a flat row; with ``axis`` numpy takes a slower path
        ties = np.count_nonzero(row == s) - int(row[t] == s)
        ranks[j] = 1.0 + np.count_nonzero(row > s) + ties / 2.0
    return ranks


def filtered_rank(scores: np.ndarray, target: int, known: set) -> float:
    """Rank of ``target`` among candidates after removing other known-true
    answers; ties count half each."""
    row = np.array(scores, dtype=np.float64).reshape(1, -1)
    cols = np.fromiter(known, dtype=np.int64, count=len(known))
    return float(_rank_rows(row, np.zeros(1, dtype=np.int64), np.array([target]),
                            np.zeros_like(cols), cols)[0])


def kg_filtered_ranks(entity_repr: np.ndarray, relation_weights: np.ndarray,
                      kg: KgDataset, triples: np.ndarray) -> np.ndarray:
    """Filtered ranks for a triple split, two per triple: ``ranks[2i]``
    replaces the tail, ``ranks[2i+1]`` the head, scored through the reverse
    relation.

    Queries that share an (entity, relation) key share a score row and a
    filter set, so each distinct key is scored and filtered once. Keys are
    scored in blocks of ``_RANK_BLOCK_BYTES``, one product against every
    entity per block, so memory grows with the block and not with
    queries x entities.
    """
    num_rel = 2 * len(kg.relation_names)
    entities, relations, targets = kg_queries(triples, len(kg.relation_names)).T
    if ((relations < 0) | (relations >= num_rel)).any():
        raise ValueError("kg_filtered_ranks: relation id out of range")
    keys, key_of = np.unique(entities * num_rel + relations, return_inverse=True)
    key_entities, key_relations = np.divmod(keys, num_rel)
    by_key = np.argsort(key_of, kind="stable")
    sorted_keys = key_of[by_key]
    entity_t = np.ascontiguousarray(entity_repr.T)
    block = max(1, _RANK_BLOCK_BYTES // (8 * entity_t.shape[1]))
    ranks = np.empty(len(targets))
    for lo in range(0, len(keys), block):
        rows = slice(lo, lo + block)
        known = [kg.filter_index.get(key, ())
                 for key in zip(key_entities[rows].tolist(), key_relations[rows].tolist())]
        known_rows = np.repeat(np.arange(len(known)), [len(k) for k in known])
        known_cols = np.fromiter(chain.from_iterable(known), dtype=np.int64, count=known_rows.size)
        in_block = slice(*np.searchsorted(sorted_keys, [lo, lo + block]))
        queries = by_key[in_block]
        scores = (entity_repr[key_entities[rows]] * relation_weights[key_relations[rows]]) @ entity_t
        ranks[queries] = _rank_rows(scores, sorted_keys[in_block] - lo, targets[queries],
                                    known_rows, known_cols)
    return ranks


@dataclass(frozen=True)
class RankingMetrics:
    mr: float
    mrr: float
    hits1: float
    hits3: float
    hits10: float

    def to_dict(self) -> dict:
        return {"MR": self.mr, "MRR": self.mrr, "Hits@1": self.hits1,
                "Hits@3": self.hits3, "Hits@10": self.hits10}


def ranking_metrics(ranks) -> RankingMetrics:
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        raise ValueError("ranking_metrics: no ranks")
    return RankingMetrics(
        mr=float(ranks.mean()),
        mrr=float((1.0 / ranks).mean()),
        hits1=float((ranks <= 1).mean()),
        hits3=float((ranks <= 3).mean()),
        hits10=float((ranks <= 10).mean()),
    )
