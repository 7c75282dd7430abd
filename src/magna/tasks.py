"""Task heads, losses, and metrics for node classification and KG completion.

The losses are tape ops with hand-derived adjoints (softmax minus target),
so the finite-difference checks cover them like any architecture op. Ranking
evaluation is pure numpy: queries are grouped by (entity, relation) key, a
block of distinct keys is scored against all entities in one matrix product,
each key's row is filtered once against its known-true answers, read for the
whole block from the dataset's sorted answer index in one lookup, and each
query counts its rank on its key's row, never losing its own target; ties
count at half weight. When BLAS runs on one thread, key blocks are ranked on
one thread per available CPU, up to four, and the threads end with the call.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .graph import KgDataset, kg_known_answers, kg_queries
from .optim import ParamStore
from .tape import Tensor, add, matmul

__all__ = [
    "ClassifierHead",
    "DistMultDecoder",
    "RankingMetrics",
    "cross_entropy_loss",
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


def smoothed_targets(tail_sets, num_entities: int, eps: float) -> np.ndarray:
    """Target rows: (1-eps) uniform over true tails plus eps uniform overall.
    Each tail set is an int array of distinct entity ids."""
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"label smoothing must be in [0, 1), got {eps}")
    targets = np.full((len(tail_sets), num_entities), eps / num_entities)
    for i, tails in enumerate(tail_sets):
        if tails.size == 0:
            raise ValueError(f"empty tail set at row {i}")
        targets[i, tails] += (1.0 - eps) / tails.size
    return targets


def kl_label_smoothing_loss(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean KL(target || softmax(logits)) per row; zero iff they coincide.

    Rows are as wide as the entity count, so the per-entry terms are built
    in one buffer, in place; only the softmax outlives the call. The adjoint
    overwrites it with the gradient and hands it to ``logits`` without a
    copy. ``targets`` is only read.
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
        logits.accumulate(p, fresh=True)

    return Tensor.from_op(np.asarray(loss_val), (logits,), "kl_smoothed", backward)


# Bytes of float64 scores in flight in ``kg_filtered_ranks``, split evenly
# across its workers: about 51 rows at WN18RR shape, 25 per worker on two.
# On a 2-core Xeon with one BLAS thread and two workers, 1 MB per worker
# ranked 2x slower and 4-16 MB per worker alike; larger blocks only add
# peak memory.
_RANK_BLOCK_BYTES = 2**24

# The least share of ``_RANK_BLOCK_BYTES`` a worker gets; more workers would
# only rank smaller, slower blocks.
_RANK_WORKER_BYTES = 2**22

# BLAS thread settings, in the order OpenBLAS and MKL read them.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _rank_workers() -> int:
    """Worker threads for ``kg_filtered_ranks``.

    With BLAS set to one thread: one per CPU this process may run on, as
    long as each keeps a ``_RANK_WORKER_BYTES`` share. Otherwise one: a
    multithreaded BLAS already spreads each product over the cores, and
    workers that each start one oversubscribe them.
    """
    blas_threads = next((os.environ[v] for v in _BLAS_THREAD_VARS if v in os.environ), None)
    if blas_threads != "1":
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # the platform has no CPU affinity call
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, _RANK_BLOCK_BYTES // _RANK_WORKER_BYTES))


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


def filtered_rank(scores: np.ndarray, target: int, known: np.ndarray) -> float:
    """Rank of ``target`` among candidates after removing the other known-true
    answers, an int array of entity ids; ties count half each."""
    row = np.array(scores, dtype=np.float64).reshape(1, -1)
    cols = np.asarray(known, dtype=np.int64)
    return float(_rank_rows(row, np.zeros(1, dtype=np.int64), np.array([target]),
                            np.zeros_like(cols), cols)[0])


def kg_filtered_ranks(entity_repr: np.ndarray, relation_weights: np.ndarray,
                      kg: KgDataset, triples: np.ndarray) -> np.ndarray:
    """Filtered ranks for a triple split, two per triple: ``ranks[2i]``
    replaces the tail, ``ranks[2i+1]`` the head, scored through the reverse
    relation.

    Queries that share an (entity, relation) key share a score row and
    known answers, so each distinct key is scored and filtered once. Keys are
    scored in blocks, one product against every entity per block. Worker
    ``w`` of ``W`` ranks blocks ``w, w + W, ...``, and the ``W`` blocks in
    flight share ``_RANK_BLOCK_BYTES`` (at least one row each), so memory
    grows with that budget and not with queries x entities. Each query is
    ranked on its own key's row, so the ranks do not depend on ``W``.
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
    workers = _rank_workers()
    block = max(1, min(len(keys), _RANK_BLOCK_BYTES // (workers * 8 * entity_t.shape[1])))
    ranks = np.empty(len(targets))
    # allocated in the calling thread: a block a worker allocated would be
    # freed into that thread's own malloc arena, where the rest of the
    # program does not reuse it, and peak RSS would grow
    buffers = np.empty((workers, block, entity_t.shape[1]))

    def rank_blocks(first: int) -> None:
        # each key, and so each query, belongs to exactly one worker's blocks
        for lo in range(first * block, len(keys), workers * block):
            rows = slice(lo, lo + block)
            known_rows, known_cols = kg_known_answers(kg.answer_index, keys[rows])
            in_block = slice(*np.searchsorted(sorted_keys, [lo, lo + block]))
            queries = by_key[in_block]
            scores = np.matmul(entity_repr[key_entities[rows]] * relation_weights[key_relations[rows]],
                               entity_t, out=buffers[first, :len(keys[rows])])
            ranks[queries] = _rank_rows(scores, sorted_keys[in_block] - lo, targets[queries],
                                        known_rows, known_cols)

    # a pool that outlived the call would be copied without its threads
    # into processes forked later, such as `magna search --jobs` trials
    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(rank_blocks, range(workers)))
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
