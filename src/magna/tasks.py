"""Task heads, losses, and metrics for node classification and KG completion.

The losses are tape ops with hand-derived adjoints (softmax minus target),
so the finite-difference checks cover them like any architecture op. The KG
loss takes the entity and relation tables and scores the batch's DistMult
1-N queries itself, so its scores, their softmax and their gradient share
one batch x entities buffer. Ranking
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
from .tape import Tensor, _check_finite, add, matmul

__all__ = [
    "ClassifierHead",
    "DistMultDecoder",
    "RankingMetrics",
    "cross_entropy_loss",
    "kl_label_smoothing_loss",
    "smoothed_targets",
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


def _log_softmax(z: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise log-softmax and softmax of ``z``, each built in place in one
    buffer from the shifted rows; the softmax goes into ``out`` if given."""
    logp = z - z.max(axis=1, keepdims=True)
    p = np.exp(logp, out=out)
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
    sink, shape = logits.sink, logits.data.shape

    def backward(g):
        dz = p.copy()
        dz[np.arange(rows.size), y] -= 1.0
        full = np.zeros(shape)
        full[rows] = (float(g) / rows.size) * dz
        sink.accumulate(full, fresh=True)

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


# Bytes of scores per row block of ``kl_label_smoothing_loss`` (at least one
# row): 8 rows at 4,094 entities, one row at WN18RR's 40,943. On a 2-core
# Xeon (2 MB L2 per core), a 256 x 4,094 forward took 13 ms at 128-512 KB,
# 17 ms at 4 MB and 21 ms unblocked; 256 x 40,943 took 120 ms at one row
# and 248 ms unblocked. The block's scratch is about twice this budget.
_KL_BLOCK_BYTES = 2**18


def kl_label_smoothing_loss(entities: Tensor, relations: Tensor, heads, rels,
                            targets: np.ndarray) -> Tensor:
    """Mean KL(target || softmax(scores)) per row over the DistMult 1-N scores
    ``(E[heads] * R[rels]) @ E^T`` of each (head, relation) query against
    every entity, as one node; zero iff the two distributions coincide.

    Rows are as wide as the entity count, so the op allocates one batch x
    entities buffer: the scores come from one matrix product over the whole
    batch (a row-blocked product rounds differently), and each block of
    rows, of at most ``_KL_BLOCK_BYTES`` (at least one), has its softmax
    written back over its scores. The log-softmax, the per-entry terms and
    the ``targets > 0`` mask are built one block at a time, and each row's
    sum is kept; every step is elementwise or reduces one row, so the blocks
    do not change the bits. The adjoint overwrites the softmax with the
    score gradient ``(p - t) g / B`` and then adds in the order of the
    gather, product and matmul chain the op replaces: ``entities`` takes
    ``(q^T G)^T`` first (q = E[heads] * R[rels]), then the rows of
    ``(G E) * R[rels]`` summed per distinct head onto zeros, and
    ``relations`` takes the rows of ``(G E) * E[heads]``. ``targets`` is
    only read.
    """
    heads = np.asarray(heads, dtype=np.int64)
    rels = np.asarray(rels, dtype=np.int64)
    ent = entities.data
    num_entities, num_relations = ent.shape[0], relations.shape[0]
    if heads.ndim != 1 or heads.shape != rels.shape or entities.shape[1] != relations.shape[1]:
        raise ValueError(f"kl_label_smoothing_loss: heads {heads.shape} and rels {rels.shape}, "
                         f"entities {entities.shape} and relations {relations.shape} do not match")
    if targets.shape != (len(heads), num_entities):
        raise ValueError(f"kl_label_smoothing_loss: targets {targets.shape}, "
                         f"want {(len(heads), num_entities)}")
    # a negative id would wrap around to another row
    if ((heads < 0) | (heads >= num_entities)).any():
        raise ValueError(f"kl_label_smoothing_loss: head id out of range [0, {num_entities})")
    if ((rels < 0) | (rels >= num_relations)).any():
        raise ValueError(f"kl_label_smoothing_loss: relation id out of range [0, {num_relations})")
    e_h, r_r = ent[heads], relations.data[rels]
    q = e_h * r_r
    p = q @ ent.T
    _check_finite(p, "kl_smoothed")
    row_sums = np.empty(p.shape[0])
    block = max(1, _KL_BLOCK_BYTES // (p.itemsize * p.shape[1]))
    for lo in range(0, p.shape[0], block):
        rows = slice(lo, lo + block)
        t = targets[rows]
        # the shifted copy is made before the softmax overwrites the scores
        logp, _ = _log_softmax(p[rows], out=p[rows])
        # terms = t log t - t logp, with t log t = 0 where t = 0
        terms = np.log(t, out=np.zeros_like(t), where=t > 0)
        terms *= t
        logp *= t
        terms -= logp
        np.sum(terms, axis=1, out=row_sums[rows])
    loss_val = float(row_sums.mean())
    se, sr, rel_shape = entities.sink, relations.sink, relations.shape

    def backward(g):
        np.subtract(p, targets, out=p)
        np.multiply(p, float(g) / targets.shape[0], out=p)
        ge = p @ ent
        if se is not None:
            se.accumulate((q.T @ p).T, fresh=True)
            rows, slots = np.unique(heads, return_inverse=True)
            de = np.zeros((len(rows), ent.shape[1]))
            np.add.at(de, slots, ge * r_r)
            se.grad[rows] += de
        if sr is not None:
            dr = np.zeros(rel_shape)
            np.add.at(dr, rels, ge * e_h)
            sr.accumulate(dr, fresh=True)

    return Tensor.from_op(np.asarray(loss_val), (entities, relations), "kl_smoothed", backward)


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
