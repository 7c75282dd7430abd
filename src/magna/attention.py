"""Per-edge attention, row-stochastic weights, and multi-hop attention diffusion.

The diffusion layer never materializes hop weights or dense matrices: the
recursion Z <- (1-a) * A Z + a * Z0 realizes the geometric hop mixture
implicitly, and after K steps Z approximates the personalized-PageRank
aggregation a * (I - (1-a) A)^-1 H with max-norm error at most
2 (1-a)^K * max|H|. The dense oracle form exists alongside for verification
at small scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SingularMatrixError, dense_solve
from .optim import ParamStore
from .tape import (
    Tensor,
    add,
    concat_cols,
    dropout,
    edge_spmm,
    gather_rows,
    layer_norm,
    leaky_relu,
    matmul,
    segment_softmax,
    slice_cols,
    tanh,
    transpose,
)

__all__ = [
    "LEAKY_SLOPE",
    "DiffusionConfig",
    "AttentionHeadParams",
    "RelationTable",
    "edge_scores",
    "attention_weights",
    "attention_diffusion",
    "exact_diffusion_oracle",
    "dense_attention",
    "multi_head_diffusion",
]

LEAKY_SLOPE = 0.2
ORACLE_MAX_NODES = 2000


@dataclass(frozen=True)
class DiffusionConfig:
    """Teleport probability and hop count; hop i carries weight a*(1-a)^i."""

    alpha: float
    hops: int

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.hops < 1:
            raise ValueError(f"hop count must be >= 1, got {self.hops}")


@dataclass(frozen=True)
class AttentionHeadParams:
    """Trainable weights of one attention head.

    ``w_h``/``w_t`` project source and destination node states (d x d),
    ``w_r`` projects relation embeddings (d x d_r), and ``v_a`` (1 x 3d)
    scores the concatenated projections.
    """

    w_h: Tensor
    w_t: Tensor
    w_r: Tensor
    v_a: Tensor

    @classmethod
    def create(cls, store: ParamStore, prefix: str, dim: int, relation_dim: int,
               rng: np.random.Generator) -> "AttentionHeadParams":
        return cls(
            w_h=store.glorot(f"{prefix}.w_h", (dim, dim), rng),
            w_t=store.glorot(f"{prefix}.w_t", (dim, dim), rng),
            w_r=store.glorot(f"{prefix}.w_r", (dim, relation_dim), rng),
            v_a=store.glorot(f"{prefix}.v_a", (1, 3 * dim), rng),
        )


@dataclass(frozen=True)
class RelationTable:
    """Trainable relation embeddings, one row per relation id."""

    table: Tensor

    @classmethod
    def create(cls, store: ParamStore, name: str, num_relations: int, relation_dim: int,
               rng: np.random.Generator) -> "RelationTable":
        return cls(table=store.glorot(name, (num_relations, relation_dim), rng))


def edge_scores(h: Tensor, graph, params: AttentionHeadParams, relations: RelationTable) -> Tensor:
    """Raw attention score per directed edge (src, rel, dst), shape (E, 1).

    Computes leaky_relu(v_a . tanh(W_h h_src || W_t h_dst || W_r r_rel))
    via per-node projections: tanh acts elementwise, so the concatenated dot
    product splits exactly into three per-endpoint terms gathered onto edges.
    """
    if graph.num_edges and int(graph.rel.max()) >= relations.table.shape[0]:
        raise ValueError(
            f"relation id {int(graph.rel.max())} out of range for table of "
            f"{relations.table.shape[0]} relations"
        )
    d = params.w_h.shape[0]
    th = tanh(matmul(h, transpose(params.w_h)))
    tt = tanh(matmul(h, transpose(params.w_t)))
    tr = tanh(matmul(relations.table, transpose(params.w_r)))
    part_h = matmul(th, transpose(slice_cols(params.v_a, 0, d)))
    part_t = matmul(tt, transpose(slice_cols(params.v_a, d, 2 * d)))
    part_r = matmul(tr, transpose(slice_cols(params.v_a, 2 * d, 3 * d)))
    per_edge = add(
        add(gather_rows(part_h, graph.src), gather_rows(part_t, graph.dst)),
        gather_rows(part_r, graph.rel),
    )
    return leaky_relu(per_edge, LEAKY_SLOPE)


def attention_weights(scores: Tensor, graph) -> Tensor:
    """Row-stochastic attention restricted to edges: softmax per destination.

    Every node must have at least one incoming edge (use
    ``Graph.with_self_loops`` beforehand); empty rows are never normalized.
    """
    return segment_softmax(scores, graph.in_indptr)


def attention_diffusion(att: Tensor, h: Tensor, cfg: DiffusionConfig, graph) -> Tensor:
    """K-step iterative approximation of the diffused aggregation.

    One ``edge_spmm`` tape node per head runs all K hops and differentiates
    through every one of them; cost is hops * E * cols. It keeps the K hop
    states when the attention gradient is recorded, and none under
    ``no_grad``.
    """
    return edge_spmm(att, h, graph, cfg.hops, cfg.alpha)


def exact_diffusion_oracle(a_dense: np.ndarray, alpha: float) -> np.ndarray:
    """Dense a * (I - (1-a) A)^-1, the closed form the recursion converges to.

    For row-stochastic A and alpha in (0, 1] the system is provably
    nonsingular; the solver still guards the pivot.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    a_dense = np.asarray(a_dense, dtype=np.float64)
    n = a_dense.shape[0]
    if a_dense.shape != (n, n):
        raise ValueError("attention matrix must be square")
    if n > ORACLE_MAX_NODES:
        raise ValueError(f"oracle limited to {ORACLE_MAX_NODES} nodes, got {n}")
    system = np.eye(n) - (1.0 - alpha) * a_dense
    try:
        return dense_solve(system, alpha * np.eye(n))
    except SingularMatrixError as exc:  # unreachable for stochastic A; kept as a guard
        raise SingularMatrixError(f"diffusion system singular: {exc}") from exc


def dense_attention(graph, att_values: np.ndarray) -> np.ndarray:
    """Materialize per-edge attention as a dense matrix (oracle scale only)."""
    if graph.num_nodes > ORACLE_MAX_NODES:
        raise ValueError(f"dense export limited to {ORACLE_MAX_NODES} nodes")
    att_values = np.asarray(att_values, dtype=np.float64).reshape(-1)
    if att_values.shape[0] != graph.num_edges:
        raise ValueError("attention length must equal edge count")
    dense = np.zeros((graph.num_nodes, graph.num_nodes))
    np.add.at(dense, (graph.dst, graph.src), att_values)
    return dense


def multi_head_diffusion(
    h: Tensor,
    graph,
    heads,
    relations: RelationTable,
    cfg: DiffusionConfig,
    w_o: Tensor,
    *,
    ln: tuple[Tensor, Tensor] | None = None,
    attention_dropout: float = 0.0,
    rng: np.random.Generator | None = None,
    training: bool = False,
    no_diffusion: bool = False,
    capture: dict | None = None,
    capture_prefix: str = "",
) -> Tensor:
    """Normalize, run every head's attention diffusion, concatenate, mix.

    Heads share the normalized input but keep independent attention
    parameters. Attention dropout draws one mask per head per forward pass;
    the dropped attention tensor is reused across all diffusion hops, and
    rows are not re-normalized after dropping.
    """
    heads = list(heads)
    d = h.shape[1]
    if w_o.shape != (len(heads) * d, d):
        raise ValueError(f"w_o must have shape ({len(heads) * d}, {d}), got {w_o.shape}")
    h_norm = layer_norm(h, ln[0], ln[1]) if ln is not None else h
    outputs = []
    for i, head in enumerate(heads):
        scores = edge_scores(h_norm, graph, head, relations)
        att = attention_weights(scores, graph)
        if capture is not None:
            capture[f"{capture_prefix}head{i}"] = att.data.reshape(-1).copy()
        if training and attention_dropout > 0.0:
            att = dropout(att, attention_dropout, rng, training)
        if no_diffusion:
            outputs.append(edge_spmm(att, h_norm, graph))
        else:
            outputs.append(attention_diffusion(att, h_norm, cfg, graph))
    stacked = outputs[0] if len(outputs) == 1 else concat_cols(outputs)
    return matmul(stacked, w_o)
