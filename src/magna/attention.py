"""One head's per-edge attention, row-stochastic weights, and multi-hop
attention diffusion; ``MagnaNet.block_forward`` runs them once per head.

They take plain values: the teleport probability alpha and hop count K,
which ``NetworkConfig`` validates, and the relation-embedding table, a
(num_relations, d_r) ``Tensor``. The diffusion never materializes hop
weights or dense matrices: the recursion Z <- (1-a) * A Z + a * Z0 realizes
the geometric hop mixture implicitly, and after K steps Z approximates the
personalized-PageRank aggregation a * (I - (1-a) A)^-1 H with max-norm error
at most 2 (1-a)^K * max|H|. The dense oracle form exists alongside for
verification at small scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SingularMatrixError, dense_solve
from .optim import ParamStore
from .tape import Tensor, _attention_scores, edge_attention, edge_spmm

__all__ = [
    "LEAKY_SLOPE",
    "AttentionHeadParams",
    "edge_scores",
    "attention_weights",
    "attention_diffusion",
    "exact_diffusion_oracle",
]

LEAKY_SLOPE = 0.2
ORACLE_MAX_NODES = 2000


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


def edge_scores(h: Tensor, graph, params: AttentionHeadParams, relations: Tensor) -> Tensor:
    """Raw attention score per directed edge (src, rel, dst), shape (E, 1), off the tape.

    leaky_relu(v_a . tanh(W_h h_src || W_t h_dst || W_r r_rel)): the scores
    that ``attention_weights`` normalizes, from the same forward helper.
    """
    scores, _ = _attention_scores(h.data, params.w_h.data, params.w_t.data, relations.data,
                                  params.w_r.data, params.v_a.data, graph, LEAKY_SLOPE)
    return Tensor(scores)


def attention_weights(h: Tensor, graph, params: AttentionHeadParams, relations: Tensor) -> Tensor:
    """Row-stochastic attention restricted to edges: the softmax per
    destination of ``edge_scores``, as one ``edge_attention`` tape node.

    Every node must have at least one incoming edge (use
    ``Graph.with_self_loops`` beforehand); empty rows are never normalized.
    """
    return edge_attention(h, params.w_h, params.w_t, relations, params.w_r, params.v_a,
                          graph, LEAKY_SLOPE)


def attention_diffusion(att: Tensor, h: Tensor, graph, hops: int, alpha: float) -> Tensor:
    """K-step iterative approximation of the diffused aggregation.

    One ``edge_spmm`` tape node per head runs all K hops and differentiates
    through every one of them; cost is hops * E * cols. It keeps no hop
    state after the forward: a recorded backward recomputes one head's
    states at a time.
    """
    return edge_spmm(att, h, graph, hops, alpha)


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
