"""Stacked residual blocks around multi-head attention diffusion.

One block, ``MagnaNet.block_forward``: Hhat = [Z_1 || ... || Z_M] W_o + H,
where head m's Z_m diffuses its attention over LN(H), then a feed-forward
sub-layer W2 relu(W1 LN(Hhat) + b1) + b2 + Hhat. Every block shares one
relation-embedding table, the ``relations`` parameter. Ablation switches
strip the pieces individually: ``no_diffusion`` runs each head with K = 1,
alpha = 0, the one-hop product A H. With all three off a block degenerates
to a one-hop attention layer (elu(A @ H W) plus the residual), which is the
classical graph-attention baseline this architecture extends.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .attention import AttentionHeadParams, attention_diffusion, attention_weights
from .graph import Graph
from .optim import ParamStore
from .tape import Tensor, add, concat_cols, dropout, elu, layer_norm, matmul, no_grad, relu

__all__ = ["NetworkConfig", "MagnaBlockParams", "MagnaNet"]


def check_field_types(cfg, integers=(), numbers=(), booleans=(), optional=()) -> None:
    """Raise ``ValueError`` naming the first field on ``cfg`` whose value is
    not of its kind: ``integers`` take an int, ``numbers`` an int or a float,
    ``booleans`` a bool. A bool is neither an integer nor a number, and a
    field in ``optional`` may also be None."""
    kinds = ((integers, int, "an integer"), (numbers, (int, float), "a number"),
             (booleans, bool, "a boolean"))
    for names, types, what in kinds:
        for name in names:
            value = getattr(cfg, name)
            if value is None and name in optional:
                continue
            if not isinstance(value, types) or (isinstance(value, bool) and types is not bool):
                raise ValueError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture hyperparameters; defaults follow the full-size setup
    (6 blocks, width 512, 8 heads)."""

    blocks: int = 6
    dim: int = 512
    heads: int = 8
    ffn_dim: int | None = None          # None means same width as dim
    alpha: float = 0.1
    hops: int = 6
    relation_dim: int = 100
    dropout_attention: float = 0.0
    dropout_feature: float = 0.0
    no_diffusion: bool = False
    no_layernorm: bool = False
    no_feedforward: bool = False

    def __post_init__(self):
        check_field_types(self, integers=("blocks", "dim", "heads", "hops", "relation_dim", "ffn_dim"),
                          numbers=("alpha", "dropout_attention", "dropout_feature"),
                          booleans=("no_diffusion", "no_layernorm", "no_feedforward"),
                          optional=("ffn_dim",))
        if self.blocks < 1:
            raise ValueError("need at least one block")
        if self.dim < 1 or self.heads < 1 or self.relation_dim < 1:
            raise ValueError("dim, heads and relation_dim must be positive")
        for rate in (self.dropout_attention, self.dropout_feature):
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.hops < 1:
            raise ValueError(f"hop count must be >= 1, got {self.hops}")

    @property
    def ffn_width(self) -> int:
        return self.dim if self.ffn_dim is None else self.ffn_dim

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "NetworkConfig":
        unknown = set(data) - {f.name for f in cls.__dataclass_fields__.values()}
        if unknown:
            raise ValueError(f"unknown network config keys: {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class MagnaBlockParams:
    heads: tuple
    w_o: Tensor
    ln1: tuple[Tensor, Tensor]
    ln2: tuple[Tensor, Tensor]
    ffn_w1: Tensor
    ffn_b1: Tensor
    ffn_w2: Tensor
    ffn_b2: Tensor

    @classmethod
    def create(cls, store: ParamStore, prefix: str, cfg: NetworkConfig,
               rng: np.random.Generator) -> "MagnaBlockParams":
        d, d_ff = cfg.dim, cfg.ffn_width
        heads = tuple(
            AttentionHeadParams.create(store, f"{prefix}.head{i}", d, cfg.relation_dim, rng)
            for i in range(cfg.heads)
        )
        return cls(
            heads=heads,
            w_o=store.glorot(f"{prefix}.w_o", (cfg.heads * d, d), rng),
            ln1=(store.full(f"{prefix}.ln1.gamma", (1, d), 1.0), store.zeros(f"{prefix}.ln1.beta", (1, d))),
            ln2=(store.full(f"{prefix}.ln2.gamma", (1, d), 1.0), store.zeros(f"{prefix}.ln2.beta", (1, d))),
            ffn_w1=store.glorot(f"{prefix}.ffn.w1", (d, d_ff), rng),
            ffn_b1=store.zeros(f"{prefix}.ffn.b1", (1, d_ff)),
            ffn_w2=store.glorot(f"{prefix}.ffn.w2", (d_ff, d), rng),
            ffn_b2=store.zeros(f"{prefix}.ffn.b2", (1, d)),
        )


class MagnaNet:
    """Encoder: input projection followed by ``cfg.blocks`` residual blocks.

    The network is bound to one graph; forward maps an (N, in_dim) tensor to
    (N, dim) node representations. Evaluation-mode forwards are pure reads
    and safe to run concurrently; training mutates parameters and is
    exclusive.
    """

    def __init__(self, cfg: NetworkConfig, graph: Graph, in_dim: int,
                 store: ParamStore, rng: np.random.Generator):
        self.cfg = cfg
        self.graph = graph
        self.in_dim = int(in_dim)
        self.store = store
        self.proj_w = store.glorot("input.w", (self.in_dim, cfg.dim), rng)
        self.proj_b = store.zeros("input.b", (1, cfg.dim))
        self.relations = store.glorot("relations", (graph.num_relations, cfg.relation_dim), rng)
        self.blocks = [
            MagnaBlockParams.create(store, f"block{i}", cfg, rng) for i in range(cfg.blocks)
        ]

    def block_forward(self, index: int, h_in: Tensor, *, training: bool = False,
                      rng: np.random.Generator | None = None) -> Tensor:
        """Block ``index``, as the module docstring writes it. Attention
        dropout draws one mask per head per pass, which all K hops reuse,
        and leaves rows unnormalized."""
        cfg = self.cfg
        bp = self.blocks[index]
        x = dropout(h_in, cfg.dropout_feature, rng, training)
        h_norm = x if cfg.no_layernorm else layer_norm(x, *bp.ln1)
        hops, alpha = (1, 0.0) if cfg.no_diffusion else (cfg.hops, cfg.alpha)
        outputs = []
        for head in bp.heads:
            att = attention_weights(h_norm, self.graph, head, self.relations)
            att = dropout(att, cfg.dropout_attention, rng, training)
            outputs.append(attention_diffusion(att, h_norm, self.graph, hops, alpha))
        h_hat = concat_cols(outputs)
        # without a tape nothing else holds the heads' outputs: free them before W_o
        del outputs, att, h_norm
        h_hat = add(matmul(h_hat, bp.w_o), x)
        if cfg.no_feedforward:
            return elu(h_hat)
        ffn_in = h_hat if cfg.no_layernorm else layer_norm(h_hat, *bp.ln2)
        hidden = relu(add(matmul(ffn_in, bp.ffn_w1), bp.ffn_b1))
        hidden = dropout(hidden, cfg.dropout_feature, rng, training)
        return add(add(matmul(hidden, bp.ffn_w2), bp.ffn_b2), h_hat)

    def forward(self, x: Tensor, *, training: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        if x.shape != (self.graph.num_nodes, self.in_dim):
            raise ValueError(
                f"input must have shape ({self.graph.num_nodes}, {self.in_dim}), got {x.shape}"
            )
        h = add(matmul(x, self.proj_w), self.proj_b)
        for i in range(self.cfg.blocks):
            h = self.block_forward(i, h, training=training, rng=rng)
        return h

    def one_hop_attention(self, x: Tensor, layer: int, head: int) -> np.ndarray:
        """Per-edge attention of one head at one layer, evaluation mode: the
        (E,) weights that ``block_forward`` diffuses for that head. Feature
        dropout is the identity here, so only the blocks below ``layer``
        and that head's weights are computed."""
        if not 0 <= layer < self.cfg.blocks:
            raise IndexError(f"layer {layer} out of range (0..{self.cfg.blocks - 1})")
        if not 0 <= head < self.cfg.heads:
            raise IndexError(f"head {head} out of range (0..{self.cfg.heads - 1})")
        bp = self.blocks[layer]
        with no_grad():
            h = add(matmul(x, self.proj_w), self.proj_b)
            for i in range(layer):
                h = self.block_forward(i, h)
            h_norm = h if self.cfg.no_layernorm else layer_norm(h, *bp.ln1)
            att = attention_weights(h_norm, self.graph, bp.heads[head], self.relations)
        return att.data.reshape(-1)
