"""Dense matrix values with reverse-mode differentiation over a fixed op set.

Values are float64 numpy arrays (0-d scalars, per-edge vectors, or 2-d
matrices). Every op checks its result for NaN/Inf, and records a
backward closure when any input requires gradients. ``Tensor.backward()``
replays the recorded graph in reverse topological order, accumulating exact
gradients of a scalar into every reachable leaf with ``requires_grad``.

A graph is replayed once. Each op result drops its closure and its gradient
as soon as its adjoint has run, so the values the closures hold (hop states,
softmax rows) are freed during backward rather than when the graph dies;
only leaves keep their gradients. Replaying a consumed graph raises.

There is deliberately no general autodiff here: the vocabulary is the handful
of ops the architecture needs, so every adjoint is short enough to audit.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import scipy.sparse as sparse

__all__ = [
    "Tensor",
    "NonFiniteError",
    "no_grad",
    "matmul",
    "add",
    "concat_cols",
    "relu",
    "elu",
    "dropout",
    "layer_norm",
    "distmult_scores",
    "edge_attention",
    "edge_spmm",
]


class NonFiniteError(FloatingPointError):
    """A forward op produced NaN or Inf."""


_grad_enabled = True


@contextmanager
def no_grad():
    """Disable adjoint recording inside the block.

    Evaluation forwards run in constant memory under this: intermediates
    are freed as soon as they go out of scope instead of living on the tape.
    Values are unchanged. Not for use concurrently with a training forward
    (training is exclusive per the concurrency contract).
    """
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _check_finite(data: np.ndarray, op: str) -> None:
    # one allocation-free reduction; a sum that overflows to inf on genuinely
    # finite data falls through to the exact elementwise check
    if not np.isfinite(data.sum()) and not np.all(np.isfinite(data)):
        raise NonFiniteError(f"non-finite values produced by op '{op}'")


class Tensor:
    """A value on the tape.

    ``grad`` is populated by ``backward()`` on leaves and has the same shape
    as ``data``. Tensors created by ops keep references to their parents only
    while gradients are required, so evaluation-mode forwards hold no tape.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        if self.data.ndim > 2:
            raise ValueError(f"tensors are at most 2-d, got shape {self.data.shape}")
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.op = "leaf"
        self._parents = ()
        self._backward = None

    @classmethod
    def from_op(cls, data: np.ndarray, parents: tuple, op: str, backward) -> "Tensor":
        """Create an op result; records the adjoint only if a parent needs it."""
        _check_finite(data, op)
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out.op = op
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward = None
        return out

    @property
    def shape(self):
        return self.data.shape

    def accumulate(self, g: np.ndarray, fresh: bool = False) -> None:
        """Add ``g`` to ``grad``. An adjoint passes ``fresh=True`` for a
        buffer it allocated and never touches again, which then becomes the
        first gradient without a copy."""
        if self.grad is None:
            self.grad = g if fresh else np.array(g, copy=True)
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable ``requires_grad`` leaf.

        Consumes the graph: each op result's adjoint runs once, after which
        its closure and gradient are dropped. Raises ``RuntimeError`` before
        running any adjoint if the graph reaches an op result already
        consumed by an earlier ``backward()``.
        """
        if self.data.size != 1:
            raise ValueError("backward() starts from a scalar loss")
        order = _toposort(self)
        if any(t._parents and t._backward is None for t in order):
            raise RuntimeError("backward() reached a graph that an earlier backward() consumed")
        self.grad = np.ones_like(self.data)
        for t in reversed(order):
            if t._backward is None:
                continue  # a leaf keeps its gradient
            if t.grad is not None:
                t._backward(t.grad)
            t._backward = t.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self.op!r}, requires_grad={self.requires_grad})"


def _toposort(root: Tensor) -> list:
    order, visited = [], set()
    stack = [(root, iter(root._parents))]
    visited.add(id(root))
    while stack:
        node, parents = stack[-1]
        advanced = False
        for p in parents:
            if id(p) not in visited and p.requires_grad:
                visited.add(id(p))
                stack.append((p, iter(p._parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    return order


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    return g.sum(axis=axes, keepdims=True)


def _binary_shapes(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.ndim != b.data.ndim:
        raise ValueError(f"{op}: ndim mismatch {a.shape} vs {b.shape}")
    for da, db in zip(a.shape, b.shape):
        if da != db and 1 not in (da, db):
            raise ValueError(f"{op}: incompatible shapes {a.shape} vs {b.shape}")


# ---------------------------------------------------------------------------
# op set


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul: {a.shape} @ {b.shape}")
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(g @ b.data.T)
        if b.requires_grad:
            b.accumulate(a.data.T @ g)

    return Tensor.from_op(out_data, (a, b), "matmul", backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "add")
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.data.shape))

    return Tensor.from_op(out_data, (a, b), "add", backward)


def concat_cols(tensors) -> Tensor:
    tensors = list(tensors)
    rows = {t.data.shape[0] for t in tensors}
    if len(rows) != 1:
        raise ValueError("concat_cols: row counts differ")
    widths = [t.data.shape[1] for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=1)

    def backward(g):
        j = 0
        for t, w in zip(tensors, widths):
            if t.requires_grad:
                t.accumulate(g[:, j : j + w])
            j += w

    return Tensor.from_op(out_data, tuple(tensors), "concat_cols", backward)


def relu(a: Tensor) -> Tensor:
    pos = a.data > 0
    out_data = np.where(pos, a.data, 0.0)

    def backward(g):
        a.accumulate(g * pos)

    return Tensor.from_op(out_data, (a,), "relu", backward)


def elu(a: Tensor) -> Tensor:
    pos = a.data > 0
    expm1 = np.expm1(np.minimum(a.data, 0.0))
    out_data = np.where(pos, a.data, expm1)

    def backward(g):
        a.accumulate(g * np.where(pos, 1.0, expm1 + 1.0))

    return Tensor.from_op(out_data, (a,), "elu", backward)


def dropout(a: Tensor, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout: retained entries scaled by 1/(1-p) so the mean is kept."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return a
    keep = rng.random(a.data.shape) >= p
    factor = keep / (1.0 - p)
    out_data = a.data * factor

    def backward(g):
        a.accumulate(g * factor)

    return Tensor.from_op(out_data, (a,), "dropout", backward)


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalization with learnable per-feature affine parameters."""
    x = a.data
    mu = x.mean(axis=1, keepdims=True)
    # the steps of ``x.var``, with the centred rows kept and scaled in place
    xhat = x - mu
    var = (xhat * xhat).sum(axis=1, keepdims=True) / x.shape[1]
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    out_data = xhat * gamma.data + beta.data

    def backward(g):
        if gamma.requires_grad:
            gamma.accumulate((g * xhat).sum(axis=0, keepdims=True))
        if beta.requires_grad:
            beta.accumulate(g.sum(axis=0, keepdims=True))
        if a.requires_grad:
            gg = g * gamma.data
            m1 = gg.mean(axis=1, keepdims=True)
            m2 = (gg * xhat).mean(axis=1, keepdims=True)
            a.accumulate((gg - m1 - xhat * m2) * inv)

    return Tensor.from_op(out_data, (a, gamma, beta), "layer_norm", backward)


def distmult_scores(entities: Tensor, relations: Tensor, heads, rels) -> Tensor:
    """``(E[heads] * R[rels]) @ E^T``: the DistMult score of every entity as the
    tail of each (head, relation) query, shape (queries, entities), as one node.

    The adjoint keeps the bits of the gather, product and matmul chain it
    replaces by adding in its order: ``entities`` takes ``(q^T G)^T`` first,
    then the head rows of ``(G E) * R[rels]`` scattered into a zeroed buffer,
    and ``relations`` takes the rows of ``(G E) * E[heads]``.
    """
    heads = np.asarray(heads, dtype=np.int64)
    rels = np.asarray(rels, dtype=np.int64)
    if heads.shape != rels.shape or entities.shape[1] != relations.shape[1]:
        raise ValueError(f"distmult_scores: heads {heads.shape} and rels {rels.shape}, entities "
                         f"{entities.shape} and relations {relations.shape} do not match")
    e_h, r_r = entities.data[heads], relations.data[rels]
    q = e_h * r_r

    def backward(g):
        ge = g @ entities.data
        if entities.requires_grad:
            entities.accumulate((q.T @ g).T, fresh=True)
            de = np.zeros_like(entities.data)
            np.add.at(de, heads, ge * r_r)
            entities.accumulate(de)
        if relations.requires_grad:
            dr = np.zeros_like(relations.data)
            np.add.at(dr, rels, ge * e_h)
            relations.accumulate(dr, fresh=True)

    return Tensor.from_op(q @ entities.data.T, (entities, relations), "distmult_scores", backward)


# ---------------------------------------------------------------------------
# segment helpers (edges sorted by destination; indptr is CSR-style)


def _segment_reduce(ufunc: np.ufunc, values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """``ufunc`` reduced over each segment's rows; empty segments give 0."""
    starts = indptr[:-1]
    out = np.zeros((len(starts),) + values.shape[1:], dtype=values.dtype)
    nonempty = indptr[1:] > starts
    if values.shape[0] and nonempty.any():
        # consecutive nonempty starts delimit exactly one segment's rows
        out[nonempty] = ufunc.reduceat(values, starts[nonempty], axis=0)
    return out


def _expand_segments(seg_values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    return np.repeat(seg_values, np.diff(indptr), axis=0)


def _segment_softmax(x: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Softmax within each contiguous segment of the rows of ``x``, in place.

    Missing pairs are never materialized: normalizing only over existing
    edges is what masking absent entries to -inf would produce. Max
    subtraction keeps exponentials in range.
    """
    if indptr[-1] != x.shape[0]:
        raise ValueError("segment softmax: segments must partition the edge list")
    x -= _expand_segments(_segment_reduce(np.maximum, x, indptr), indptr)
    np.exp(x, out=x)
    x /= _expand_segments(_segment_reduce(np.add, x, indptr), indptr)
    return x


def _segment_softmax_grad(g: np.ndarray, out: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """The segment softmax adjoint: the gradient of its input, given its
    output ``out`` and the gradient ``g`` of that output."""
    gx = g * out
    gx -= out * _expand_segments(_segment_reduce(np.add, gx, indptr), indptr)
    return gx


def _attention_scores(h, w_h, w_t, table, w_r, v_a, graph, slope, keep_tanh):
    """Per-edge leaky_relu(v_a . tanh(W_h h_src || W_t h_dst || W_r r_rel)), shape (E, 1).

    tanh acts elementwise, so the dot with the concatenation splits exactly
    into three terms, one per endpoint, taken per node (or relation) and
    gathered onto edges. Returns the scores, their sign mask and, with
    ``keep_tanh``, the three tanh outputs (otherwise each is freed once its
    term is taken), all plain arrays.
    """
    if graph.num_edges and int(graph.rel.max()) >= table.shape[0]:
        raise ValueError(
            f"relation id {int(graph.rel.max())} out of range for table of "
            f"{table.shape[0]} relations"
        )
    d = w_h.shape[0]
    if v_a.shape != (1, 3 * d):
        raise ValueError(f"edge_attention: v_a must have shape (1, {3 * d}), got {v_a.shape}")
    v = v_a.reshape(3, d)  # the source, destination and relation slices
    tanhs, parts = [], []
    for j, (x, w) in enumerate(((h, w_h), (h, w_t), (table, w_r))):
        t = x @ w.T
        np.tanh(t, out=t)
        parts.append(t @ v[j:j + 1].T)
        if keep_tanh:
            tanhs.append(t)
        del t  # else freed before the next projection is taken
    src_part, dst_part, rel_part = parts
    scores = src_part[graph.src]
    scores += dst_part[graph.dst]
    scores += rel_part[graph.rel]
    pos = scores > 0
    np.multiply(scores, slope, out=scores, where=~pos)
    return scores, pos, tanhs


def edge_attention(h: Tensor, w_h: Tensor, w_t: Tensor, relation_table: Tensor, w_r: Tensor,
                   v_a: Tensor, graph, slope: float) -> Tensor:
    """One head's row-stochastic per-edge attention, shape (E, 1), as one tape node.

    Each edge (src, rel, dst) scores leaky_relu(v_a . tanh(W_h h_src ||
    W_t h_dst || W_r r_rel)) (see ``_attention_scores``); the attention is
    the softmax of the scores over each destination's incoming edges,
    ``graph.in_indptr``.

    The adjoint runs the softmax and leaky slope per edge, scatters the
    three endpoint terms onto nodes and relations with ``np.bincount``,
    then goes through each tanh and projection; ``h`` takes its destination
    term before its source term. It keeps the three tanh outputs, the
    attention and the sign mask when a gradient is recorded, and only the
    attention otherwise.
    """
    if h.data.shape[0] != graph.num_nodes:
        raise ValueError("edge_attention: feature rows must equal node count")
    params = (h, w_h, w_t, relation_table, w_r, v_a)
    recording = _grad_enabled and any(p.requires_grad for p in params)
    scores, pos, tanhs = _attention_scores(*(p.data for p in params), graph, slope, recording)
    att = _segment_softmax(scores, graph.in_indptr)

    def backward(g):
        ge = _segment_softmax_grad(g, att, graph.in_indptr)
        np.multiply(ge, slope, out=ge, where=~pos)
        ge = ge[:, 0]
        v = v_a.data.reshape(3, -1)
        gv = np.zeros_like(v) if v_a.requires_grad else None
        # relation term first, then destination, then source
        for j, x, w, idx in ((2, relation_table, w_r, graph.rel), (1, h, w_t, graph.dst),
                             (0, h, w_h, graph.src)):
            t = tanhs[j]
            gp = np.bincount(idx, ge, minlength=t.shape[0]).reshape(-1, 1)
            if gv is not None:
                gv[j] = (t.T @ gp)[:, 0]
            if x.requires_grad or w.requires_grad:
                # g * (1 - t*t) with g = gp v_j, built in t's buffer and one more
                gt = gp * v[j]
                t *= t
                np.subtract(1.0, t, out=t)
                gt *= t
                if w.requires_grad:
                    w.accumulate((x.data.T @ gt).T)
                if x.requires_grad:
                    x.accumulate(gt @ w.data, fresh=True)
        if gv is not None:
            v_a.accumulate(gv.reshape(1, -1), fresh=True)

    return Tensor.from_op(att, params, "edge_attention", backward)


# edges per block of the attention adjoint: a row-dot over a cache-sized block
# gives the same bits as over the whole edge list, and runs faster
_EDGE_BLOCK = 512


def _edge_row_dot(g: np.ndarray, z: np.ndarray, graph) -> np.ndarray:
    """Per-edge (g[dst] * z[src]).sum(axis=1), shape (E, 1), one edge block at a time."""
    out = np.empty((graph.num_edges, 1))
    for e0 in range(0, graph.num_edges, _EDGE_BLOCK):
        e1 = e0 + _EDGE_BLOCK
        np.sum(g[graph.dst[e0:e1]] * z[graph.src[e0:e1]], axis=1, keepdims=True, out=out[e0:e1])
    return out


def edge_spmm(att: Tensor, h: Tensor, graph, hops: int = 1, alpha: float = 0.0) -> Tensor:
    """``hops`` steps of Z <- (1-alpha) A Z + alpha H from Z_0 = H, as one tape node.

    A is the per-edge attention as a sparse matrix: (A Z)[i] sums att_e * Z[j]
    over edges (j, k, i). ``att`` is per-edge, shape (E, 1), aligned with
    ``graph`` edge order (sorted by destination). The defaults give the
    one-hop product A H. Cost is hops * E * cols: the CSR view of the edge
    layout (``src``, ``in_indptr``) is built once per call, and the hops run
    in place with the arithmetic of a scale op followed by an add.

    The adjoint runs the same recursion backward, last hop first: with
    gs = (1-alpha) G, hop k adds the sampled row-dot gs[dst] . Z_{k-1}[src]
    to the attention gradient and passes G <- A^T gs down; H receives
    alpha times the summed G, then A^T gs of the first hop. Only the
    attention gradient needs the hop states, so Z_0 .. Z_{K-1} are kept
    when a gradient of ``att`` is recorded, and none are under ``no_grad``.
    """
    if att.data.ndim != 2 or att.data.shape[1] != 1:
        raise ValueError("edge_spmm: attention must have shape (E, 1)")
    if att.data.shape[0] != graph.num_edges:
        raise ValueError("edge_spmm: attention length must equal edge count")
    if h.data.shape[0] != graph.num_nodes:
        raise ValueError("edge_spmm: feature rows must equal node count")
    if hops < 1:
        raise ValueError(f"edge_spmm: hop count must be >= 1, got {hops}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"edge_spmm: alpha must be in [0, 1], got {alpha}")
    n = graph.num_nodes
    matrix = sparse.csr_matrix(
        (att.data[:, 0], graph.src, graph.in_indptr), shape=(n, n)
    )
    keep = 1.0 - alpha
    teleport = h.data * alpha if alpha else None
    states = [] if _grad_enabled and att.requires_grad else None
    z = h.data
    for _ in range(hops):
        if states is not None:
            states.append(z)
        z = matrix @ z
        if alpha:
            z *= keep
            z += teleport

    def backward(g):
        g_hop, g_sum = g, None
        for k in reversed(range(hops)):
            if alpha and h.requires_grad:
                if g_sum is None:
                    g_sum = g_hop.copy()
                else:
                    g_sum += g_hop
            gs = g_hop * keep
            if att.requires_grad:
                att.accumulate(_edge_row_dot(gs, states[k], graph))
            if k or h.requires_grad:
                g_hop = matrix.T @ gs
        if h.requires_grad:
            if alpha:
                h.accumulate(g_sum * alpha)
            h.accumulate(g_hop)

    return Tensor.from_op(z, (att, h), "edge_spmm", backward)
