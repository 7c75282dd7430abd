"""Dense matrix values with reverse-mode differentiation over a fixed op set.

Values are float64 numpy arrays (0-d scalars, per-edge vectors, or 2-d
matrices). Every op checks its result for NaN/Inf, and records a
backward closure when any input requires gradients. ``Tensor.backward()``
replays the recorded graph in reverse topological order, accumulating exact
gradients of a scalar into every reachable leaf with ``requires_grad``.

The graph is kept apart from the values. A recorded op result gets a
``Node``: its op name, its parents' gradient sinks, its adjoint and its
gradient, but no value. Each adjoint captures only the arrays it reads (a
matmul keeps one operand for the other's gradient, an add only shapes), so
an op result's value dies as soon as the caller drops it unless an adjoint
reads it: the heads' diffusion outputs die once concatenated. Where a
node-sized value is cheap to rebuild from arrays an adjoint holds anyway,
the adjoint rebuilds it instead: the diffusion's hop states and the
attention's tanh projections are never held, and dropout keeps a one-byte
mask. A graph is replayed once: each node drops its adjoint and gradient
as soon as the adjoint has run, so what the adjoints hold (softmax rows,
sign masks) is freed during backward; only leaves keep their gradients.
Replaying a consumed graph raises.

There is deliberately no general autodiff here: the vocabulary is the handful
of ops the architecture needs, so every adjoint is short enough to audit.
The losses are nodes of the same tape but live in ``tasks``; the KG loss
scores its DistMult queries itself, so no score matrix is a node here.
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


def _accumulate(sink, g: np.ndarray, fresh: bool) -> None:
    if sink.grad is None:
        sink.grad = g if fresh else np.array(g, copy=True)
    else:
        sink.grad += g


class Node:
    """The tape's record of one op result, which holds no value.

    ``_parents`` are the gradient sinks of the op's inputs that take a
    gradient, in argument order: the ``Node`` of a recorded op result, the
    ``Tensor`` itself for a leaf. ``_backward`` is the adjoint and ``grad``
    the gradient summed so far; ``backward()`` drops both once the adjoint
    has run.
    """

    __slots__ = ("op", "_parents", "_backward", "grad")

    def __init__(self, op: str, parents: tuple, backward):
        self.op = op
        self._parents = parents
        self._backward = backward
        self.grad = None

    def accumulate(self, g: np.ndarray, fresh: bool = False) -> None:
        """As ``Tensor.accumulate``."""
        _accumulate(self, g, fresh)

    def __repr__(self):
        return f"Node(op={self.op!r}, parents={len(self._parents)})"


class Tensor:
    """A value, and for a recorded op result the ``Node`` that records it.

    ``grad`` is populated by ``backward()`` on leaves and has the same shape
    as ``data``. An op result is recorded only while gradients are
    required, so evaluation-mode forwards hold no tape.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        if self.data.ndim > 2:
            raise ValueError(f"tensors are at most 2-d, got shape {self.data.shape}")
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._node = None

    @classmethod
    def from_op(cls, data: np.ndarray, parents: tuple, op: str, backward) -> "Tensor":
        """Create an op result; records a node with the adjoint only if a
        parent needs a gradient. The node keeps the parents' sinks, never
        their values: an adjoint that captures the arrays it reads, not the
        parent tensors, lets every other value die with its last caller."""
        _check_finite(data, op)
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        sinks = tuple(p.sink for p in parents if p.requires_grad) if _grad_enabled else ()
        out.requires_grad = bool(sinks)
        out._node = Node(op, sinks, backward) if sinks else None
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def sink(self):
        """Where an adjoint adds this tensor's gradient: its ``Node`` for a
        recorded op result, the tensor itself for a leaf, and None when it
        takes no gradient."""
        if not self.requires_grad:
            return None
        return self if self._node is None else self._node

    @property
    def op(self) -> str:
        return "leaf" if self._node is None else self._node.op

    @property
    def _parents(self) -> tuple:
        return () if self._node is None else self._node._parents

    @property
    def _backward(self):
        """The recorded adjoint; None for a leaf, an unrecorded result or a
        consumed node. Assigning replaces the adjoint that ``backward()`` runs."""
        return None if self._node is None else self._node._backward

    @_backward.setter
    def _backward(self, fn):
        if self._node is None:
            raise AttributeError("only a recorded op result has an adjoint")
        self._node._backward = fn

    def accumulate(self, g: np.ndarray, fresh: bool = False) -> None:
        """Add ``g`` to the gradient, the node's for a recorded op result.
        An adjoint passes ``fresh=True`` for a buffer it allocated and never
        touches again, which then becomes the first gradient without a copy."""
        _accumulate(self if self._node is None else self._node, g, fresh)

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every reachable ``requires_grad`` leaf.

        Consumes the graph: each node's adjoint runs once, after which its
        closure and gradient are dropped. Raises ``RuntimeError`` before
        running any adjoint if the graph reaches a node already consumed by
        an earlier ``backward()``.
        """
        if self.data.size != 1:
            raise ValueError("backward() starts from a scalar loss")
        root = self if self._node is None else self._node
        order = _toposort(root)
        if any(t._parents and t._backward is None for t in order):
            raise RuntimeError("backward() reached a graph that an earlier backward() consumed")
        root.grad = np.ones_like(self.data)
        for t in reversed(order):
            if t._backward is None:
                continue  # a leaf keeps its gradient
            if t.grad is not None:
                t._backward(t.grad)
            t._backward = t.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self.op!r}, requires_grad={self.requires_grad})"


def _toposort(root) -> list:
    """The sinks below ``root`` (a ``Node`` or a leaf), each after its parents."""
    order, visited = [], set()
    stack = [(root, iter(root._parents))]
    visited.add(id(root))
    while stack:
        node, parents = stack[-1]
        advanced = False
        for p in parents:
            if id(p) not in visited:
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
    sa, sb = a.sink, b.sink
    # each operand is kept only for the other's gradient
    a_data = a.data if sb is not None else None
    b_data = b.data if sa is not None else None

    def backward(g):
        if sa is not None:
            sa.accumulate(g @ b_data.T, fresh=True)
        if sb is not None:
            sb.accumulate(a_data.T @ g, fresh=True)

    return Tensor.from_op(out_data, (a, b), "matmul", backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "add")
    out_data = a.data + b.data
    sa, sb = a.sink, b.sink
    a_shape, b_shape = a.data.shape, b.data.shape

    def backward(g):
        if sa is not None:
            sa.accumulate(_unbroadcast(g, a_shape))
        if sb is not None:
            sb.accumulate(_unbroadcast(g, b_shape))

    return Tensor.from_op(out_data, (a, b), "add", backward)


def concat_cols(tensors) -> Tensor:
    tensors = list(tensors)
    rows = {t.data.shape[0] for t in tensors}
    if len(rows) != 1:
        raise ValueError("concat_cols: row counts differ")
    widths = [t.data.shape[1] for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=1)
    sinks = [t.sink for t in tensors]

    def backward(g):
        j = 0
        for s, w in zip(sinks, widths):
            if s is not None:
                s.accumulate(g[:, j : j + w])
            j += w

    return Tensor.from_op(out_data, tuple(tensors), "concat_cols", backward)


def relu(a: Tensor) -> Tensor:
    pos = a.data > 0
    # the bits of np.where(pos, a.data, 0.0), signed zeros included
    out_data = np.maximum(a.data, 0.0)
    sa = a.sink

    def backward(g):
        sa.accumulate(g * pos, fresh=True)

    return Tensor.from_op(out_data, (a,), "relu", backward)


def elu(a: Tensor) -> Tensor:
    pos = a.data > 0
    expm1 = np.expm1(np.minimum(a.data, 0.0))
    out_data = np.where(pos, a.data, expm1)
    sa = a.sink

    def backward(g):
        sa.accumulate(g * np.where(pos, 1.0, expm1 + 1.0), fresh=True)

    return Tensor.from_op(out_data, (a,), "elu", backward)


def dropout(a: Tensor, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout: retained entries scaled by 1/(1-p) so the mean is kept."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return a
    keep = rng.random(a.data.shape) >= p
    out_data = a.data * (keep / (1.0 - p))
    sa = a.sink

    def backward(g):
        # the forward's factor array, rebuilt from the one-byte mask
        factor = keep / (1.0 - p)
        sa.accumulate(np.multiply(g, factor, out=factor), fresh=True)

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
    out_data = xhat * gamma.data
    out_data += beta.data
    sa, sg, sb = a.sink, gamma.sink, beta.sink
    gamma_data = gamma.data

    def backward(g):
        if sg is not None:
            sg.accumulate((g * xhat).sum(axis=0, keepdims=True), fresh=True)
        if sb is not None:
            sb.accumulate(g.sum(axis=0, keepdims=True), fresh=True)
        if sa is not None:
            gg = g * gamma_data
            m1 = gg.mean(axis=1, keepdims=True)
            m2 = (gg * xhat).mean(axis=1, keepdims=True)
            sa.accumulate((gg - m1 - xhat * m2) * inv, fresh=True)

    return Tensor.from_op(out_data, (a, gamma, beta), "layer_norm", backward)


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


def _tanh_projection(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``tanh(x @ w.T)`` in a fresh buffer: one endpoint term's projection,
    built the same way by the attention forward and rebuilt by its adjoint."""
    t = x @ w.T
    np.tanh(t, out=t)
    return t


def _attention_scores(h, w_h, w_t, table, w_r, v_a, graph, slope):
    """Per-edge leaky_relu(v_a . tanh(W_h h_src || W_t h_dst || W_r r_rel)), shape (E, 1).

    tanh acts elementwise, so the dot with the concatenation splits exactly
    into three terms, one per endpoint, taken per node (or relation) and
    gathered onto edges; each tanh projection is freed once its term is
    taken. Returns the scores and their sign mask, both plain arrays.
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
    src_part, dst_part, rel_part = (_tanh_projection(x, w) @ v[j:j + 1].T
                                    for j, (x, w) in enumerate(((h, w_h), (h, w_t), (table, w_r))))
    scores = src_part[graph.src]
    scores += dst_part[graph.dst]
    scores += rel_part[graph.rel]
    pos = scores > 0
    np.multiply(scores, slope, out=scores, where=~pos)
    return scores, pos


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
    term before its source term. When a gradient is recorded it holds the
    attention (its own output), the sign mask and its inputs' arrays, and
    nothing node-sized of its own: it rebuilds each term's tanh projection
    with ``_tanh_projection``, with the forward's bits as long as those
    arrays are unchanged, and frees it once the term is taken. That costs
    one projection and one tanh per term in the backward, and spares a
    recorded head its (N, d) tanh outputs.
    """
    if h.data.shape[0] != graph.num_nodes:
        raise ValueError("edge_attention: feature rows must equal node count")
    params = (h, w_h, w_t, relation_table, w_r, v_a)
    arrays = [p.data for p in params]
    h_data, w_h_data, w_t_data, table_data, w_r_data, v_a_data = arrays
    scores, pos = _attention_scores(*arrays, graph, slope)
    att = _segment_softmax(scores, graph.in_indptr)
    s_h, s_w_h, s_w_t, s_table, s_w_r, s_v_a = (p.sink for p in params)

    def backward(g):
        ge = _segment_softmax_grad(g, att, graph.in_indptr)
        np.multiply(ge, slope, out=ge, where=~pos)
        ge = ge[:, 0]
        v = v_a_data.reshape(3, -1)
        gv = np.zeros_like(v) if s_v_a is not None else None
        # relation term first, then destination, then source
        for j, x, sx, w, sw, idx in ((2, table_data, s_table, w_r_data, s_w_r, graph.rel),
                                     (1, h_data, s_h, w_t_data, s_w_t, graph.dst),
                                     (0, h_data, s_h, w_h_data, s_w_h, graph.src)):
            t = _tanh_projection(x, w)
            gp = np.bincount(idx, ge, minlength=t.shape[0]).reshape(-1, 1)
            if gv is not None:
                gv[j] = (t.T @ gp)[:, 0]
            if sx is not None or sw is not None:
                # g * (1 - t*t) with g = gp v_j, built in t's buffer and one more
                gt = gp * v[j]
                t *= t
                np.subtract(1.0, t, out=t)
                gt *= t
                del t
                if sw is not None:
                    sw.accumulate((x.T @ gt).T)
                if sx is not None:
                    sx.accumulate(gt @ w, fresh=True)
        if gv is not None:
            s_v_a.accumulate(gv.reshape(1, -1), fresh=True)

    return Tensor.from_op(att, params, "edge_attention", backward)


# edges per block of the attention adjoint: a row-dot over a cache-sized block
# gives the same bits as over the whole edge list, and runs faster
_EDGE_BLOCK = 512


def _edge_row_dot(g: np.ndarray, z: np.ndarray, graph) -> np.ndarray:
    """Per-edge (g[dst] * z[src]).sum(axis=1), shape (E, 1), one edge block at a time."""
    out = np.empty((graph.num_edges, 1))
    for e0 in range(0, graph.num_edges, _EDGE_BLOCK):
        e1 = e0 + _EDGE_BLOCK
        prod = z[graph.src[e0:e1]]
        prod *= g[graph.dst[e0:e1]]
        np.sum(prod, axis=1, keepdims=True, out=out[e0:e1])
    return out


def _hop_states(matrix, h: np.ndarray, hops: int, alpha: float):
    """Yield Z_0 = H, then each of ``hops`` steps of Z <- (1-alpha) A Z + alpha H,
    with A = ``matrix``. Each step runs in place with the arithmetic of a
    scale op followed by an add."""
    keep = 1.0 - alpha
    teleport = h * alpha if alpha and hops else None
    z = h
    yield z
    for _ in range(hops):
        z = matrix @ z
        if alpha:
            z *= keep
            z += teleport
        yield z


def edge_spmm(att: Tensor, h: Tensor, graph, hops: int = 1, alpha: float = 0.0) -> Tensor:
    """``hops`` steps of Z <- (1-alpha) A Z + alpha H from Z_0 = H, as one tape node.

    A is the per-edge attention as a sparse matrix: (A Z)[i] sums att_e * Z[j]
    over edges (j, k, i). ``att`` is per-edge, shape (E, 1), aligned with
    ``graph`` edge order (sorted by destination). The defaults give the
    one-hop product A H. Cost is hops * E * cols: the CSR view of the edge
    layout (``src``, ``in_indptr``) is built once per call, and the hops run
    in place (``_hop_states``).

    The adjoint runs the same recursion backward, last hop first: with
    gs = (1-alpha) G, hop k adds the sampled row-dot gs[dst] . Z_{k-1}[src]
    to the attention gradient and passes G <- A^T gs down; H receives
    alpha times the summed G, then A^T gs of the first hop. The forward
    keeps no hop state: when ``att`` takes a gradient, the adjoint re-runs
    Z_1 .. Z_{K-1} from H through ``_hop_states``, with the forward's bits
    as long as the array of ``h`` it keeps is unchanged, and frees each
    once used. Its own buffers are scaled in place, so the recompute costs
    about K-1 sparse products and little extra time.
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
    for z in _hop_states(matrix, h.data, hops, alpha):
        pass  # only the last state, Z_K, is kept
    keep = 1.0 - alpha
    s_att, s_h = att.sink, h.sink
    h_data = h.data if s_att is not None else None  # to re-run the hop states

    def backward(g):
        states = list(_hop_states(matrix, h_data, hops - 1, alpha)) if s_att is not None else None
        g_sum = g.copy() if alpha and s_h is not None else None
        gs = g * keep  # a new buffer: the incoming gradient is never written
        for k in reversed(range(hops)):
            if s_att is not None:
                s_att.accumulate(_edge_row_dot(gs, states.pop(), graph), fresh=True)
            if k:
                gs = matrix.T @ gs  # G of hop k, scaled in place once summed
                if g_sum is not None:
                    g_sum += gs
                gs *= keep
        if s_h is not None:
            if alpha:
                g_sum *= alpha
                s_h.accumulate(g_sum, fresh=True)
            s_h.accumulate(matrix.T @ gs, fresh=True)

    return Tensor.from_op(z, (att, h), "edge_spmm", backward)
