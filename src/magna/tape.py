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
    "transpose",
    "add",
    "mul",
    "concat_cols",
    "slice_cols",
    "leaky_relu",
    "relu",
    "elu",
    "tanh",
    "dropout",
    "layer_norm",
    "gather_rows",
    "segment_softmax",
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


def transpose(a: Tensor) -> Tensor:
    def backward(g):
        a.accumulate(g.T)

    return Tensor.from_op(a.data.T, (a,), "transpose", backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "add")
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.data.shape))

    return Tensor.from_op(out_data, (a, b), "add", backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "mul")
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g * a.data, b.data.shape))

    return Tensor.from_op(out_data, (a, b), "mul", backward)


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


def slice_cols(a: Tensor, j0: int, j1: int) -> Tensor:
    out_data = a.data[:, j0:j1].copy()

    def backward(g):
        da = np.zeros_like(a.data)
        da[:, j0:j1] = g
        a.accumulate(da)

    return Tensor.from_op(out_data, (a,), "slice_cols", backward)


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    pos = a.data > 0
    out_data = np.where(pos, a.data, slope * a.data)

    def backward(g):
        a.accumulate(g * np.where(pos, 1.0, slope))

    return Tensor.from_op(out_data, (a,), "leaky_relu", backward)


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


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def backward(g):
        a.accumulate(g * (1.0 - out_data * out_data))

    return Tensor.from_op(out_data, (a,), "tanh", backward)


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


def gather_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    idx = np.asarray(idx, dtype=np.int64)
    out_data = a.data[idx]

    def backward(g):
        da = np.zeros_like(a.data)
        np.add.at(da, idx, g)
        a.accumulate(da)

    return Tensor.from_op(out_data, (a,), "gather_rows", backward)


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


def segment_softmax(scores: Tensor, indptr: np.ndarray) -> Tensor:
    """Softmax within each contiguous segment of a per-edge score vector.

    Missing pairs are never materialized: normalizing only over existing
    edges is what masking absent entries to -inf would produce. Max
    subtraction keeps exponentials in range.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    if indptr[-1] != scores.data.shape[0]:
        raise ValueError("segment_softmax: segments must partition the edge list")
    x = scores.data
    m = _segment_reduce(np.maximum, x, indptr)
    e = np.exp(x - _expand_segments(m, indptr))
    s = _segment_reduce(np.add, e, indptr)
    out_data = e / _expand_segments(s, indptr)

    def backward(g):
        gy = g * out_data
        seg = _segment_reduce(np.add, gy, indptr)
        scores.accumulate(gy - out_data * _expand_segments(seg, indptr))

    return Tensor.from_op(out_data, (scores,), "segment_softmax", backward)


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
