"""Shared test utilities: finite-difference oracle and tiny graph builders.

The finite-difference gradient is the independent check for every tape op
and for end-to-end training graphs; it only ever evaluates forward passes.
"""

import json
import tracemalloc

import numpy as np

from magna.graph import Graph, kg_queries
from magna.tape import Tensor
from magna.tasks import filtered_rank

FD_STEP = 1e-5
FD_RTOL = 1e-4


def finite_diff_grad(f, x: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central differences of the scalar ``f()`` w.r.t. ``x``, mutated in place."""
    grad = np.zeros_like(x)
    flat, gflat = x.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = f()
        flat[i] = orig - step
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * step)
    return grad


def rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(1e-8, float(np.max(np.abs(analytic))), float(np.max(np.abs(numeric))))
    return float(np.max(np.abs(analytic - numeric))) / scale


def proj_loss(t: Tensor, proj: np.ndarray) -> Tensor:
    """Scalar loss sum(proj * t); fixed random proj makes gradients generic."""

    def backward(g):
        t.accumulate(float(g) * proj)

    return Tensor.from_op(np.asarray(float((proj * t.data).sum())), (t,), "proj", backward)


def check_grad(build_loss, params: dict, rtol: float = FD_RTOL) -> None:
    """Assert analytic grads of ``build_loss()`` match finite differences.

    ``params`` maps names to Tensors whose ``data`` the loss closes over.
    """
    for p in params.values():
        p.zero_grad()
    loss = build_loss()
    loss.backward()
    for name, p in params.items():
        assert p.grad is not None, f"no gradient reached {name}"
        numeric = finite_diff_grad(lambda: float(build_loss().data), p.data)
        err = rel_error(p.grad, numeric)
        assert err <= rtol, f"gradient mismatch for {name}: rel error {err:.3e}"


def graph_nodes(root: Tensor) -> list:
    """The distinct nodes in the graph below ``root``, ``root`` included."""
    seen, stack, found = set(), [root], []
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        found.append(t)
        stack.extend(t._parents)
    return found


def ops_named(root: Tensor, op_name: str) -> list:
    """The distinct nodes named ``op_name`` in the graph below ``root``."""
    return [t for t in graph_nodes(root) if t.op == op_name]


def count_ops(root: Tensor, op_name: str) -> int:
    """Number of distinct nodes named ``op_name`` in the graph below ``root``."""
    return len(ops_named(root, op_name))


def read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def peak_traced_bytes(fn) -> int:
    """Peak bytes held by allocations made while ``fn()`` runs, as traced by
    ``tracemalloc`` (numpy buffers included)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def answer_sets(triples, num_relations: int) -> dict:
    """Reference answer index: each (entity, relation) key of the
    ``kg_queries`` of ``triples`` mapped to the set of its answers."""
    groups = {}
    for e, q, answer in kg_queries(triples, num_relations).tolist():
        groups.setdefault((e, q), set()).add(answer)
    return groups


def known_set(kg, e, q) -> set:
    """The known answers to query (e, q), read from ``kg.answer_index`` by a
    bisection of its keys; empty for a key not in the index."""
    keys, indptr, answers = kg.answer_index
    key = e * kg.num_relations + q
    i = int(np.searchsorted(keys, key))
    if i == len(keys) or keys[i] != key:
        return set()
    return set(answers[indptr[i]:indptr[i + 1]].tolist())


def brute_force_rank(scores, target, known):
    candidates = [i for i in range(len(scores)) if i == target or i not in known]
    better = sum(1 for c in candidates if scores[c] > scores[target])
    tied = sum(1 for c in candidates if scores[c] == scores[target])
    # average rank over all tie orderings
    return better + (tied + 1) / 2.0


def brute_force_ranks(entity, relw, kg, triples):
    """``brute_force_rank`` of every query, in ``kg_filtered_ranks`` order;
    it shares no code with the ranker."""
    n_rel = len(kg.relation_names)
    out = []
    for h, r, t in np.asarray(triples).tolist():
        for e, q, target in ((h, r, t), (t, r + n_rel, h)):
            scores = (entity[e] * relw[q]) @ entity.T
            out.append(brute_force_rank(scores, target, known_set(kg, e, q)))
    return np.array(out)


def per_query_ranks(entity, relw, kg, triples):
    """Reference ranker: one mat-vec and one ``filtered_rank`` per rank, in
    ``kg_filtered_ranks`` order (tail replaced, then head via the reverse)."""
    n_rel = len(kg.relation_names)
    out = []
    for h, r, t in np.asarray(triples).tolist():
        for e, q, target in ((h, r, t), (t, r + n_rel, h)):
            scores = (entity[e] * relw[q]) @ entity.T
            out.append(filtered_rank(scores, target, list(known_set(kg, e, q))))
    return np.array(out)


def path_graph(n: int = 3) -> Graph:
    """Undirected path 0-1-...-n-1 stored in both directions, one relation."""
    edges = []
    for u in range(n - 1):
        edges.append((u, 0, u + 1))
        edges.append((u + 1, 0, u))
    return Graph(n, 1, edges)


def star_graph(leaves: int = 5) -> Graph:
    edges = []
    for leaf in range(1, leaves + 1):
        edges.append((leaf, 0, 0))
        edges.append((0, 0, leaf))
    return Graph(leaves + 1, 1, edges)


def random_graph(rng: np.random.Generator, n: int, extra_edges: int = 0,
                 num_relations: int = 1) -> Graph:
    """Connected-ish random undirected graph: a random tree plus extras."""
    edges = set()
    for v in range(1, n):
        u = int(rng.integers(v))
        edges.add((u, v))
    for _ in range(extra_edges):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    directed = []
    for u, v in sorted(edges):
        r = int(rng.integers(num_relations))
        directed.append((u, r, v))
        directed.append((v, r, u))
    return Graph(n, num_relations, directed).with_self_loops()


def random_attention(rng: np.random.Generator, graph: Graph) -> np.ndarray:
    """Row-stochastic per-edge attention from random scores, shape (E, 1)."""
    from magna.tape import _segment_softmax

    return _segment_softmax(rng.normal(size=(graph.num_edges, 1)), graph.in_indptr)


# ---------------------------------------------------------------------------
# chains of one-line ops, the references that the fused tape ops are pinned
# against bit for bit. The ops they need beyond the tape's own are written
# out here with their adjoints.


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; a dimension of 1 broadcasts."""
    from magna.tape import _binary_shapes, _unbroadcast

    _binary_shapes(a, b, "mul")

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g * a.data, b.data.shape))

    return Tensor.from_op(a.data * b.data, (a, b), "mul", backward)


def transpose(a: Tensor) -> Tensor:
    def backward(g):
        a.accumulate(g.T)

    return Tensor.from_op(a.data.T, (a,), "transpose", backward)


def gather_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    idx = np.asarray(idx, dtype=np.int64)

    def backward(g):
        da = np.zeros_like(a.data)
        np.add.at(da, idx, g)
        a.accumulate(da)

    return Tensor.from_op(a.data[idx], (a,), "gather_rows", backward)


def distmult_chain(entities, relations, heads, rels):
    """(E[heads] * R[rels]) @ E^T as five nodes: two row gathers, their
    product, the transposed entity table and a matmul."""
    from magna.tape import matmul

    return matmul(mul(gather_rows(entities, heads), gather_rows(relations, rels)),
                  transpose(entities))


def _chain_tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def backward(g):
        a.accumulate(g * (1.0 - out_data * out_data))

    return Tensor.from_op(out_data, (a,), "tanh", backward)


def _chain_slice_cols(a: Tensor, j0: int, j1: int) -> Tensor:
    def backward(g):
        da = np.zeros_like(a.data)
        da[:, j0:j1] = g
        a.accumulate(da)

    return Tensor.from_op(a.data[:, j0:j1].copy(), (a,), "slice_cols", backward)


def _chain_leaky_relu(a: Tensor, slope: float) -> Tensor:
    pos = a.data > 0

    def backward(g):
        a.accumulate(g * np.where(pos, 1.0, slope))

    return Tensor.from_op(np.where(pos, a.data, slope * a.data), (a,), "leaky_relu", backward)


def _chain_segment_softmax(scores: Tensor, indptr: np.ndarray) -> Tensor:
    from magna.tape import _expand_segments, _segment_reduce

    x = scores.data
    e = np.exp(x - _expand_segments(_segment_reduce(np.maximum, x, indptr), indptr))
    out_data = e / _expand_segments(_segment_reduce(np.add, e, indptr), indptr)

    def backward(g):
        gy = g * out_data
        seg = _segment_reduce(np.add, gy, indptr)
        scores.accumulate(gy - out_data * _expand_segments(seg, indptr))

    return Tensor.from_op(out_data, (scores,), "segment_softmax", backward)


def attention_chain(h, w_h, w_t, table, w_r, v_a, graph, slope):
    """softmax per destination of leaky_relu(v_a . tanh(W_h h_src || W_t h_dst
    || W_r r_rel)), one tape node per step (about 25 per head)."""
    from magna.tape import add, matmul

    d = w_h.shape[0]
    th = _chain_tanh(matmul(h, transpose(w_h)))
    tt = _chain_tanh(matmul(h, transpose(w_t)))
    tr = _chain_tanh(matmul(table, transpose(w_r)))
    part_h = matmul(th, transpose(_chain_slice_cols(v_a, 0, d)))
    part_t = matmul(tt, transpose(_chain_slice_cols(v_a, d, 2 * d)))
    part_r = matmul(tr, transpose(_chain_slice_cols(v_a, 2 * d, 3 * d)))
    per_edge = add(
        add(gather_rows(part_h, graph.src), gather_rows(part_t, graph.dst)),
        gather_rows(part_r, graph.rel),
    )
    return _chain_segment_softmax(_chain_leaky_relu(per_edge, slope), graph.in_indptr)


def separable_node_dataset(seed: int = 0, per_class: int = 10):
    """Two-community graph with class-aligned features; linearly separable.

    Mostly intra-class edges plus a couple of bridges, so message passing
    helps rather than hurts.
    """
    from magna.graph import NodeDataset

    rng = np.random.default_rng(seed)
    n = 2 * per_class
    labels = np.array([0] * per_class + [1] * per_class, dtype=np.int64)
    centers = np.array([[2.0, -1.0, 0.5, 0.0], [-1.5, 1.0, -0.5, 1.0]])
    features = centers[labels] + 0.3 * rng.normal(size=(n, 4))

    edges = set()
    for cls in (0, 1):
        members = np.flatnonzero(labels == cls)
        for i in range(len(members) - 1):
            edges.add((int(members[i]), int(members[i + 1])))
        for _ in range(per_class):
            u, v = rng.choice(members, size=2, replace=False)
            if u != v:
                edges.add((min(int(u), int(v)), max(int(u), int(v))))
    edges.add((0, per_class))  # one bridge between the communities
    directed = []
    for u, v in sorted(edges):
        directed.append((u, 0, v))
        directed.append((v, 0, u))
    graph = Graph(n, 1, directed)

    split = np.full(n, -1, dtype=np.int64)
    order = rng.permutation(n)
    split[order[: n // 2]] = 0          # train
    split[order[n // 2 : 3 * n // 4]] = 1  # val
    split[order[3 * n // 4 :]] = 2      # test
    return NodeDataset(graph, features, labels, split, num_classes=2)


def compositional_kg(tmp_dir: str, groups: int = 12, bridges: int = 2,
                     held_out_valid=(0, 1), held_out_test=(2,)):
    """Toy KG where the r1;r2 composition implies r3.

    Each group i has a_i -r1-> b_i_j -r2-> c_i over ``bridges`` parallel
    middle nodes; a_i -r3-> c_i is in train except for the held-out groups,
    whose implied triples land in valid/test. Ranking them correctly
    requires propagating entity identity across two hops.
    """
    import os

    from magna.graph import load_kg_dataset

    os.makedirs(tmp_dir, exist_ok=True)
    train, valid, test = [], [], []
    for i in range(groups):
        a, c = f"a{i}", f"c{i}"
        for j in range(bridges):
            b = f"b{i}_{j}"
            train.append((a, "r1", b))
            train.append((b, "r2", c))
        triple = (a, "r3", c)
        if i in held_out_valid:
            valid.append(triple)
        elif i in held_out_test:
            test.append(triple)
        else:
            train.append(triple)
    for name, triples in (("train", train), ("valid", valid), ("test", test)):
        with open(os.path.join(tmp_dir, f"{name}.txt"), "w") as fh:
            for h, r, t in triples:
                fh.write(f"{h}\t{r}\t{t}\n")
    return load_kg_dataset(tmp_dir)
