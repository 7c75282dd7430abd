"""Shared test utilities: finite-difference oracle, tiny graph builders, and
reference implementations that only tests call.

The finite-difference gradient is the independent check for every tape op
and for end-to-end training graphs; it only ever evaluates forward passes.
"""

import json
import os
import tracemalloc

import numpy as np

from magna.attention import ORACLE_MAX_NODES
from magna.graph import SPLIT_NONE, SPLIT_TOKENS, Graph, GraphFormatError, _read_lines, kg_queries
from magna.tape import Tensor
from magna.tasks import _rank_rows

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
    """Scalar loss sum(proj * t); fixed random proj makes gradients generic.
    Its adjoint holds ``t``'s gradient sink, not ``t``, so ``t``'s value
    lives only as long as the caller or another adjoint holds it."""
    sink = t.sink

    def backward(g):
        sink.accumulate(float(g) * proj)

    return Tensor.from_op(np.asarray(float((proj * t.data).sum())), (t,), "proj", backward)


def check_grad(build_loss, params: dict, rtol: float = FD_RTOL) -> None:
    """Assert analytic grads of ``build_loss()`` match finite differences.

    ``params`` maps names to Tensors whose ``data`` the loss closes over.
    """
    for p in params.values():
        p.grad = None
    loss = build_loss()
    loss.backward()
    for name, p in params.items():
        assert p.grad is not None, f"no gradient reached {name}"
        numeric = finite_diff_grad(lambda: float(build_loss().data), p.data)
        err = rel_error(p.grad, numeric)
        assert err <= rtol, f"gradient mismatch for {name}: rel error {err:.3e}"


def graph_nodes(root: Tensor) -> list:
    """The distinct gradient sinks of the graph below ``root``: the tape
    ``Node`` of ``root`` and of every recorded op result under it, and every
    leaf that takes a gradient; ``root`` itself if it was not recorded."""
    seen, stack, found = set(), [root if root._node is None else root._node], []
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


def filtered_rank(scores: np.ndarray, target: int, known: np.ndarray) -> float:
    """Rank of ``target`` among candidates after removing the other known-true
    answers, an int array of entity ids; ties count half each."""
    row = np.array(scores, dtype=np.float64).reshape(1, -1)
    cols = np.asarray(known, dtype=np.int64)
    return float(_rank_rows(row, np.zeros(1, dtype=np.int64), np.array([target]),
                            np.zeros_like(cols), cols)[0])


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


def edge_list(graph: Graph) -> list[tuple[int, int, int]]:
    """The graph's (src, rel, dst) edges as Python ints, in stored order."""
    return [(int(s), int(r), int(d)) for s, r, d in zip(graph.src, graph.rel, graph.dst)]


# ---------------------------------------------------------------------------
# dataset writers, the inverses of the loaders in ``magna.graph``


def save_node_dataset(ds, directory: str) -> None:
    """Write a node dataset back to its TSV directory (inverse of load).

    ``edges.tsv`` holds undirected edges, so a graph edge without its
    reverse raises before any file is written.
    """
    edges = edge_list(ds.graph)
    one_way = set(edges) - {(d, r, s) for s, r, d in edges}
    if one_way:
        s, r, d = min(one_way)
        raise GraphFormatError(f"edge ({s}, {r}, {d}) has no reverse ({d}, {r}, {s}); "
                               "edges.tsv stores undirected edges")
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "features.tsv"), "w", encoding="utf-8") as fh:
        for i, row in enumerate(ds.features):
            fh.write(f"{i}\t{','.join(repr(float(v)) for v in row)}\n")
    with open(os.path.join(directory, "edges.tsv"), "w", encoding="utf-8") as fh:
        for s, r, d in edges:
            if s <= d:  # both directions are present (checked above); emit one
                fh.write(f"{s}\t{d}\t{r}\n")
    with open(os.path.join(directory, "labels.tsv"), "w", encoding="utf-8") as fh:
        for i, cls in enumerate(ds.labels):
            if cls >= 0:
                fh.write(f"{i}\t{int(cls)}\n")
    with open(os.path.join(directory, "splits.tsv"), "w", encoding="utf-8") as fh:
        for i, s in enumerate(ds.split):
            if s != SPLIT_NONE:
                fh.write(f"{i}\t{SPLIT_TOKENS[int(s)]}\n")


def save_kg_dataset(kg, directory: str) -> None:
    """Write a KG back to its train/valid/test triple files (inverse of load)."""
    os.makedirs(directory, exist_ok=True)
    for name, triples in (("train", kg.train), ("valid", kg.valid), ("test", kg.test)):
        with open(os.path.join(directory, f"{name}.txt"), "w", encoding="utf-8") as fh:
            for h, r, t in triples:
                fh.write(f"{kg.entity_names[h]}\t{kg.relation_names[r]}\t{kg.entity_names[t]}\n")


def reference_read_triples(path: str, entity_ids: dict, relation_ids: dict) -> tuple[np.ndarray, list[int]]:
    """The per-line parse of a ``head<TAB>relation<TAB>tail`` file that
    ``graph._read_triples`` reads in bulk: each streamed line's tabs are
    checked, then each line is split and its names interned with
    ``setdefault``, head before tail."""
    lines = list(_read_lines(path))
    for lineno, line in lines:
        if line.count("\t") != 2:
            raise GraphFormatError("expected head<TAB>relation<TAB>tail", path, lineno)
    entity, relation = entity_ids.setdefault, relation_ids.setdefault
    ids = [(entity(h, len(entity_ids)), relation(r, len(relation_ids)), entity(t, len(entity_ids)))
           for h, r, t in (line.split("\t") for _, line in lines)]
    return np.array(ids, dtype=np.int64).reshape(-1, 3), [lineno for lineno, _ in lines]


def reference_read_kg(directory: str) -> tuple[list, list, list]:
    """Names and split arrays of a KG directory by ``reference_read_triples``:
    ``(entity_names, relation_names, [train, valid, test])``."""
    entity_ids, relation_ids = {}, {}
    splits = [reference_read_triples(os.path.join(directory, f"{name}.txt"), entity_ids, relation_ids)[0]
              for name in ("train", "valid", "test")]
    return list(entity_ids), list(relation_ids), splits


def reference_kg_index(num_entities: int, triples: np.ndarray, all_triples: np.ndarray, num_relations: int):
    """The KG graph's (src, rel, dst, in_indptr) and the answer index, each
    grouped by a ``lexsort`` over its columns: edges by (dst, src, rel), and
    distinct (key, answer) pairs by key, then answer."""
    src, rel, dst = kg_queries(triples, num_relations).T
    order = np.lexsort((rel, src, dst))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(dst, minlength=num_entities))))
    entities, relations, answers = kg_queries(all_triples, num_relations).T
    keys = entities * (2 * num_relations) + relations
    by_key = np.lexsort((answers, keys))
    keys, answers = keys[by_key], answers[by_key]
    distinct = (np.diff(keys, prepend=-1) != 0) | (np.diff(answers, prepend=-1) != 0)
    keys, answers = keys[distinct], answers[distinct]
    keys, starts = np.unique(keys, return_index=True)
    return (src[order], rel[order], dst[order], indptr), (keys, np.append(starts, len(answers)), answers)


def distmult_entity_grad(grad, entities, relations, heads, rels, g):
    """The entity gradient that the KL loss's adjoint adds to ``grad`` (None
    for none yet) for the score gradient ``g``, as the scoring op's adjoint
    first wrote it: ``(q^T G)^T``, then the head rows of ``(G E) * R[rels]``
    scattered into a zeroed buffer of the table's size, added whole."""
    q = entities[heads] * relations[rels]
    grad = (q.T @ g).T if grad is None else grad + (q.T @ g).T
    de = np.zeros_like(entities)
    np.add.at(de, heads, (g @ entities) * relations[rels])
    return grad + de


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


def kl_logits_loss(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean KL(target || softmax(logits)) per row as one ``kl_smoothed`` node
    over given logits, computed as ``tasks.kl_label_smoothing_loss`` does
    once it has its scores: the softmax goes into one buffer, a row block
    at a time, and the adjoint turns it into the logits' gradient."""
    from magna.tasks import _KL_BLOCK_BYTES, _log_softmax

    z = logits.data
    p = np.empty_like(z)
    row_sums = np.empty(z.shape[0])
    block = max(1, _KL_BLOCK_BYTES // (z.itemsize * z.shape[1]))
    for lo in range(0, z.shape[0], block):
        rows = slice(lo, lo + block)
        t = targets[rows]
        logp, _ = _log_softmax(z[rows], out=p[rows])
        terms = np.log(t, out=np.zeros_like(t), where=t > 0)
        terms *= t
        logp *= t
        terms -= logp
        np.sum(terms, axis=1, out=row_sums[rows])
    sink = logits.sink

    def backward(g):
        np.subtract(p, targets, out=p)
        np.multiply(p, float(g) / targets.shape[0], out=p)
        sink.accumulate(p, fresh=True)

    return Tensor.from_op(np.asarray(float(row_sums.mean())), (logits,), "kl_smoothed", backward)


def kl_scores(entities: Tensor, relations: Tensor, heads, rels) -> np.ndarray:
    """The DistMult score rows that ``tasks.kl_label_smoothing_loss`` computes
    for these queries, copied as its log-softmax receives them."""
    from magna import tasks

    blocks, log_softmax = [], tasks._log_softmax

    def spy(z, out=None):
        blocks.append(z.copy())
        return log_softmax(z, out=out)

    tasks._log_softmax = spy
    try:
        uniform = np.full((len(heads), entities.shape[0]), 1.0 / entities.shape[0])
        tasks.kl_label_smoothing_loss(entities, relations, heads, rels, uniform)
    finally:
        tasks._log_softmax = log_softmax
    return np.concatenate(blocks)


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
