import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from magna import tape
from magna.graph import Graph
from magna.model import MagnaNet, NetworkConfig
from magna.optim import ParamStore
from magna.tape import NonFiniteError, Tensor

from helpers import (
    attention_chain,
    check_grad,
    count_ops,
    distmult_chain,
    finite_diff_grad,
    graph_nodes,
    mul,
    path_graph,
    peak_traced_bytes,
    proj_loss,
    random_attention,
    random_graph,
    rel_error,
)


def uniform_path_attention():
    """Per-edge uniform attention on the undirected 3-path, shape (E, 1)."""
    g = path_graph(3)
    att = np.array([[1.0], [0.5], [0.5], [1.0]])
    return g, att


# ---------------------------------------------------------------------------
# forward values


def test_layer_norm_constant_row_is_zero():
    x = Tensor([[5.0, 5.0, 5.0]])
    gamma, beta = Tensor([[1.0, 1.0, 1.0]]), Tensor([[0.0, 0.0, 0.0]])
    out = tape.layer_norm(x, gamma, beta)
    assert_allclose(out.data, np.zeros((1, 3)))


def _scalar_attention_inputs(h_values, w: float, va: float, requires_grad: bool = False):
    """(h, w_h, w_t, table, w_r, v_a) of width 1, one relation."""
    h = Tensor(np.array(h_values, dtype=float).reshape(-1, 1), requires_grad=requires_grad)
    weights = [Tensor([[w]], requires_grad=requires_grad) for _ in range(2)]
    table = Tensor([[0.1]], requires_grad=requires_grad)
    w_r = Tensor([[w]], requires_grad=requires_grad)
    v_a = Tensor([[va, va, va]], requires_grad=requires_grad)
    return (h, *weights, table, w_r, v_a)


def test_leaky_relu_negative_slope():
    g = Graph(2, 1, [(0, 0, 1)])
    params = [t.data for t in _scalar_attention_inputs([0.1, 0.1], 1.0, -1.0)]
    scores, pos, _ = tape._attention_scores(*params, g, 0.2, False)
    assert not pos.any()
    assert scores[0, 0] == pytest.approx(-0.2 * 3.0 * np.tanh(0.1), abs=1e-15)


def test_elu_matches_definition():
    x = np.array([[-2.0, -0.5, 0.0, 1.5]])
    out = tape.elu(Tensor(x))
    expected = np.where(x > 0, x, np.expm1(x))
    assert_allclose(out.data, expected)


def test_tanh_grad_at_zero_matches_finite_differences():
    # zero node projections put their tanh at 0, where its slope is 1; the
    # relation term keeps every score positive, away from the leaky kink
    g = Graph(3, 1, [(0, 0, 2), (1, 0, 2), (2, 0, 2), (2, 0, 0), (2, 0, 1)])
    params = _scalar_attention_inputs([0.5, -1.0, 2.0], 0.0, 1.0, requires_grad=True)
    w_h, w_r = params[1], params[4]
    w_r.data[:] = 1.0
    proj = np.array([[1.0], [0.0], [-1.0], [1.0], [2.0]])  # edges in destination order
    check_grad(lambda: proj_loss(tape.edge_attention(*params, g, 0.2), proj), {"w_h": w_h})
    # node 2's three edges share weight 1/3, and a unit of w_h moves each
    # score by its source's h: sum_e proj_e / 3 * (h_src(e) - mean h) = 0.5
    assert w_h.grad[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_segment_softmax_values():
    indptr = np.array([0, 2])
    out = tape._segment_softmax(np.array([[0.0], [0.0]]), indptr)
    assert_allclose(out, [[0.5], [0.5]])

    out = tape._segment_softmax(np.array([[np.log(2.0)], [0.0]]), indptr)
    assert_allclose(out, [[2.0 / 3.0], [1.0 / 3.0]])

    out = tape._segment_softmax(np.array([[123.4]]), np.array([0, 1]))
    assert_allclose(out, [[1.0]])


def test_segment_softmax_rejects_bad_partition():
    with pytest.raises(ValueError):
        tape._segment_softmax(np.array([[0.0], [0.0]]), np.array([0, 1]))


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=24), st.data())
def test_segment_softmax_rows_sum_to_one(scores, data):
    cuts = sorted(
        data.draw(st.lists(st.integers(0, len(scores)), max_size=5), label="cuts")
    )
    indptr = np.array([0] + cuts + [len(scores)])
    out = tape._segment_softmax(np.array(scores)[:, None], indptr)
    for a, b in zip(indptr[:-1], indptr[1:]):
        if b > a:
            seg = out[a:b]
            assert (seg > 0).all()
            assert abs(seg.sum() - 1.0) <= 1e-12


def test_edge_spmm_path_values():
    g, att = uniform_path_attention()
    h = Tensor([[1.0], [0.0], [0.0]])
    out = tape.edge_spmm(Tensor(att), h, g)
    assert_allclose(out.data, [[0.0], [0.5], [0.0]])


def test_edge_spmm_row_stochastic_preserves_ones():
    g, att = uniform_path_attention()
    out = tape.edge_spmm(Tensor(att), Tensor(np.ones((3, 1))), g)
    assert np.max(np.abs(out.data - 1.0)) <= 1e-12


def test_edge_spmm_zero_attention_gives_zero():
    g, att = uniform_path_attention()
    out = tape.edge_spmm(Tensor(np.zeros_like(att)), Tensor(np.ones((3, 2))), g)
    assert_allclose(out.data, np.zeros((3, 2)))


def test_edge_spmm_rejects_bad_hops_and_alpha():
    g, att = uniform_path_attention()
    h = Tensor(np.ones((3, 1)))
    with pytest.raises(ValueError, match="hop count"):
        tape.edge_spmm(Tensor(att), h, g, 0, 0.1)
    for alpha in (-0.1, 1.5):
        with pytest.raises(ValueError, match="alpha"):
            tape.edge_spmm(Tensor(att), h, g, 2, alpha)


def _scale_add_chain(att, h, g, hops, alpha):
    """The K-hop diffusion as one-hop products, scalings and sums, one tape
    node each: the chain that ``edge_spmm(att, h, g, hops, alpha)`` fuses."""
    teleport = mul(h, Tensor([[alpha]]))
    z = h
    for _ in range(hops):
        z = tape.add(mul(tape.edge_spmm(att, z, g), Tensor([[1.0 - alpha]])), teleport)
    return z


@pytest.mark.parametrize("alpha", [0.1, 1.0])
@pytest.mark.parametrize("hops", [1, 3, 6])
def test_edge_spmm_hops_match_scale_add_chain_bitwise(rng, hops, alpha):
    g = random_graph(rng, 300, extra_edges=300)  # several blocks of the attention adjoint
    att_values = random_attention(rng, g)
    att_values[rng.random(g.num_edges) < 0.3] = 0.0  # entries as attention dropout leaves them
    h_values = rng.normal(size=(g.num_nodes, 5))
    proj = rng.normal(size=(g.num_nodes, 5))
    results = []
    for diffuse in (tape.edge_spmm, _scale_add_chain):
        att, h = Tensor(att_values, requires_grad=True), Tensor(h_values, requires_grad=True)
        out = diffuse(att, h, g, hops, alpha)
        # the residual gives h a third gradient term, so its summation order shows
        proj_loss(tape.add(out, h), proj).backward()
        with tape.no_grad():
            plain = diffuse(Tensor(att_values, requires_grad=True), Tensor(h_values, requires_grad=True),
                            g, hops, alpha)
        assert not plain.requires_grad
        results.append((out.data, att.grad, h.grad, plain.data))
        assert count_ops(out, "edge_spmm") == (1 if diffuse is tape.edge_spmm else hops)
    for got, want in zip(*results):
        assert np.array_equal(got, want)


def test_non_finite_forward_raises():
    big = Tensor([[1e308]])
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError):
            tape.add(big, big)


def test_dropout_eval_mode_is_identity():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    assert tape.dropout(x, 0.5, np.random.default_rng(0), training=False) is x


def test_dropout_scales_kept_entries():
    rng = np.random.default_rng(3)
    x = Tensor(np.ones((50, 20)))
    out = tape.dropout(x, 0.25, rng, training=True)
    vals = set(np.round(np.unique(out.data), 12))
    assert vals <= {0.0, round(1 / 0.75, 12)}
    # mean preserved in expectation
    assert abs(out.data.mean() - 1.0) < 0.1


def test_count_ops_walks_graph_once():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    y = tape.elu(x)
    z = tape.add(y, y)
    assert count_ops(z, "elu") == 1
    assert count_ops(z, "add") == 1


# ---------------------------------------------------------------------------
# gradients of every op against central finite differences


def test_grad_matmul(rng):
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    proj = rng.normal(size=(4, 5))
    check_grad(lambda: proj_loss(tape.matmul(a, b), proj), {"a": a, "b": b})


def test_grad_add_broadcast_bias(rng):
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
    proj = rng.normal(size=(4, 3))
    check_grad(lambda: proj_loss(tape.add(a, b), proj), {"a": a, "b": b})


def test_grad_concat_cols(rng):
    a = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    proj_cat = rng.normal(size=(3, 6))
    check_grad(lambda: proj_loss(tape.concat_cols([a, b]), proj_cat), {"a": a, "b": b})


@pytest.mark.parametrize("op", ["relu", "elu"])
def test_grad_elementwise(rng, op):
    # keep inputs away from the relu-family kink so differences are valid
    base = rng.uniform(0.2, 1.5, size=(4, 3)) * rng.choice([-1.0, 1.0], size=(4, 3))
    a = Tensor(base, requires_grad=True)
    proj = rng.normal(size=(4, 3))
    fn = {
        "relu": lambda: tape.relu(a),
        "elu": lambda: tape.elu(a),
    }[op]
    check_grad(lambda: proj_loss(fn(), proj), {"a": a})


def test_grad_dropout_with_fixed_mask(rng):
    a = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    proj = rng.normal(size=(5, 4))

    def loss():
        return proj_loss(tape.dropout(a, 0.4, np.random.default_rng(99), training=True), proj)

    check_grad(loss, {"a": a})


def test_grad_layer_norm(rng):
    a = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    gamma = Tensor(rng.normal(size=(1, 6)), requires_grad=True)
    beta = Tensor(rng.normal(size=(1, 6)), requires_grad=True)
    proj = rng.normal(size=(4, 6))
    check_grad(
        lambda: proj_loss(tape.layer_norm(a, gamma, beta), proj),
        {"a": a, "gamma": gamma, "beta": beta},
    )


def _layer_norm_with_var(a: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """``tape.layer_norm`` as written with ``x.var`` and a fresh centred array."""
    x = a.data
    inv = 1.0 / np.sqrt(x.var(axis=1, keepdims=True) + eps)
    xhat = (x - x.mean(axis=1, keepdims=True)) * inv

    def backward(g):
        gamma.accumulate((g * xhat).sum(axis=0, keepdims=True))
        beta.accumulate(g.sum(axis=0, keepdims=True))
        gg = g * gamma.data
        m1 = gg.mean(axis=1, keepdims=True)
        m2 = (gg * xhat).mean(axis=1, keepdims=True)
        a.accumulate((gg - m1 - xhat * m2) * inv)

    return Tensor.from_op(xhat * gamma.data + beta.data, (a, gamma, beta), "layer_norm", backward)


@pytest.mark.parametrize("shape", [(7, 5), (2708, 64), (4094, 32)])
def test_layer_norm_matches_var_formula_bitwise(rng, shape):
    x = 3.0 + 10.0 * rng.normal(size=shape)
    gamma_values, beta_values = rng.normal(size=(2, 1, shape[1]))
    proj = rng.normal(size=shape)
    results = []
    for op in (tape.layer_norm, _layer_norm_with_var):
        params = [Tensor(v, requires_grad=True) for v in (x, gamma_values, beta_values)]
        out = op(*params)
        proj_loss(out, proj).backward()
        results.append([out.data] + [p.grad for p in params])
    for got, want in zip(*results):
        assert np.array_equal(got, want)


def _rank_one_loss(t: Tensor, u: np.ndarray, v: np.ndarray) -> Tensor:
    """Scalar sum(u v * t) for a column u and a row v. Its gradient, the outer
    product u v, is built only in the adjoint, so no weight of t's shape is held."""

    def backward(g):
        t.accumulate((float(g) * u) * v, fresh=True)

    return Tensor.from_op(np.asarray(float(u[:, 0] @ t.data @ v[0])), (t,), "rank_one", backward)


@pytest.mark.parametrize("num_entities, dim, queries", [(7, 5, 40), (4094, 32, 256), (40943, 32, 1024)])
def test_distmult_scores_matches_chain_bitwise(rng, num_entities, dim, queries):
    # the entity table is a matmul output, as the network's is, and heads and
    # relations repeat across the queries
    x_values = rng.normal(size=(num_entities, 8))
    w_values = rng.normal(size=(8, dim)) / np.sqrt(8)
    r_values = rng.normal(size=(22, dim))
    heads, rels = rng.integers(num_entities, size=queries), rng.integers(22, size=queries)
    u, v = rng.normal(size=(queries, 1)), rng.normal(size=(1, num_entities))
    scores, grads = [], []
    for scores_of in (distmult_chain, tape.distmult_scores):
        params = [Tensor(a, requires_grad=True) for a in (x_values, w_values, r_values)]
        out = scores_of(tape.matmul(params[0], params[1]), params[2], heads, rels)
        assert count_ops(out, "distmult_scores") == (scores_of is tape.distmult_scores)
        scores.append(out.data)
        if len(scores) == 2:
            assert np.array_equal(*scores)
            scores.clear()  # so that one score matrix is held through the backward
        _rank_one_loss(out, u, v).backward()
        grads.append([p.grad for p in params])
    for got, want in zip(*grads):
        assert np.array_equal(got, want)


def test_grad_segment_softmax(rng):
    indptr = np.array([0, 3, 3, 7])
    a = Tensor(rng.normal(size=(7, 1)), requires_grad=True)
    proj = rng.normal(size=(7, 1))

    def softmax():
        out = tape._segment_softmax(a.data.copy(), indptr)
        return Tensor.from_op(out, (a,), "segment_softmax",
                              lambda g: a.accumulate(tape._segment_softmax_grad(g, out, indptr)))

    check_grad(lambda: proj_loss(softmax(), proj), {"a": a})


def _attention_case(rng, shape, num_relations=3, relation_dim=8):
    """A graph with ``shape[0]`` nodes and the six inputs of one head of
    width ``shape[1]``, as arrays."""
    n, d = shape
    g = random_graph(rng, n, extra_edges=n, num_relations=num_relations)
    values = [rng.normal(size=(n, d)),
              *(rng.normal(size=(d, d)) / np.sqrt(d) for _ in range(2)),
              rng.normal(size=(num_relations, relation_dim)),
              rng.normal(size=(d, relation_dim)) / np.sqrt(relation_dim),
              rng.normal(size=(1, 3 * d))]
    return g, values


@pytest.mark.parametrize("h_grad", [True, False])
@pytest.mark.parametrize("shape", [(7, 5), (2708, 64), (4094, 32)])
def test_edge_attention_matches_op_chain_bitwise(rng, shape, h_grad):
    g, values = _attention_case(rng, shape)
    proj, proj_h = rng.normal(size=(g.num_edges, 1)), rng.normal(size=shape)
    results = []
    for attend in (tape.edge_attention, attention_chain):
        inputs = [Tensor(v.copy(), requires_grad=h_grad or i > 0) for i, v in enumerate(values)]
        out = attend(*inputs, g, 0.2)
        # a second use of h gives it a third gradient term, so its summation order shows
        tape.add(proj_loss(out, proj), proj_loss(inputs[0], proj_h)).backward()
        with tape.no_grad():
            plain = attend(*(Tensor(v, requires_grad=True) for v in values), g, 0.2)
        assert not plain.requires_grad
        results.append([out.data, plain.data] + [t.grad for t in inputs])
        assert count_ops(out, "edge_attention") == (1 if attend is tape.edge_attention else 0)
    assert (results[0][2] is not None) == h_grad
    for got, want in zip(*results):
        assert (got is None and want is None) or np.array_equal(got, want)


def test_edge_attention_holds_no_more_than_op_chain_without_grad(rng):
    # kg_train shape: 4,094 nodes, 32 wide, 22 relations
    g, values = _attention_case(rng, (4094, 32), num_relations=22)
    peaks = []
    for attend in (tape.edge_attention, attention_chain):
        inputs = [Tensor(v, requires_grad=True) for v in values]
        with tape.no_grad():
            peaks.append(peak_traced_bytes(lambda: attend(*inputs, g, 0.2)))
    assert peaks[0] <= peaks[1], peaks
    # one (N, d) tanh output at a time, and a few per-edge columns
    assert peaks[0] < 1.5 * values[0].nbytes, peaks


def test_edge_attention_rejects_mismatched_inputs(rng):
    g, values = _attention_case(rng, (7, 5))
    inputs = [Tensor(v) for v in values]
    with pytest.raises(ValueError, match="node count"):
        tape.edge_attention(Tensor(values[0][:6]), *inputs[1:], g, 0.2)
    with pytest.raises(ValueError, match="v_a"):
        tape.edge_attention(*inputs[:5], Tensor(values[5][:, :10]), g, 0.2)


def test_grad_edge_spmm(rng):
    g = path_graph(4).with_self_loops()
    att = Tensor(rng.uniform(0.1, 1.0, size=(g.num_edges, 1)), requires_grad=True)
    h = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    proj = rng.normal(size=(4, 3))
    check_grad(lambda: proj_loss(tape.edge_spmm(att, h, g), proj), {"att": att, "h": h})
    check_grad(lambda: proj_loss(tape.edge_spmm(att, h, g, 4, 0.3), proj), {"att": att, "h": h})
    # the K-hop adjoint with only one input differentiated
    for name in ("att", "h"):
        leaves = {"att": Tensor(att.data, requires_grad=name == "att"),
                  "h": Tensor(h.data, requires_grad=name == "h")}
        check_grad(lambda: proj_loss(tape.edge_spmm(leaves["att"], leaves["h"], g, 4, 0.3), proj),
                   {name: leaves[name]})
        assert all(t.grad is None for key, t in leaves.items() if key != name)


def test_backward_accumulates_through_shared_subexpression(rng):
    x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    y = tape.elu(x)
    out = tape.add(y, y)
    loss = proj_loss(out, np.ones((3, 3)))
    loss.backward()
    numeric = finite_diff_grad(lambda: float(2 * np.where(x.data > 0, x.data, np.expm1(x.data)).sum()), x.data)
    assert rel_error(x.grad, numeric) < 1e-6


# ---------------------------------------------------------------------------
# one replay per graph


def _replay_keeping_graph(root: Tensor) -> None:
    """Backward as it ran before graphs were released: every adjoint runs,
    and every op result keeps its closure and gradient."""
    order = tape._toposort(root)
    root.grad = np.ones_like(root.data)
    for t in reversed(order):
        if t._backward is not None and t.grad is not None:
            t._backward(t.grad)


def _network_loss(seed: int):
    """A dropout-trained two-block network under a projection loss, and its leaves."""
    rng = np.random.default_rng(seed)
    g = random_graph(rng, 12, extra_edges=10)
    cfg = NetworkConfig(blocks=2, dim=4, heads=2, alpha=0.3, hops=3, relation_dim=3,
                        dropout_attention=0.2, dropout_feature=0.2)
    store = ParamStore()
    net = MagnaNet(cfg, g, 5, store, rng)
    x = Tensor(rng.normal(size=(12, 5)), requires_grad=True)
    out = net.forward(x, training=True, rng=rng)
    return proj_loss(out, rng.normal(size=out.shape)), [x] + [p for _, p in store.items()]


def test_accumulate_takes_a_fresh_buffer_and_adds_later_ones():
    first, second = np.ones((2, 3)), np.full((2, 3), 2.0)
    copied = Tensor(np.zeros((2, 3)), requires_grad=True)
    copied.accumulate(first)
    assert copied.grad is not first
    taken = Tensor(np.zeros((2, 3)), requires_grad=True)
    taken.accumulate(first, fresh=True)
    assert taken.grad is first
    taken.accumulate(second, fresh=True)
    assert taken.grad is first and np.array_equal(first, np.full((2, 3), 3.0))
    assert np.array_equal(second, np.full((2, 3), 2.0))


def test_backward_releases_op_results_and_keeps_leaf_gradients():
    loss, leaves = _network_loss(0)
    loss.backward()
    op_results = [t for t in graph_nodes(loss) if t._parents]
    assert count_ops(loss, "edge_spmm") > 0
    assert all(t.grad is None and t._backward is None for t in op_results)
    kept_loss, kept_leaves = _network_loss(0)
    _replay_keeping_graph(kept_loss)
    for leaf, kept in zip(leaves, kept_leaves):
        assert leaf.grad is not None
        assert np.array_equal(leaf.grad, kept.grad)


def test_backward_frees_hop_states_while_root_is_held(rng):
    hops = 6
    g = random_graph(rng, 400, extra_edges=400)
    att_values = random_attention(rng, g)
    h_values = rng.normal(size=(g.num_nodes, 16))
    proj = rng.normal(size=(g.num_nodes, 16))
    tracemalloc.start()
    try:
        att = Tensor(att_values, requires_grad=True)
        h = Tensor(h_values, requires_grad=True)
        loss = proj_loss(tape.edge_spmm(att, h, g, hops, 0.1), proj)
        before = tracemalloc.get_traced_memory()[0]
        loss.backward()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # the states Z_1 .. Z_{K-1} and the CSR matrix go; the leaf gradients
    # (one state, and one value per edge) come
    assert before - after > (hops - 3) * h_values.nbytes


def test_second_backward_on_consumed_graph_raises(rng):
    x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    loss = proj_loss(tape.elu(x), np.ones((3, 3)))
    loss.backward()
    grad = x.grad.copy()
    with pytest.raises(RuntimeError, match="consumed"):
        loss.backward()
    assert np.array_equal(x.grad, grad)


def test_new_loss_on_consumed_intermediate_raises(rng):
    x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    y = tape.elu(x)
    proj_loss(y, np.ones((3, 3))).backward()
    grad = x.grad.copy()
    with pytest.raises(RuntimeError, match="consumed"):
        proj_loss(tape.add(y, y), np.ones((3, 3))).backward()
    assert np.array_equal(x.grad, grad)
