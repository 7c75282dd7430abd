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
from magna.tasks import kl_label_smoothing_loss, smoothed_targets

from helpers import (
    attention_chain,
    check_grad,
    count_ops,
    distmult_chain,
    distmult_entity_grad,
    finite_diff_grad,
    graph_nodes,
    kl_logits_loss,
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
    scores, pos = tape._attention_scores(*params, g, 0.2)
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


@pytest.mark.parametrize("alpha", [0.0, 0.1, 1.0])
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
    # the adjoint scales its own buffers in place, never the gradient it is handed
    out = tape.edge_spmm(Tensor(att_values, requires_grad=True), Tensor(h_values, requires_grad=True),
                         g, hops, alpha)
    grad = rng.normal(size=out.shape)
    handed = grad.copy()
    out._backward(grad)
    assert np.array_equal(grad, handed)


@pytest.mark.parametrize("cols", [5, 64])
def test_edge_row_dot_matches_gathered_product_bitwise(rng, cols):
    # the one-hop chain above runs the same helper, so pin it to the plain formula
    g = random_graph(rng, 300, extra_edges=300)
    grad, z = rng.normal(size=(g.num_nodes, cols)), rng.normal(size=(g.num_nodes, cols))
    want = (grad[g.dst] * z[g.src]).sum(axis=1, keepdims=True)
    assert np.array_equal(tape._edge_row_dot(grad, z, g), want)


def test_non_finite_forward_raises():
    big = Tensor([[1e308]])
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError):
            tape.add(big, big)


def test_dropout_eval_mode_is_identity():
    """Dropout that is off, in evaluation mode or at rate 0, returns its
    input and draws nothing, so its callers need no gate of their own."""
    x = Tensor(np.arange(6.0).reshape(2, 3))
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for training, p in ((False, 0.5), (True, 0.0)):
        assert tape.dropout(x, p, rng, training=training) is x
        assert rng.bit_generator.state == state


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


@pytest.mark.parametrize("rows", [3, 40_000])
def test_relu_matches_the_masked_select_bitwise(rng, rows):
    # +0.0 and -0.0 rows beside signed normals; long arrays take numpy's vector loops
    x = rng.normal(size=(rows, 4))
    x[::5] = 0.0
    x[1::5] = -0.0
    a = Tensor(x, requires_grad=True)
    proj = rng.normal(size=x.shape)
    out = tape.relu(a)
    assert out.data.tobytes() == np.where(x > 0, x, 0.0).tobytes()
    proj_loss(out, proj).backward()
    assert a.grad.tobytes() == (proj * (x > 0)).tobytes()


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


@pytest.mark.parametrize("num_entities, dim, queries", [(7, 5, 40), (4094, 32, 256), (40943, 32, 1024)])
def test_distmult_scores_matches_chain_bitwise(rng, num_entities, dim, queries):
    # the KL loss scores its queries itself; it must give the bits of the
    # five-node scoring chain followed by the KL over the chain's scores.
    # The entity table is a matmul output, as the network's is, and heads
    # and relations repeat across the queries
    x_values = rng.normal(size=(num_entities, 8))
    w_values = rng.normal(size=(8, dim)) / np.sqrt(8)
    r_values = rng.normal(size=(22, dim))
    heads, rels = rng.integers(num_entities, size=queries), rng.integers(22, size=queries)
    tails = [rng.choice(num_entities, size=int(rng.integers(1, 4)), replace=False) for _ in range(queries)]
    targets = smoothed_targets(tails, num_entities, 0.1)

    def chain(entities, relations):
        return kl_logits_loss(distmult_chain(entities, relations, heads, rels), targets)

    def fused(entities, relations):
        return kl_label_smoothing_loss(entities, relations, heads, rels, targets)

    losses, grads = [], []
    for loss_of in (chain, fused):
        params = [Tensor(a, requires_grad=True) for a in (x_values, w_values, r_values)]
        loss = loss_of(tape.matmul(params[0], params[1]), params[2])
        assert count_ops(loss, "kl_smoothed") == 1
        assert count_ops(loss, "mul") == (loss_of is chain)
        losses.append(loss.data)
        # an upstream gradient other than one, so the adjoint's scaling shows
        mul(loss, Tensor(np.asarray(0.7))).backward()
        del loss  # so that one score buffer is held at a time
        grads.append([p.grad for p in params])
    assert np.array_equal(*losses)
    for got, want in zip(*grads):
        assert np.array_equal(got, want)


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    """The softmax that the KL loss writes over ``scores``, by its own steps."""
    from magna.tasks import _log_softmax

    return np.concatenate([_log_softmax(scores[i : i + 1])[1] for i in range(len(scores))])


@pytest.mark.parametrize("earlier", [False, True])
def test_distmult_entity_grad_keeps_the_full_buffer_bits(rng, earlier):
    # targets equal to the softmax in every third column give score gradient
    # columns of zeros, which make every product in those entities' matmul
    # sums a signed zero; an earlier gradient holds -0.0 in head rows and
    # in rows no query uses
    entities = rng.normal(size=(30, 6))
    relations = rng.normal(size=(4, 6))
    heads, rels = rng.integers(12, size=40), rng.integers(4, size=40)
    p = _softmax_rows((entities[heads] * relations[rels]) @ entities.T)
    targets = rng.uniform(0.01, 0.05, size=p.shape)
    targets[:, ::3] = p[:, ::3]
    g = (p - targets) * (0.7 / len(heads))
    assert (g[:, ::3] == 0.0).all()
    prev = None
    if earlier:
        prev = rng.normal(size=entities.shape)
        prev[::2] = -0.0
    ent = Tensor(entities, requires_grad=True)
    ent.grad = None if prev is None else prev.copy()
    rel = Tensor(relations, requires_grad=True)
    loss = kl_label_smoothing_loss(ent, rel, heads, rels, targets)
    loss._backward(np.asarray(0.7))
    want = distmult_entity_grad(prev, entities, relations, heads, rels, g)
    assert ent.grad.tobytes() == want.tobytes()


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


def test_matmul_backward_hands_its_products_to_the_gradients(rng, monkeypatch):
    n, d = 20_000, 16
    a_values, w_values, proj = rng.normal(size=(n, d)), rng.normal(size=(d, d)), rng.normal(size=(n, d))

    def backward_peak():
        a, w = Tensor(a_values, requires_grad=True), Tensor(w_values, requires_grad=True)
        loss = proj_loss(tape.matmul(a, w), proj)
        peak = peak_traced_bytes(loss.backward)
        return peak, a.grad, w.grad

    handed = backward_peak()
    original = Tensor.accumulate
    monkeypatch.setattr(Tensor, "accumulate", lambda self, g, fresh=False: original(self, g))
    copied = backward_peak()
    # the same gradients, and one (N, d) array fewer than copying G W^T
    assert np.array_equal(handed[1], copied[1]) and np.array_equal(handed[2], copied[2])
    assert copied[0] - handed[0] > 0.9 * a_values.nbytes, (handed[0], copied[0])


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


def test_edge_spmm_forward_holds_no_hop_states(rng):
    g = random_graph(rng, 2000, extra_edges=2000)  # node states outweigh an edge block
    att_values = random_attention(rng, g)
    h_values = rng.normal(size=(g.num_nodes, 16))
    proj = rng.normal(size=(g.num_nodes, 16))
    state = h_values.nbytes

    def traced(hops):
        """Bytes held after the recorded forward, root held, and the
        backward's traced peak above them."""
        att = Tensor(att_values, requires_grad=True)
        h = Tensor(h_values, requires_grad=True)
        tracemalloc.start()
        try:
            loss = proj_loss(tape.edge_spmm(att, h, g, hops, 0.1), proj)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loss.backward()
            return held, tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()

    traced(2)  # first-call allocations stay out of the comparison
    (held_2, peak_2), (held_8, peak_8) = traced(2), traced(8)
    assert held_8 - held_2 < state
    # the adjoint holds Z_1 .. Z_{K-1} of its one head, beside the incoming
    # gradient, its scaled copy and sum, A^T gs and the row-dot's edge blocks:
    # measured K + 2.8 states at both hop counts
    assert peak_2 < (2 + 3) * state
    assert peak_8 < (8 + 3) * state


def test_training_forward_memory_does_not_grow_with_hops():
    g = random_graph(np.random.default_rng(0), 300, extra_edges=300).with_self_loops()
    x = Tensor(np.random.default_rng(1).normal(size=(g.num_nodes, 10)))

    def held_after_forward(hops):
        rng = np.random.default_rng(2)
        cfg = NetworkConfig(blocks=2, dim=16, heads=4, alpha=0.1, hops=hops, relation_dim=4)
        net = MagnaNet(cfg, g, 10, ParamStore(), rng)
        tracemalloc.start()
        try:
            out = net.forward(x, training=True, rng=rng)
            assert out.requires_grad
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    held_after_forward(1)  # first-call allocations stay out of the comparison
    # measured 576 B apart; one hop state of one head is 38,400 B, and the
    # 40 that six hops would keep in 8 heads are 1.5 MB
    assert abs(held_after_forward(6) - held_after_forward(1)) < 4096


def _held_after_block_forward(training: bool, **rates) -> tuple[int, int]:
    """Traced bytes a recorded one-block forward leaves held with its root,
    past the first call, and the bytes of one head's (N, d) output."""
    g = random_graph(np.random.default_rng(0), 300, extra_edges=300).with_self_loops()
    cfg = NetworkConfig(blocks=1, dim=16, heads=4, alpha=0.1, hops=3, relation_dim=4, **rates)
    net = MagnaNet(cfg, g, 16, ParamStore(), np.random.default_rng(2))
    h = Tensor(np.random.default_rng(1).normal(size=(g.num_nodes, 16)), requires_grad=True)

    def held_after_forward():
        tracemalloc.start()
        try:
            out = net.block_forward(0, h, training=training, rng=np.random.default_rng(5))
            assert out.requires_grad
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    held_after_forward()  # first-call allocations stay out of the budget
    return held_after_forward(), g.num_nodes * cfg.dim * 8


def test_recorded_block_holds_no_head_outputs():
    held, head_output = _held_after_block_forward(training=False)
    # measured 477,124 B with the root held. A tape that kept the four
    # heads' diffusion outputs held 153,600 B more, and one that kept their
    # tanh projections 309,536 B more. The slack is one head's output.
    assert held < 477_124 + head_output


def test_recorded_training_block_holds_dropout_masks_not_factors():
    held, head_output = _held_after_block_forward(training=True, dropout_attention=0.2,
                                                  dropout_feature=0.3)
    # measured 532,812 B: the eval-mode block, the two feature and four
    # attention keep masks at one byte per element, and each head's dropped
    # attention, which its diffusion's matrix holds. Float64 factors in
    # place of the masks are 100,576 B more by their shapes.
    assert held < 532_812 + head_output


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
