import numpy as np
import pytest
from numpy.testing import assert_allclose

from magna.attention import (
    AttentionHeadParams,
    attention_diffusion,
    attention_weights,
    edge_scores,
    exact_diffusion_oracle,
)
from magna.graph import Graph
from magna.model import MagnaNet, NetworkConfig
from magna.optim import ParamStore
from magna.tape import Tensor, _segment_softmax, add, elu, layer_norm

from helpers import (
    check_grad,
    dense_attention,
    path_graph,
    proj_loss,
    random_attention,
    random_graph,
)

PATH_DIFFUSED = np.array(
    [
        [7 / 12, 1 / 3, 1 / 12],
        [1 / 6, 2 / 3, 1 / 6],
        [1 / 12, 1 / 3, 7 / 12],
    ]
)  # 0.5 (I - 0.5 A)^-1 for the uniform 3-path, checked by hand via the adjugate


def scalar_head(w=1.0, va=(1.0, 1.0, 1.0)):
    return AttentionHeadParams(
        w_h=Tensor([[w]], requires_grad=True),
        w_t=Tensor([[w]], requires_grad=True),
        w_r=Tensor([[w]], requires_grad=True),
        v_a=Tensor([list(va)], requires_grad=True),
    )


def make_head(store, prefix, dim, d_r, rng):
    return AttentionHeadParams.create(store, prefix, dim, d_r, rng)


def uniform_path():
    g = path_graph(3)
    return g, Tensor(_segment_softmax(np.zeros((g.num_edges, 1)), g.in_indptr))


# ---------------------------------------------------------------------------
# diffusion settings


def test_diffusion_config_validation():
    # The layer takes plain alpha and hops; NetworkConfig is where they are checked.
    with pytest.raises(ValueError, match="alpha"):
        NetworkConfig(alpha=0.0, hops=3)
    with pytest.raises(ValueError, match="alpha"):
        NetworkConfig(alpha=1.2, hops=3)
    with pytest.raises(ValueError, match="hop count"):
        NetworkConfig(alpha=0.5, hops=0)


# ---------------------------------------------------------------------------
# edge scores


def test_zero_parameters_give_zero_scores():
    g = path_graph(3)
    head = scalar_head(w=0.0, va=(0.0, 0.0, 0.0))
    rel = Tensor([[0.0]])
    h = Tensor(np.random.default_rng(0).normal(size=(3, 1)))
    assert_allclose(edge_scores(h, g, head, rel).data, np.zeros((4, 1)))


def test_zero_scoring_vector_gives_uniform_attention(rng):
    g = path_graph(4)
    head = scalar_head(w=1.0, va=(0.0, 0.0, 0.0))
    rel = Tensor([[0.3]])
    h = Tensor(rng.normal(size=(4, 1)))
    att = attention_weights(h, g, head, rel)
    for node in range(4):
        seg = att.data[g.in_indptr[node] : g.in_indptr[node + 1]]
        assert_allclose(seg, np.full_like(seg, 1.0 / len(seg)))


def test_single_edge_score_value():
    g = Graph(2, 1, [(0, 0, 1)])
    head = scalar_head()
    rel = Tensor([[0.1]])
    h = Tensor([[0.1], [0.1]])
    score = edge_scores(h, g, head, rel).data[0, 0]
    assert score == pytest.approx(3.0 * np.tanh(0.1), abs=1e-12)
    assert score == pytest.approx(0.29901, abs=1e-5)


def test_relation_id_out_of_table_range(rng):
    g = Graph(2, 2, [(0, 1, 1)])
    head = scalar_head()
    rel = Tensor([[0.1]])  # one relation only
    with pytest.raises(ValueError, match="relation id"):
        edge_scores(Tensor(rng.normal(size=(2, 1))), g, head, rel)


# ---------------------------------------------------------------------------
# attention weights


def test_uniform_scores_give_thirds():
    g = Graph(4, 1, [(0, 0, 3), (1, 0, 3), (2, 0, 3), (3, 0, 0)])
    head = scalar_head(w=0.0, va=(0.0, 0.0, 0.0))  # every score 0
    h = Tensor(np.arange(4.0).reshape(4, 1))
    att = attention_weights(h, g, head, Tensor([[0.5]]))
    row = att.data[g.in_indptr[3] : g.in_indptr[4]]
    assert_allclose(row, np.full((3, 1), 1.0 / 3.0))


def test_path_uniform_attention_matrix():
    g, att = uniform_path()
    assert_allclose(
        dense_attention(g, att.data),
        [[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]],
    )


def test_single_incoming_edge_gets_weight_one():
    g, att = uniform_path()
    assert att.data[g.in_indptr[0]] == pytest.approx(1.0)


def test_shift_invariance_per_destination(rng):
    g = random_graph(rng, 12, extra_edges=10)
    scores = rng.normal(size=(g.num_edges, 1))
    shift = rng.normal(size=g.num_nodes)
    shifted = scores + shift[g.dst][:, None]
    a1 = _segment_softmax(scores, g.in_indptr)
    a2 = _segment_softmax(shifted, g.in_indptr)
    assert np.max(np.abs(a1 - a2)) <= 1e-12


# ---------------------------------------------------------------------------
# diffusion and its oracle


def test_alpha_one_collapses_to_identity(rng):
    g, att = uniform_path()
    h = Tensor(rng.normal(size=(3, 2)))
    out = attention_diffusion(att, h, g, 7, 1.0)
    assert np.array_equal(out.data, h.data)


def test_all_ones_is_exact_fixed_point():
    g, att = uniform_path()
    h = Tensor(np.ones((3, 1)))
    out = attention_diffusion(att, h, g, 9, 0.3)
    assert np.max(np.abs(out.data - 1.0)) <= 1e-12


def test_path_diffusion_converges_to_hand_checked_matrix():
    g, att = uniform_path()
    out = attention_diffusion(att, Tensor(np.eye(3)), g, 60, 0.5)
    # with H = I the iteration recovers the diffused matrix itself
    assert_allclose(out.data, PATH_DIFFUSED, atol=1e-12)


def test_oracle_identity():
    for alpha in (0.1, 0.5, 1.0):
        assert_allclose(exact_diffusion_oracle(np.eye(4), alpha), np.eye(4), atol=1e-12)


def test_oracle_path_matrix():
    a = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
    assert_allclose(exact_diffusion_oracle(a, 0.5), PATH_DIFFUSED, atol=1e-12)


def test_oracle_rows_sum_to_one(rng):
    g = random_graph(rng, 20, extra_edges=15)
    dense = dense_attention(g, random_attention(rng, g))
    diffused = exact_diffusion_oracle(dense, 0.2)
    assert np.max(np.abs(diffused.sum(axis=1) - 1.0)) <= 1e-9


def test_oracle_alpha_validation():
    with pytest.raises(ValueError):
        exact_diffusion_oracle(np.eye(2), 0.0)


def test_convergence_bound_and_monotonicity(rng):
    # small version of the acceptance sweep
    for _ in range(10):
        n = int(rng.integers(4, 30))
        g = random_graph(rng, n, extra_edges=n)
        att = random_attention(rng, g)
        dense = dense_attention(g, att)
        h = rng.normal(size=(n, 3))
        h_norm = np.max(np.abs(h))
        for alpha in (0.1, 0.25, 0.5):
            target = exact_diffusion_oracle(dense, alpha) @ h
            prev = np.inf
            for hops in range(1, 13):
                out = attention_diffusion(Tensor(att), Tensor(h), g, hops, alpha).data
                err = np.max(np.abs(out - target))
                assert err <= 2.0 * (1.0 - alpha) ** hops * h_norm + 1e-12
                assert err <= prev + 1e-12
                prev = err


def test_oracle_equals_truncated_series(rng):
    for _ in range(5):
        n = int(rng.integers(3, 25))
        g = random_graph(rng, n, extra_edges=n // 2)
        dense = dense_attention(g, random_attention(rng, g))
        for alpha in (0.1, 0.3, 0.6):
            term = alpha * np.eye(n)
            acc = term.copy()
            for _i in range(1, 201):
                term = (1.0 - alpha) * (term @ dense)
                acc += term
            assert np.max(np.abs(exact_diffusion_oracle(dense, alpha) - acc)) <= 1e-8


def test_two_hop_sensitivity_on_path():
    g, att = uniform_path()
    h = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    bumped = h.copy()
    bumped[2] += 10.0

    def node0(hops, alpha, features):
        return attention_diffusion(Tensor(att.data), Tensor(features), g, hops, alpha).data[0]

    # one hop cannot see node 2 from node 0; two hops can
    assert_allclose(node0(1, 0.5, h), node0(1, 0.5, bumped))
    assert not np.allclose(node0(2, 0.5, h), node0(2, 0.5, bumped))
    # alpha = 1 never sees anything but the node itself
    assert_allclose(node0(7, 1.0, h), node0(7, 1.0, bumped))


def test_gradients_through_diffusion(rng):
    g = random_graph(rng, 6, extra_edges=4)
    store = ParamStore()
    head = make_head(store, "h0", 3, 2, rng)
    rel = store.glorot("rel", (g.num_relations, 2), rng)
    h = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    proj = rng.normal(size=(6, 3))

    def loss():
        att = attention_weights(h, g, head, rel)
        return proj_loss(attention_diffusion(att, h, g, 4, 0.4), proj)

    params = {name: t for name, t in store.items()}
    params["h"] = h
    check_grad(loss, params)


# ---------------------------------------------------------------------------
# multi-head layer, run through one MagnaNet block


def one_block(graph, **cfg):
    """A one-block network on ``graph`` and its block parameters; the block
    is called directly, so the input projection goes unused."""
    net = MagnaNet(NetworkConfig(blocks=1, **cfg), graph, 1, ParamStore(), np.random.default_rng(0))
    return net, net.blocks[0]


def test_single_head_identity_mix_returns_layer_norm(rng):
    # at alpha = 1 each head returns LN(x); an identity mix leaves elu(LN(x) + x)
    g = random_graph(rng, 5, extra_edges=3)
    d = 3
    net, bp = one_block(g, dim=d, heads=1, hops=4, alpha=1.0, relation_dim=2, no_feedforward=True)
    bp.w_o.data[...] = np.eye(d)
    x = Tensor(rng.normal(size=(5, d)))
    out = net.block_forward(0, x)
    assert_allclose(out.data, elu(add(layer_norm(x, *bp.ln1), x)).data, atol=1e-12)


def test_duplicate_heads_with_halved_mix_match_single_head(rng):
    g = random_graph(rng, 6, extra_edges=5)
    d = 4
    cfg = dict(dim=d, hops=3, alpha=0.3, relation_dim=2)
    single, one = one_block(g, heads=1, **cfg)
    double, two = one_block(g, heads=2, **cfg)
    for name, p in single.store.items():  # every parameter but the mix
        if p is not one.w_o:
            double.store[name].data[...] = p.data
    for field in ("w_h", "w_t", "w_r", "v_a"):
        getattr(two.heads[1], field).data[...] = getattr(one.heads[0], field).data
    one.w_o.data[...] = np.eye(d)
    two.w_o.data[...] = np.vstack([np.eye(d) / 2.0, np.eye(d) / 2.0])
    x = Tensor(rng.normal(size=(6, d)))
    assert_allclose(double.block_forward(0, x).data, single.block_forward(0, x).data, atol=1e-15)


def test_multi_head_output_shape_large(rng):
    g = random_graph(rng, 2708, extra_edges=3000)
    net, _ = one_block(g, dim=64, heads=8, hops=4, alpha=0.15, relation_dim=8)
    out = net.block_forward(0, Tensor(rng.normal(size=(2708, 64))))
    assert out.data.shape == (2708, 64)
    assert np.all(np.isfinite(out.data))


def test_edge_scores_match_literal_per_edge_formula(rng):
    # independent oracle: evaluate v_a . tanh(Wh h_src || Wt h_dst || Wr r)
    # edge by edge with explicit concatenation
    g = random_graph(rng, 8, extra_edges=6, num_relations=3)
    d, d_r = 5, 4
    store = ParamStore()
    head = make_head(store, "h0", d, d_r, rng)
    rel = store.glorot("rel", (g.num_relations, d_r), rng)
    h = Tensor(rng.normal(size=(8, d)))

    vectorized = edge_scores(h, g, head, rel).data.reshape(-1)
    w_h, w_t, w_r = head.w_h.data, head.w_t.data, head.w_r.data
    v_a = head.v_a.data.reshape(-1)
    for e in range(g.num_edges):
        cat = np.concatenate([
            w_h @ h.data[g.src[e]],
            w_t @ h.data[g.dst[e]],
            w_r @ rel.data[g.rel[e]],
        ])
        raw = float(v_a @ np.tanh(cat))
        literal = raw if raw > 0 else 0.2 * raw
        assert vectorized[e] == pytest.approx(literal, abs=1e-12)
