import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from magna import attention, model
from magna.attention import attention_diffusion, attention_weights
from magna.graph import Graph
from magna.model import MagnaNet, NetworkConfig
from magna.optim import ParamStore
from magna.tape import Tensor, add, concat_cols, edge_spmm, elu, matmul, no_grad

from helpers import (check_grad, count_ops, dense_attention, edge_list, ops_named, peak_traced_bytes,
                     proj_loss, random_graph)


def small_cfg(**over):
    base = dict(blocks=2, dim=4, heads=2, alpha=0.4, hops=3, relation_dim=3)
    base.update(over)
    return NetworkConfig(**base)


def build_net(graph, in_dim, cfg, seed=0):
    store = ParamStore()
    net = MagnaNet(cfg, graph, in_dim, store, np.random.default_rng(seed))
    return net, store


def test_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(blocks=0)
    with pytest.raises(ValueError):
        NetworkConfig(dropout_feature=1.0)
    with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\], got 0.0"):
        NetworkConfig(alpha=0.0)
    with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\], got 1.2"):
        NetworkConfig(alpha=1.2)
    with pytest.raises(ValueError, match="hop count must be >= 1, got 0"):
        NetworkConfig(hops=0)
    with pytest.raises(ValueError):
        NetworkConfig.from_dict({"blociks": 3})


@pytest.mark.parametrize("value", [2.0, True, "2"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("name", ["blocks", "dim", "heads", "hops", "relation_dim", "ffn_dim"])
def test_integer_fields_reject_other_types(name, value):
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
        NetworkConfig(**{name: value})


@pytest.mark.parametrize("value", [True, "0.1", None], ids=["bool", "str", "none"])
@pytest.mark.parametrize("name", ["alpha", "dropout_attention", "dropout_feature"])
def test_real_fields_reject_other_types(name, value):
    with pytest.raises(ValueError, match=re.escape(f"{name} must be a number, got {value!r}")):
        NetworkConfig(**{name: value})


def test_real_fields_accept_an_integer():
    cfg = NetworkConfig(alpha=1, dropout_attention=0, dropout_feature=0)
    assert (cfg.alpha, cfg.dropout_attention, cfg.dropout_feature) == (1, 0, 0)


@pytest.mark.parametrize("value", ["false", 0, 1, None], ids=["str", "zero", "one", "none"])
@pytest.mark.parametrize("name", ["no_diffusion", "no_layernorm", "no_feedforward"])
def test_ablation_flags_reject_non_booleans(name, value):
    """``bool("false")`` is True: a quoted flag must not train the ablated model."""
    with pytest.raises(ValueError, match=re.escape(f"{name} must be a boolean, got {value!r}")):
        NetworkConfig(**{name: value})


def test_ffn_width_defaults_to_dim():
    assert NetworkConfig(dim=48).ffn_width == 48
    assert NetworkConfig(dim=48, ffn_dim=96).ffn_width == 96


def test_zero_weight_block_is_identity(rng):
    g = random_graph(rng, 6, extra_edges=4)
    cfg = small_cfg(blocks=1)
    net, store = build_net(g, 5, cfg)
    # silence the trained paths: heads mix to zero, FFN second layer is zero
    store["block0.w_o"].data[:] = 0.0
    store["block0.ffn.w2"].data[:] = 0.0
    h_in = Tensor(rng.normal(size=(6, cfg.dim)))
    out = net.block_forward(0, h_in)
    assert_allclose(out.data, h_in.data, atol=1e-15)


def test_gat_recovery_is_structural(rng):
    g = random_graph(rng, 7, extra_edges=5)
    cfg = small_cfg(no_diffusion=True, no_layernorm=True, no_feedforward=True, hops=6)
    net, _ = build_net(g, 3, cfg)
    out = net.forward(Tensor(rng.normal(size=(7, 3)), requires_grad=True))
    # one aggregation per head per block, no diffusion recursion
    assert count_ops(out, "edge_spmm") == cfg.blocks * cfg.heads
    assert count_ops(out, "layer_norm") == 0
    assert count_ops(out, "elu") == cfg.blocks
    assert count_ops(out, "relu") == 0
    # bitwise the one-hop graph-attention layer: one A H product per head
    x = Tensor(rng.normal(size=(7, cfg.dim)))
    bp = net.blocks[0]
    per_head = [edge_spmm(attention_weights(x, g, head, net.relations), x, g) for head in bp.heads]
    gat = elu(add(matmul(concat_cols(per_head), bp.w_o), x))
    assert np.array_equal(net.block_forward(0, x).data, gat.data)


def test_full_block_runs_one_diffusion_node_per_head(rng, monkeypatch):
    g = random_graph(rng, 7, extra_edges=5)
    cfg = small_cfg(blocks=1)
    net, _ = build_net(g, 3, cfg)
    calls = []  # a node holds no values, so each diffusion's inputs and result are kept here

    def kept_spmm(att, h, *args):
        calls.append((att, h, edge_spmm(att, h, *args)))
        return calls[-1][2]

    monkeypatch.setattr(attention, "edge_spmm", kept_spmm)
    out = net.forward(Tensor(rng.normal(size=(7, 3)), requires_grad=True))
    nodes = ops_named(out, "edge_spmm")
    assert len(nodes) == cfg.heads
    assert {id(node) for node in nodes} == {id(result._node) for _, _, result in calls}
    # each node holds its head's K-step recursion Z <- (1-a) A Z + a H
    for att, h, result in calls:
        assert result._node._parents == (att.sink, h.sink)
        a_dense = dense_attention(g, att.data)
        z = h.data
        for _ in range(cfg.hops):
            z = (1.0 - cfg.alpha) * (a_dense @ z) + cfg.alpha * h.data
        assert_allclose(result.data, z, rtol=1e-12, atol=1e-12)


def test_depth_sweep_stays_finite(rng):
    g = random_graph(rng, 20, extra_edges=15)
    x = rng.normal(size=(20, 6))
    for blocks in (3, 6, 12, 18, 24):
        cfg = small_cfg(blocks=blocks, dim=8, heads=2, hops=4)
        net, _ = build_net(g, 6, cfg)
        out = net.forward(Tensor(x))
        assert np.all(np.isfinite(out.data))


def test_alpha_one_makes_hop_count_irrelevant(rng):
    g = random_graph(rng, 9, extra_edges=6)
    x = rng.normal(size=(9, 4))
    outs = []
    for hops in (1, 5):
        cfg = small_cfg(alpha=1.0, hops=hops)
        net, _ = build_net(g, 4, cfg, seed=3)
        outs.append(net.forward(Tensor(x)).data)
    assert np.array_equal(outs[0], outs[1])


def test_permutation_equivariance(rng):
    n = 11
    g = random_graph(rng, n, extra_edges=8)
    x = rng.normal(size=(n, 5))
    cfg = small_cfg()
    net, _ = build_net(g, 5, cfg, seed=7)
    out = net.forward(Tensor(x)).data

    perm = rng.permutation(n)  # perm[old] = new
    edges_p = [(int(perm[s]), int(r), int(perm[d])) for s, r, d in edge_list(g)]
    g_p = Graph(n, g.num_relations, edges_p)
    x_p = np.empty_like(x)
    x_p[perm] = x
    net_p, _ = build_net(g_p, 5, cfg, seed=7)  # same seed, identical parameters
    out_p = net_p.forward(Tensor(x_p)).data

    assert np.max(np.abs(out_p[perm] - out)) <= 1e-10


def test_forward_rejects_wrong_shape(rng):
    g = random_graph(rng, 5, extra_edges=2)
    net, _ = build_net(g, 4, small_cfg(blocks=1))
    with pytest.raises(ValueError, match="input must have shape"):
        net.forward(Tensor(rng.normal(size=(5, 3))))


def test_one_hop_attention_capture(rng, monkeypatch):
    g = random_graph(rng, 6, extra_edges=4)
    x = Tensor(rng.normal(size=(6, 3)))
    diffused = []

    def counted_diffusion(*args):
        diffused.append(args)
        return attention_diffusion(*args)

    monkeypatch.setattr(model, "attention_diffusion", counted_diffusion)
    for no_layernorm in (False, True):
        net, _ = build_net(g, 3, small_cfg(no_layernorm=no_layernorm))
        diffused.clear()
        att = net.one_hop_attention(x, 1, 1)
        # only block 0 diffuses; block 1 stops at the head's weights
        assert len(diffused) == net.cfg.heads
        assert att.shape == (g.num_edges,)
        for node in range(6):
            seg = att[g.in_indptr[node] : g.in_indptr[node + 1]]
            assert seg.sum() == pytest.approx(1.0, abs=1e-12)
        # the weights an evaluation-mode block_forward computes for head 1
        seen = []

        def recorded_weights(*args):
            out = attention_weights(*args)
            seen.append(out.data.reshape(-1).copy())
            return out

        with no_grad():
            h = net.block_forward(0, add(matmul(x, net.proj_w), net.proj_b))
            with monkeypatch.context() as m:
                m.setattr(model, "attention_weights", recorded_weights)
                net.block_forward(1, h)
        assert len(seen) == net.cfg.heads
        assert np.array_equal(att, seen[1])
    with pytest.raises(IndexError):
        net.one_hop_attention(x, 5, 0)
    with pytest.raises(IndexError):
        net.one_hop_attention(x, 0, 9)


def test_evaluation_block_frees_head_outputs_before_the_feedforward(rng):
    # without a tape, the heads' outputs and LN(x) must die once concatenated:
    # held through the feed-forward sub-layer they peaked at 8.56 arrays, held
    # through the W_o product 6.38, and freed before it 5.60
    n, d = 3000, 16
    g = random_graph(rng, n, extra_edges=6000)
    net, _ = build_net(g, d, NetworkConfig(blocks=1, dim=d, heads=2, hops=3, relation_dim=4))
    x = Tensor(rng.normal(size=(n, d)))

    def run():
        with no_grad():
            net.block_forward(0, x)

    assert peak_traced_bytes(run) < 6.0 * x.data.nbytes


def test_dropout_changes_training_forward_only(rng):
    g = random_graph(rng, 8, extra_edges=6)
    cfg = small_cfg(dropout_feature=0.4, dropout_attention=0.3)
    net, _ = build_net(g, 4, cfg)
    x = Tensor(rng.normal(size=(8, 4)))
    eval_a = net.forward(x).data
    eval_b = net.forward(x).data
    assert np.array_equal(eval_a, eval_b)
    train_out = net.forward(x, training=True, rng=np.random.default_rng(0)).data
    assert not np.allclose(train_out, eval_a)


def test_end_to_end_gradients_match_finite_differences(rng):
    g = random_graph(rng, 10, extra_edges=8)
    cfg = small_cfg()  # 2 blocks, d = 4
    net, store = build_net(g, 3, cfg, seed=11)
    x = Tensor(rng.normal(size=(10, 3)), requires_grad=True)
    proj = rng.normal(size=(10, 4))

    def loss():
        return proj_loss(net.forward(x), proj)

    params = dict(store.items())
    params["features"] = x
    check_grad(loss, params)


def test_paper_scale_shapes(rng):
    # full-size configuration, inference mode; a pure shape/finiteness check
    g = random_graph(rng, 2708, extra_edges=3000)
    cfg = NetworkConfig(blocks=6, dim=512, heads=8, alpha=0.15, hops=4)
    net, _ = build_net(g, 100, cfg)
    with no_grad():
        out = net.forward(Tensor(rng.normal(size=(2708, 100))))
    assert out.data.shape == (2708, 512)
    assert np.all(np.isfinite(out.data))
