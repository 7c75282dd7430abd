"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line per
criterion. Criteria needing the Cora or WN18RR corpora skip with instructions
when the data directory is absent (see scripts/fetch_cora.py and
scripts/fetch_wn18rr.py); everything else runs self-contained.
"""

import dataclasses
import json
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from magna.analysis import attention_discrepancy, spectrum_report
from magna.attention import DiffusionConfig, dense_attention, exact_diffusion_oracle
from magna.cli import main as cli_main
from magna.graph import load_kg_dataset, load_node_dataset
from magna.model import MagnaNet, NetworkConfig
from magna.optim import ParamStore
from magna.tape import Tensor, edge_spmm
from magna.tasks import cross_entropy_loss, kg_filtered_ranks
from magna.train import TrainConfig, train_kg, train_node_classifier

from conftest import require_dataset
from helpers import (
    brute_force_rank,
    check_grad,
    compositional_kg,
    known_set,
    proj_loss,
    random_attention,
    random_graph,
    read_bytes,
    separable_node_dataset,
)

CORA_NET = NetworkConfig(
    blocks=2, dim=64, heads=8, alpha=0.1, hops=6, relation_dim=8,
    dropout_attention=0.3, dropout_feature=0.5,
)
CORA_TRAIN = TrainConfig(lr=1e-2, weight_decay=5e-4, epochs=1000, window=100)
CORA_SEEDS = (0, 1, 2)


@contextmanager
def criterion(num, description):
    try:
        yield
    except pytest.skip.Exception as exc:
        print(f"ACCEPTANCE {num}: SKIP - {description} ({exc})")
        raise
    except Exception:
        print(f"ACCEPTANCE {num}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {description}")


@pytest.fixture(scope="module")
def cora_runs():
    """Train-once cache shared by the Cora criteria (5, 6, 7, 9)."""
    from conftest import dataset_dir

    path = dataset_dir("cora")
    if not os.path.isdir(path):
        return None
    dataset = load_node_dataset(path)
    cache = {}

    def run(variant: str, seed: int):
        key = (variant, seed)
        if key not in cache:
            cfg = {
                "k6": CORA_NET,
                "k1": dataclasses.replace(CORA_NET, hops=1),
                "no_diffusion": dataclasses.replace(CORA_NET, no_diffusion=True),
                "gat": dataclasses.replace(CORA_NET, no_diffusion=True,
                                           no_layernorm=True, no_feedforward=True),
            }[variant]
            report, model = train_node_classifier(
                dataset, cfg, dataclasses.replace(CORA_TRAIN, seed=seed)
            )
            cache[key] = (report, model)
        return cache[key]

    return dataset, run


def _need_cora(cora_runs):
    if cora_runs is None:
        pytest.skip("dataset 'cora' not found; run scripts/fetch_cora.py")
    return cora_runs


def test_criterion_1_diffusion_convergence_bound(rng):
    with criterion(1, "iterative diffusion meets the 2(1-a)^K bound, monotonically"):
        start = time.monotonic()
        for g_idx in range(100):
            n = int(rng.integers(4, 51))
            graph = random_graph(rng, n, extra_edges=n)
            att_values = random_attention(rng, graph)
            dense = dense_attention(graph, att_values)
            h = rng.normal(size=(n, 3))
            h_norm = np.max(np.abs(h))
            att = Tensor(att_values)
            for alpha in (0.1, 0.25, 0.5):
                target = exact_diffusion_oracle(dense, alpha) @ h
                z = h.copy()
                prev_err = np.inf
                for hops in range(1, 13):
                    z = (1.0 - alpha) * (edge_spmm(att, Tensor(z), graph).data) + alpha * h
                    err = np.max(np.abs(z - target))
                    assert err <= 2.0 * (1.0 - alpha) ** hops * h_norm + 1e-12
                    assert err <= prev_err + 1e-12
                    prev_err = err
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_ppr_series_equivalence(rng):
    with criterion(2, "dense-solve diffusion equals the 200-term geometric series within 1e-8"):
        start = time.monotonic()
        for _ in range(10):
            n = int(rng.integers(4, 51))
            graph = random_graph(rng, n, extra_edges=n // 2)
            dense = dense_attention(graph, random_attention(rng, graph))
            for alpha in (0.1, 0.25, 0.5):
                term = alpha * np.eye(n)
                series = term.copy()
                for _i in range(1, 201):
                    term = (1.0 - alpha) * (term @ dense)
                    series += term
                dev = np.max(np.abs(exact_diffusion_oracle(dense, alpha) - series))
                assert dev <= 1e-8
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_3_spectral_map(rng):
    with criterion(3, "diffused spectrum matches a/(1-(1-a)l); ratio closed form, decreasing"):
        start = time.monotonic()
        for n in (20, 60, 100):
            graph = random_graph(rng, n, extra_edges=n)
            adj = np.zeros((n, n))
            for s, _, d in graph.edge_list():
                adj[s, d] = 1.0
                adj[d, s] = 1.0
            for alpha in (0.1, 0.3):
                report = spectrum_report(adj, alpha)
                assert report.max_eigen_deviation <= 1e-8
                assert report.max_ratio_deviation <= 1e-8
                order = np.argsort(report.lam_g)
                lam_g = report.lam_g[order]
                ratio = report.ratio[order]
                for i in range(len(lam_g) - 1):
                    if np.isnan(ratio[i]) or np.isnan(ratio[i + 1]):
                        continue
                    if lam_g[i + 1] - lam_g[i] > 1e-9:
                        assert ratio[i] > ratio[i + 1]
        path_adj = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        spot = spectrum_report(path_adj, alpha=0.5)
        np.testing.assert_allclose(sorted(spot.lam_hat, reverse=True),
                                   [1.0, 0.5, 1.0 / 3.0], atol=1e-10)
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_4_gradient_integrity(rng):
    with criterion(4, "every op and a 2-block network pass finite-difference checks at 1e-4"):
        start = time.monotonic()
        from magna import tape

        # op-level checks (kink-free inputs where the op has a kink)
        for _name, fn, params in _op_cases(rng):
            check_grad(fn, params)

        # end-to-end network on a 10-node graph
        graph = random_graph(rng, 10, extra_edges=8)
        cfg = NetworkConfig(blocks=2, dim=4, heads=2, alpha=0.4, hops=3, relation_dim=3)
        store = ParamStore()
        net = MagnaNet(cfg, graph, 3, store, np.random.default_rng(11))
        x = Tensor(rng.normal(size=(10, 3)), requires_grad=True)
        labels = rng.integers(0, 3, size=10)
        mask = np.ones(10, dtype=bool)
        head_w = store.glorot("clf.w", (4, 3), np.random.default_rng(12))
        head_b = store.zeros("clf.b", (1, 3))

        def loss():
            logits = tape.add(tape.matmul(net.forward(x), head_w), head_b)
            return cross_entropy_loss(logits, labels, mask)[0]

        params = dict(store.items())
        params["features"] = x
        check_grad(loss, params)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def _op_cases(rng):
    """(name, loss builder, leaves) for every tape op; a name is the op's,
    or the op's followed by ``_`` and a variant."""
    from magna import tape
    from magna.tasks import kl_label_smoothing_loss, smoothed_targets

    cases = []

    def tcase(name, build, params):
        cases.append((name, build, params))

    a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    p44 = rng.normal(size=(4, 4))
    tcase("matmul", lambda: proj_loss(tape.matmul(a, b), p44), {"a": a, "b": b})
    graph = random_graph(rng, 6, extra_edges=4)
    x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    p45 = rng.normal(size=(4, 5))
    tcase("add", lambda: proj_loss(tape.add(x, x), p45), {"x": x})
    y = Tensor(rng.normal(size=(1, 5)), requires_grad=True)
    tcase("add_bias", lambda: proj_loss(tape.add(x, y), p45), {"x": x, "y": y})
    kink_free = Tensor(rng.uniform(0.2, 1.0, size=(4, 5)) * rng.choice([-1, 1], size=(4, 5)),
                       requires_grad=True)
    tcase("relu", lambda: proj_loss(tape.relu(kink_free), p45), {"k": kink_free})
    tcase("elu", lambda: proj_loss(tape.elu(kink_free), p45), {"k": kink_free})
    gamma = Tensor(rng.normal(size=(1, 5)), requires_grad=True)
    beta = Tensor(rng.normal(size=(1, 5)), requires_grad=True)
    tcase("layer_norm", lambda: proj_loss(tape.layer_norm(x, gamma, beta), p45),
          {"x": x, "gamma": gamma, "beta": beta})
    tcase("dropout", lambda: proj_loss(
        tape.dropout(x, 0.3, np.random.default_rng(55), training=True), p45), {"x": x})
    c1 = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    p47 = rng.normal(size=(4, 7))
    tcase("concat_cols", lambda: proj_loss(tape.concat_cols([x, c1]), p47), {"x": x, "c1": c1})
    relw = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    heads, rels = np.array([0, 2, 3, 3, 1]), np.array([1, 0, 1, 2, 1])
    p54 = rng.normal(size=(5, 4))
    tcase("distmult_scores", lambda: proj_loss(tape.distmult_scores(x, relw, heads, rels), p54),
          {"x": x, "relw": relw})
    att = Tensor(rng.uniform(0.1, 1.0, size=(graph.num_edges, 1)), requires_grad=True)
    feat = Tensor(rng.normal(size=(graph.num_nodes, 3)), requires_grad=True)
    pn3 = rng.normal(size=(graph.num_nodes, 3))
    tcase("edge_spmm", lambda: proj_loss(tape.edge_spmm(att, feat, graph), pn3),
          {"att": att, "feat": feat})
    tcase("edge_spmm_hops", lambda: proj_loss(tape.edge_spmm(att, feat, graph, 4, 0.3), pn3),
          {"att": att, "feat": feat})
    att_only = Tensor(att.data, requires_grad=True)
    tcase("edge_spmm_hops_att", lambda: proj_loss(tape.edge_spmm(att_only, Tensor(feat.data), graph, 4, 0.3),
                                                  pn3), {"att": att_only})
    feat_only = Tensor(feat.data, requires_grad=True)
    tcase("edge_spmm_hops_feat", lambda: proj_loss(tape.edge_spmm(Tensor(att.data), feat_only, graph, 4, 0.3),
                                                   pn3), {"feat": feat_only})
    logits = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    labels = rng.integers(0, 6, size=4)
    tcase("cross_entropy", lambda: cross_entropy_loss(logits, labels, np.ones(4, bool))[0],
          {"logits": logits})
    targets = smoothed_targets([np.array(t) for t in ([0], [1, 4], [2], [5])], 6, 0.1)
    tcase("kl_smoothed", lambda: kl_label_smoothing_loss(logits, targets), {"logits": logits})

    # one attention head over two relations; v_a is drawn until every raw
    # score is at least 0.05 from the leaky kink
    kg_graph = random_graph(rng, 6, extra_edges=4, num_relations=2)
    h = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    w_h, w_t = (Tensor(rng.normal(size=(3, 3)), requires_grad=True) for _ in range(2))
    table = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    w_r = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    head = [h, w_h, w_t, table, w_r]
    while True:
        v_a = Tensor(rng.normal(size=(1, 9)), requires_grad=True)
        raw, _, _ = tape._attention_scores(*(t.data for t in head + [v_a]), kg_graph, 1.0, False)
        if np.min(np.abs(raw)) >= 0.05:
            break
    pk = rng.normal(size=(kg_graph.num_edges, 1))
    tcase("edge_attention", lambda: proj_loss(tape.edge_attention(*head, v_a, kg_graph, 0.2), pk),
          dict(zip(("h", "w_h", "w_t", "table", "w_r", "v_a"), head + [v_a])))
    return cases


def test_every_tape_op_has_a_finite_difference_case():
    from magna import tape

    names = [name for name, _, _ in _op_cases(np.random.default_rng(0))]
    ops = set(tape.__all__) - {"Tensor", "NonFiniteError", "no_grad"}
    missing = [op for op in ops if not any(n == op or n.startswith(op + "_") for n in names)]
    assert not missing, f"tape ops without a finite-difference case: {sorted(missing)}"


def test_criterion_5_cora_accuracy(cora_runs):
    with criterion(5, "Cora desk config reaches mean test accuracy >= 0.80 over 3 seeds"):
        _, run = _need_cora(cora_runs)
        start = time.monotonic()
        accs = [run("k6", s)[0].test_metric for s in CORA_SEEDS]
        elapsed = time.monotonic() - start
        mean_acc = float(np.mean(accs))
        print(f"  cora k6 accuracies: {[round(a, 4) for a in accs]} mean={mean_acc:.4f} "
              f"({elapsed:.0f}s)")
        assert mean_acc >= 0.80
        assert elapsed < 1800.0, f"training took {elapsed:.0f}s"


def test_criterion_6_multi_hop_benefit(cora_runs):
    with criterion(6, "K=6 beats K=1 by at least one accuracy point (3-seed means)"):
        _, run = _need_cora(cora_runs)
        k6 = float(np.mean([run("k6", s)[0].test_metric for s in CORA_SEEDS]))
        k1 = float(np.mean([run("k1", s)[0].test_metric for s in CORA_SEEDS]))
        print(f"  k6={k6:.4f} k1={k1:.4f} delta={k6 - k1:.4f}")
        assert k6 - k1 >= 0.01


def test_criterion_7_ablation_direction(cora_runs):
    with criterion(7, "no-diffusion ablation scores strictly below full model (3-seed means)"):
        _, run = _need_cora(cora_runs)
        full = float(np.mean([run("k6", s)[0].test_metric for s in CORA_SEEDS]))
        nodiff = float(np.mean([run("no_diffusion", s)[0].test_metric for s in CORA_SEEDS]))
        print(f"  full={full:.4f} no_diffusion={nodiff:.4f}")
        assert nodiff < full


def test_criterion_8_kg_pipeline(tmp_path, rng):
    with criterion(8, "filtered ranks match brute force; compositional toy KG reaches MRR > 0.9"):
        kg = compositional_kg(str(tmp_path / "kg"))
        assert kg.num_entities <= 50
        entity = rng.normal(size=(kg.num_entities, 5))
        relw = rng.normal(size=(kg.num_relations, 5))
        n_rel = len(kg.relation_names)
        for split in (kg.valid, kg.test):
            ranks = kg_filtered_ranks(entity, relw, kg, split)
            for i, (h, r, t) in enumerate(split):
                h, r, t = int(h), int(r), int(t)
                tail_scores = (entity[h] * relw[r]) @ entity.T
                assert ranks[2 * i] == brute_force_rank(tail_scores, t, known_set(kg, h, r))
                head_scores = (entity[t] * relw[r + n_rel]) @ entity.T
                assert ranks[2 * i + 1] == brute_force_rank(
                    head_scores, h, known_set(kg, t, r + n_rel))

        net = NetworkConfig(blocks=2, dim=32, heads=2, alpha=0.15, hops=3, relation_dim=16)
        cfg = TrainConfig(lr=2e-2, weight_decay=1e-8, epochs=1000, window=200, seed=0,
                          batch_size=256)
        report, _ = train_kg(kg, net, cfg, entity_dim=32)
        print(f"  toy KG validation MRR: {report.best_val:.3f}")
        assert report.best_val > 0.9


def test_criterion_8_wn18rr_loader_sizes():
    with criterion("8 (WN18RR sizes)", "loader round-trips the stated corpus sizes"):
        path = require_dataset("wn18rr")
        kg = load_kg_dataset(path)
        assert kg.num_entities == 40943
        assert len(kg.relation_names) == 11
        assert len(kg.train) == 86835


def test_criterion_9_discrepancy_diagnostic(cora_runs):
    with criterion(9, "trained model's first-layer attention is less uniform than the ablation's"):
        dataset, run = _need_cora(cora_runs)
        seed = CORA_SEEDS[0]
        _, magna_model = run("k6", seed)
        _, gat_model = run("gat", seed)
        magna_delta = attention_discrepancy(magna_model.net, magna_model.features, 0, 0).mean
        gat_delta = attention_discrepancy(gat_model.net, gat_model.features, 0, 0).mean
        print(f"  mean discrepancy: full={magna_delta:.5f} ablation={gat_delta:.5f}")
        assert magna_delta > gat_delta


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "identical config and seed produce byte-identical metrics files"):
        from magna.graph import save_node_dataset

        data_dir = str(tmp_path / "data")
        save_node_dataset(separable_node_dataset(seed=0, per_class=8), data_dir)
        cfg_file = str(tmp_path / "cfg.json")
        with open(cfg_file, "w") as fh:
            json.dump({"network": {"blocks": 1, "dim": 8, "heads": 2, "alpha": 0.3,
                                   "hops": 2, "relation_dim": 4},
                       "train": {"lr": 0.02, "epochs": 15, "window": 15}}, fh)
        blobs = []
        for name in ("r1", "r2"):
            out = str(tmp_path / name)
            assert cli_main(["train-node", "--data", data_dir, "--config", cfg_file,
                             "--out", out, "--seed", "7"]) == 0
            blobs.append(read_bytes(os.path.join(out, "metrics.json")))
        assert blobs[0] == blobs[1]
