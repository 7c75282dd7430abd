import numpy as np
import pytest
from numpy.testing import assert_allclose

from magna.analysis import (
    attention_discrepancy,
    discrepancy_from_attention,
    eigenvalue_map,
    predicted_ratio,
    spectrum_report,
    verify_eigenvector_sharing,
)
from magna.attention import exact_diffusion_oracle
from magna.graph import Graph
from magna.linalg import AsymmetricMatrixError
from magna.model import MagnaNet, NetworkConfig
from magna.optim import ParamStore
from magna.tape import Tensor

from helpers import path_graph, random_graph

PATH_ADJ = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])


def undirected_adjacency(rng, n, extra=10):
    g = random_graph(rng, n, extra_edges=extra)
    adj = np.zeros((n, n))
    for s, _, d in g.edge_list():
        adj[s, d] = 1.0
        adj[d, s] = 1.0
    return adj


# ---------------------------------------------------------------------------
# eigenvalue map and ratio formula


def test_stochastic_top_eigenvalue_is_fixed_point():
    for alpha in (0.05, 0.3, 0.7, 0.99):
        assert eigenvalue_map(1.0, alpha) == pytest.approx(1.0, abs=1e-15)


def test_map_monotone_increasing_on_spectrum_interval():
    lams = np.linspace(-1.0, 1.0, 41)
    for alpha in (0.05, 0.3, 0.8):
        mapped = [eigenvalue_map(l, alpha) for l in lams]
        assert all(a < b for a, b in zip(mapped, mapped[1:]))


def test_ratio_spot_values_amplify_low_frequencies():
    assert predicted_ratio(0.1, 0.05) == pytest.approx(1.0 / (0.05 / 0.95 + 0.1), abs=1e-12)
    assert predicted_ratio(0.1, 0.05) == pytest.approx(6.55, abs=0.01)
    assert predicted_ratio(0.1, 0.05) > 1.0
    assert predicted_ratio(2.0, 0.05) == pytest.approx(0.49, abs=0.01)
    assert predicted_ratio(2.0, 0.05) < 1.0


def test_ratio_strictly_decreasing_in_graph_frequency():
    grid = np.linspace(1e-3, 2.0, 50)
    for alpha in (0.05, 0.25, 0.6):
        vals = [predicted_ratio(g, alpha) for g in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_low_pass_effect_grows_as_alpha_shrinks():
    for lam_g in np.linspace(0.05, 2.0, 20):
        assert predicted_ratio(lam_g, 0.05) > predicted_ratio(lam_g, 0.3)


# ---------------------------------------------------------------------------
# spectrum report


def test_path_spectrum_spot_values():
    report = spectrum_report(PATH_ADJ, alpha=0.5)
    assert_allclose(report.lam, [-1.0, 0.0, 1.0], atol=1e-10)
    assert_allclose(report.lam_hat, [1.0 / 3.0, 0.5, 1.0], atol=1e-10)
    assert_allclose(report.lam_hat_predicted, [1.0 / 3.0, 0.5, 1.0], atol=1e-12)
    assert report.max_eigen_deviation <= 1e-10
    # trace of the diffused operator equals the eigenvalue sum
    diffused = exact_diffusion_oracle(PATH_ADJ / PATH_ADJ.sum(axis=1, keepdims=True), 0.5)
    assert np.trace(diffused) == pytest.approx(11.0 / 6.0, abs=1e-12)
    assert report.lam_hat.sum() == pytest.approx(11.0 / 6.0, abs=1e-10)


def test_path_ratios_match_closed_form():
    report = spectrum_report(PATH_ADJ, alpha=0.5)
    # lam_g = [2, 1, 0]; the 0 row is indeterminate and carries NaN
    assert_allclose(report.lam_g, [2.0, 1.0, 0.0], atol=1e-10)
    assert np.isnan(report.ratio[2])
    assert_allclose(report.ratio[:2], [1.0 / 3.0, 1.0 / 2.0], atol=1e-10)
    assert_allclose(report.ratio_predicted, [1.0 / 3.0, 1.0 / 2.0, 1.0], atol=1e-12)
    assert report.max_ratio_deviation <= 1e-8


def test_spectrum_random_graphs_match_prediction(rng):
    for n in (10, 30, 60):
        adj = undirected_adjacency(rng, n)
        for alpha in (0.1, 0.3):
            report = spectrum_report(adj, alpha)
            assert report.max_eigen_deviation <= 1e-8
            assert report.max_ratio_deviation <= 1e-8
            order = np.argsort(report.lam_g)
            finite = ~np.isnan(report.ratio[order])
            measured = report.ratio[order][finite]
            assert all(a > b - 1e-12 for a, b in zip(measured, measured[1:]))


def test_spectrum_rejects_asymmetric_and_bad_alpha():
    with pytest.raises(AsymmetricMatrixError):
        spectrum_report(np.array([[0.0, 1.0], [0.5, 0.0]]), 0.3)
    with pytest.raises(ValueError):
        spectrum_report(PATH_ADJ, 1.0)


def test_symmetrized_label_is_carried():
    report = spectrum_report(PATH_ADJ, 0.4, symmetrized=True)
    assert report.symmetrized is True
    assert report.summary()["symmetrized"] is True


# ---------------------------------------------------------------------------
# eigenvector sharing


def test_identity_weights_share_trivially():
    assert verify_eigenvector_sharing(np.eye(4), 0.5) <= 1e-12


def test_path_eigenvectors_shared():
    assert verify_eigenvector_sharing(PATH_ADJ, 0.5) <= 1e-8


def test_random_graph_eigenvectors_shared(rng):
    adj = undirected_adjacency(rng, 30)
    assert verify_eigenvector_sharing(adj, 0.2) <= 1e-8


# ---------------------------------------------------------------------------
# attention discrepancy


def test_uniform_attention_has_zero_discrepancy():
    g = path_graph(4)
    degree = np.diff(g.in_indptr)
    att = np.repeat(1.0 / np.maximum(degree, 1), degree)
    report = discrepancy_from_attention(att, g)
    assert_allclose(report.per_node, np.zeros(4), atol=1e-15)
    assert report.mean == 0.0


def test_two_neighbor_all_or_nothing_value():
    g = Graph(3, 1, [(1, 0, 0), (2, 0, 0), (0, 0, 1), (0, 0, 2)])
    att = np.array([1.0, 0.0, 1.0, 1.0])
    report = discrepancy_from_attention(att, g)
    assert report.per_node[0] == pytest.approx(np.sqrt(0.5) / 2.0, abs=1e-12)
    assert report.per_node[0] == pytest.approx(0.3536, abs=1e-4)


def test_histogram_counts_every_node(rng):
    g = random_graph(rng, 15, extra_edges=10)
    att = rng.uniform(0.01, 1.0, size=g.num_edges)
    report = discrepancy_from_attention(att, g)
    assert report.bin_counts.sum() == g.num_nodes
    assert report.per_node.shape == (15,)


def test_network_level_discrepancy(rng):
    g = random_graph(rng, 10, extra_edges=8)
    cfg = NetworkConfig(blocks=2, dim=8, heads=2, alpha=0.3, hops=2, relation_dim=4)
    store = ParamStore()
    net = MagnaNet(cfg, g, 5, store, rng)
    x = Tensor(rng.normal(size=(10, 5)))
    report = attention_discrepancy(net, x, layer=1, head=0)
    assert report.per_node.shape == (10,)
    assert report.mean >= 0.0
    with pytest.raises(IndexError):
        attention_discrepancy(net, x, layer=9, head=0)
