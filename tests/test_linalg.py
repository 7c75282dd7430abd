import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from magna import linalg
from magna.linalg import (
    AsymmetricMatrixError,
    SingularMatrixError,
    _round_robin,
    dense_solve,
    sym_eigen,
)


def test_solve_identity_returns_rhs(rng):
    b = rng.normal(size=(4, 3))
    assert_allclose(dense_solve(np.eye(4), b), b)


def test_solve_diagonal():
    x = dense_solve(np.array([[2.0, 0.0], [0.0, 4.0]]), np.eye(2))
    assert_allclose(x, [[0.5, 0.0], [0.0, 0.25]])


def test_solve_path_diffusion_system_first_row():
    # (I - 0.5 A) for the uniform-attention 3-path; det = 0.75
    a = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
    inv = dense_solve(np.eye(3) - 0.5 * a, np.eye(3))
    assert_allclose(inv[0], [7.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0], atol=1e-12)


def test_solve_singular_raises():
    with pytest.raises(SingularMatrixError):
        dense_solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.eye(2))


def test_solve_nearly_singular_raises():
    # the second pivot is 9.99e-15; an unguarded LAPACK solve returns ~1e14
    with pytest.raises(SingularMatrixError, match="pivot 9.99"):
        dense_solve(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]), np.eye(2))


def test_solve_requires_pivoting():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert_allclose(dense_solve(m, np.array([2.0, 3.0])), [3.0, 2.0])


@given(st.integers(2, 12), st.integers(0, 1000))
def test_solve_residual_bound(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + n * np.eye(n)
    b = rng.normal(size=(n, 2))
    x = dense_solve(m, b)
    resid = np.max(np.abs(m @ x - b))
    assert resid <= 1e-9 * max(np.max(np.abs(b)), 1e-300)


def test_eigen_diagonal():
    vals, vecs = sym_eigen(np.diag([1.0, 2.0, 3.0]))
    assert_allclose(vals, [1.0, 2.0, 3.0])
    assert_allclose(np.abs(vecs), np.eye(3), atol=1e-12)


def test_eigen_reflection():
    vals, _ = sym_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert_allclose(vals, [-1.0, 1.0], atol=1e-12)


def test_eigen_uniform_three_cycle():
    # circulant spectrum: cos(2 pi k / 3), scaled by the 1/2 attention weight
    m = np.full((3, 3), 0.5) - 0.5 * np.eye(3)
    vals, _ = sym_eigen(m)
    assert_allclose(vals, [-0.5, -0.5, 1.0], atol=1e-10)


def test_eigen_rejects_asymmetric():
    with pytest.raises(AsymmetricMatrixError):
        sym_eigen(np.array([[0.0, 1.0], [0.5, 0.0]]))


@given(st.integers(1, 20), st.integers(0, 1000))
def test_eigen_residual_and_orthonormality(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    m = (a + a.T) / 2.0
    vals, vecs = sym_eigen(m)
    assert np.all(np.diff(vals) >= -1e-12)
    for lam, v in zip(vals, vecs.T):
        assert np.max(np.abs(m @ v - lam * v)) <= 1e-8
    assert np.max(np.abs(vecs.T @ vecs - np.eye(n))) <= 1e-8


def test_solver_scale_guards():
    with pytest.raises(ValueError, match="verification-scale"):
        sym_eigen(np.eye(501))


@pytest.mark.parametrize("n", range(2, 10))
def test_round_robin_pairs_every_index_pair_once_per_sweep(n):
    met = []
    for p, q in _round_robin(n):
        assert np.all(p < q)
        in_round = np.concatenate([p, q])
        assert len(set(in_round.tolist())) == in_round.size  # no index twice in a round
        met += zip(p.tolist(), q.tolist())
    assert sorted(met) == [(p, q) for p in range(n) for q in range(p + 1, n)]


def normalized_tree_plus_edges(rng, n, extra):
    """D^-1/2 W D^-1/2 of a random tree on n nodes plus ``extra`` random
    edges, the shape of the benchmark's spectrum graph."""
    w = np.zeros((n, n))
    for v in range(1, n):
        u = rng.integers(v)
        w[u, v] = w[v, u] = 1.0
    added = 0
    while added < extra:
        u, v = rng.integers(n, size=2)
        if u != v and w[u, v] == 0.0:
            w[u, v] = w[v, u] = 1.0
            added += 1
    inv_sqrt = 1.0 / np.sqrt(w.sum(axis=1))
    return inv_sqrt[:, None] * w * inv_sqrt[None, :]


def random_symmetric(rng, n):
    a = rng.normal(size=(n, n))
    return (a + a.T) / 2.0


@pytest.mark.parametrize("build", [lambda rng: normalized_tree_plus_edges(rng, 80, 80),
                                   lambda rng: random_symmetric(rng, 81)],
                         ids=["benchmark_graph_80", "random_81"])
def test_eigen_matches_eigvalsh_with_orthonormal_vectors(rng, build):
    m = build(rng)
    vals, vecs = sym_eigen(m)
    assert_allclose(vals, np.linalg.eigvalsh(m), rtol=0, atol=1e-11)
    assert np.max(np.abs(vecs.T @ vecs - np.eye(m.shape[0]))) <= 1e-12
    assert np.max(np.abs(m @ vecs - vecs * vals)) <= 1e-11


def test_eigen_raises_when_sweeps_run_out(rng, monkeypatch):
    monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
    with pytest.raises(RuntimeError, match="did not converge"):
        sym_eigen(random_symmetric(rng, 12))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_eigen_rejects_nonfinite_entries(rng, bad):
    m = random_symmetric(rng, 40)
    m[3, 7] = m[7, 3] = bad
    with pytest.raises(ValueError, match="NaN or Inf"):
        sym_eigen(m)
