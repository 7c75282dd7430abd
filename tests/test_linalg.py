import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from magna.linalg import (
    AsymmetricMatrixError,
    SingularMatrixError,
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
