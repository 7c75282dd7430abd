"""Dense solver and symmetric eigensolver for oracles and spectral analysis.

Both run in float64 regardless of the caller's dtype. They back the exact
diffusion oracle and the spectrum reports, never the training path: a
LAPACK LU solve behind a pivot guard, and cyclic Jacobi rotations.
"""

from __future__ import annotations

import warnings

import numpy as np

__all__ = ["dense_solve", "sym_eigen", "SingularMatrixError", "AsymmetricMatrixError"]

_PIVOT_TOL = 1e-12
SYM_TOL = 1e-10
_MAX_SWEEPS = 60


class SingularMatrixError(ValueError):
    """Pivot magnitude fell below tolerance during LU factorization."""


class AsymmetricMatrixError(ValueError):
    """sym_eigen was handed a matrix that is not symmetric."""


def dense_solve(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve M X = B by LU factorization with partial pivoting.

    B may be a vector or a matrix of right-hand sides. A pivot below
    1e-12 in magnitude raises ``SingularMatrixError``; LAPACK alone would
    return a huge, meaningless solution for such a nearly singular M.
    """
    from scipy.linalg import LinAlgWarning, lu_factor, lu_solve  # about 8 MB resident: load on first use
    m = np.asarray(m, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"dense_solve: M must be square, got {m.shape}")
    if b.shape[0] != m.shape[0]:
        raise ValueError("dense_solve: B row count must match M")
    with warnings.catch_warnings():
        # an exactly zero pivot is reported by the guard below
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(m)
    small = np.flatnonzero(np.abs(np.diag(lu)) < _PIVOT_TOL)
    if small.size:
        k = int(small[0])
        raise SingularMatrixError(f"pivot {lu[k, k]:.3e} below {_PIVOT_TOL} at column {k}")
    return lu_solve((lu, piv), b)


def sym_eigen(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues ascending, eigenvectors as columns, orthonormal).
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"sym_eigen: matrix must be square, got {m.shape}")
    if m.shape[0] > 500:
        raise ValueError("sym_eigen is verification-scale only (n <= 500)")
    asym = np.max(np.abs(m - m.T)) if m.size else 0.0
    if asym > SYM_TOL:
        raise AsymmetricMatrixError(f"max |M - M^T| = {asym:.3e} exceeds {SYM_TOL}")

    n = m.shape[0]
    a = (m + m.T) / 2.0
    v = np.eye(n)
    if n <= 1:
        return np.diag(a).copy(), v

    scale = max(np.max(np.abs(a)), 1.0)
    tol = 1e-14 * scale
    for _ in range(_MAX_SWEEPS):
        off = np.max(np.abs(a - np.diag(np.diag(a))))
        if off <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= tol:
                    continue
                # stable rotation angle (Golub & Van Loan)
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c

                row_p, row_q = a[p].copy(), a[q].copy()
                a[p] = c * row_p - s * row_q
                a[q] = s * row_p + c * row_q
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                a[p, q] = 0.0
                a[q, p] = 0.0

                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    else:
        raise RuntimeError("sym_eigen: Jacobi sweeps did not converge")

    eigvals = np.diag(a).copy()
    order = np.argsort(eigvals, kind="stable")
    return eigvals[order], v[:, order]
