"""Dense solver and symmetric eigensolver for oracles and spectral analysis.

Both run in float64 regardless of the caller's dtype. They back the exact
diffusion oracle and the spectrum reports, never the training path: a
LAPACK LU solve behind a pivot guard, and round-robin Jacobi rotations.
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


def _round_robin(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """One Jacobi sweep's rounds of disjoint pairs (p < q), by the circle method.

    Over its rounds every pair of indices meets exactly once. Index m - 1
    sits in the middle and the others turn around it, for m = n rounded up
    to even; when n is odd, index n is a dummy, and whoever it meets sits
    the round out. See Brent & Luk (1985).
    """
    m = n + n % 2
    i = np.arange(1, m // 2)
    rounds = []
    for r in range(m - 1):
        a = np.concatenate(([m - 1], (r + i) % (m - 1)))
        b = np.concatenate(([r], (r - i) % (m - 1)))
        p, q = np.minimum(a, b), np.maximum(a, b)
        rounds.append((p[q < n], q[q < n]))
    return rounds


def _rotate_rows(x: np.ndarray, p: np.ndarray, q: np.ndarray, c: np.ndarray, s: np.ndarray) -> None:
    """Rotate each row pair (x[p], x[q]) in place by its own (c, s)."""
    xp, xq = x[p], x[q]
    x[p] = c * xp - s * xq
    x[q] = s * xp + c * xq


def sym_eigen(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a symmetric matrix by round-robin Jacobi rotations.

    Each round rotates disjoint pairs, which commute, so it is one
    orthogonal similarity applied with whole-array ops.
    Returns (eigenvalues ascending, eigenvectors as columns, orthonormal).
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"sym_eigen: matrix must be square, got {m.shape}")
    if m.shape[0] > 500:
        raise ValueError("sym_eigen is verification-scale only (n <= 500)")
    if not np.isfinite(m).all():
        raise ValueError("sym_eigen: matrix has NaN or Inf entries")
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
    rounds = _round_robin(n)
    for _ in range(_MAX_SWEEPS):
        off = np.max(np.abs(a - np.diag(np.diag(a))))
        if off <= tol:
            break
        for p, q in rounds:
            big = np.abs(a[p, q]) > tol
            p, q = p[big], q[big]
            if not p.size:
                continue
            # stable rotation angles (Golub & Van Loan)
            theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
            t = np.sign(theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
            t[theta == 0.0] = 1.0
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c

            c, s = c[:, None], s[:, None]
            _rotate_rows(a, p, q, c, s)
            _rotate_rows(a.T, p, q, c, s)  # then its columns
            a[p, q] = 0.0
            a[q, p] = 0.0
            _rotate_rows(v.T, p, q, c, s)
    else:
        raise RuntimeError("sym_eigen: Jacobi sweeps did not converge")

    eigvals = np.diag(a).copy()
    order = np.argsort(eigvals, kind="stable")
    return eigvals[order], v[:, order]
