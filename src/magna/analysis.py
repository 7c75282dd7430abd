"""Spectral verification of the diffusion operator and attention diagnostics.

The spectral claims hold for attention matrices with a real spectrum, which
the harness guarantees by working on symmetric weight matrices: the input W
(symmetric, nonnegative) is row-normalized to the stochastic A = D^-1 W,
and every eigenpair is computed on the similar symmetric matrix
S = D^-1/2 W D^-1/2, whose spectrum equals A's. Learned attention is
generally not symmetric; pass (A + A^T)/2 and keep the ``symmetrized`` label
set so reports carry the caveat.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attention import exact_diffusion_oracle
from .graph import Graph
from .linalg import SYM_TOL, AsymmetricMatrixError, dense_solve, sym_eigen

__all__ = [
    "SpectrumReport",
    "DiscrepancyReport",
    "eigenvalue_map",
    "predicted_ratio",
    "spectrum_report",
    "verify_eigenvector_sharing",
    "discrepancy_from_attention",
    "attention_discrepancy",
]

_ZERO_EIG = 1e-9


def eigenvalue_map(lam: float, alpha: float) -> float:
    """Eigenvalue of the diffused operator from an eigenvalue of A."""
    return alpha / (1.0 - (1.0 - alpha) * lam)


def predicted_ratio(lam_g: float, alpha: float) -> float:
    """Closed-form Laplacian eigenvalue ratio 1 / (alpha/(1-alpha) + lam_g)."""
    return 1.0 / (alpha / (1.0 - alpha) + lam_g)


def _normalized_pair(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-stochastic A and its symmetric similar S from symmetric weights."""
    w = np.asarray(weights, dtype=np.float64)
    n = w.shape[0]
    if w.shape != (n, n):
        raise ValueError("weight matrix must be square")
    if not np.isfinite(w).all():
        raise ValueError("weight matrix has NaN or Inf entries")
    if np.max(np.abs(w - w.T)) > SYM_TOL:
        raise AsymmetricMatrixError(f"weight matrix must be symmetric within {SYM_TOL}")
    if (w < 0).any():
        raise ValueError("weight matrix must be nonnegative")
    degree = w.sum(axis=1)
    if (degree <= 0).any():
        raise ValueError("every row must have positive weight sum")
    inv_sqrt = 1.0 / np.sqrt(degree)
    a_rw = w / degree[:, None]
    s = inv_sqrt[:, None] * w * inv_sqrt[None, :]
    return a_rw, s


@dataclass(frozen=True)
class SpectrumReport:
    alpha: float
    symmetrized: bool
    lam: np.ndarray                 # eigenvalues of A, ascending
    lam_hat: np.ndarray             # measured eigenvalues of the diffused operator
    lam_hat_predicted: np.ndarray   # alpha / (1 - (1-alpha) lam)
    lam_g: np.ndarray               # 1 - lam
    lam_hat_g: np.ndarray           # 1 - lam_hat
    ratio: np.ndarray               # lam_hat_g / lam_g, NaN where lam_g ~ 0
    ratio_predicted: np.ndarray
    max_eigen_deviation: float = field(init=False)
    max_ratio_deviation: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "max_eigen_deviation", float(np.max(np.abs(self.lam_hat - self.lam_hat_predicted)))
        )
        ok = ~np.isnan(self.ratio)
        dev = float(np.max(np.abs(self.ratio[ok] - self.ratio_predicted[ok]))) if ok.any() else 0.0
        object.__setattr__(self, "max_ratio_deviation", dev)

    def summary(self) -> dict:
        return {
            "alpha": self.alpha,
            "symmetrized": self.symmetrized,
            "num_eigenvalues": int(self.lam.size),
            "max_eigen_deviation": self.max_eigen_deviation,
            "max_ratio_deviation": self.max_ratio_deviation,
        }


def spectrum_report(weights: np.ndarray, alpha: float, symmetrized: bool = False) -> SpectrumReport:
    """Measured vs predicted spectrum of the diffused operator.

    ``weights`` is a symmetric nonnegative matrix (an adjacency for uniform
    attention, or an explicitly symmetrized attention matrix). Ratios are
    reported against the graph-Laplacian eigenvalues 1 - lam; rows where
    lam_g vanishes (the stochastic top eigenvalue) have an indeterminate 0/0
    measured ratio and carry NaN.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1) for spectral reports, got {alpha}")
    _, s = _normalized_pair(weights)
    lam, _ = sym_eigen(s)
    n = s.shape[0]
    diffused = alpha * dense_solve(np.eye(n) - (1.0 - alpha) * s, np.eye(n))
    diffused = (diffused + diffused.T) / 2.0  # shave solver round-off
    lam_hat, _ = sym_eigen(diffused)
    # the eigenvalue map is increasing on [-1, 1], so ascending order pairs up
    predicted = np.array([eigenvalue_map(v, alpha) for v in lam])
    lam_g = 1.0 - lam
    lam_hat_g = 1.0 - lam_hat
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(np.abs(lam_g) > _ZERO_EIG, lam_hat_g / lam_g, np.nan)
    ratio_pred = np.array([predicted_ratio(v, alpha) for v in lam_g])
    return SpectrumReport(
        alpha=alpha,
        symmetrized=symmetrized,
        lam=lam,
        lam_hat=lam_hat,
        lam_hat_predicted=predicted,
        lam_g=lam_g,
        lam_hat_g=lam_hat_g,
        ratio=ratio,
        ratio_predicted=ratio_pred,
    )


def verify_eigenvector_sharing(weights: np.ndarray, alpha: float) -> float:
    """Max over eigenpairs (lam, v) of A of the residual
    |diffused v - map(lam) v|_inf, using the dense diffusion oracle.

    Zero (to solver precision) confirms A and its diffusion share
    eigenvectors.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    a_rw, s = _normalized_pair(weights)
    lam, vecs = sym_eigen(s)
    inv_sqrt = 1.0 / np.sqrt(np.asarray(weights, dtype=np.float64).sum(axis=1))
    diffused = exact_diffusion_oracle(a_rw, alpha)
    worst = 0.0
    for lam_i, v in zip(lam, vecs.T):
        u = inv_sqrt * v  # eigenvector of the row-stochastic A
        resid = np.max(np.abs(diffused @ u - eigenvalue_map(lam_i, alpha) * u))
        worst = max(worst, float(resid))
    return worst


# ---------------------------------------------------------------------------
# attention discrepancy


@dataclass(frozen=True)
class DiscrepancyReport:
    per_node: np.ndarray
    mean: float

    def summary(self) -> dict:
        return {
            "mean": self.mean,
            "num_nodes": int(self.per_node.size),
            "max": float(self.per_node.max()) if self.per_node.size else 0.0,
        }


def discrepancy_from_attention(att_values: np.ndarray, graph: Graph) -> DiscrepancyReport:
    """Per-node distance of the attention row from uniform, degree-normalized.

    delta_i = |A[i, :] - U_i|_2 / degree(i) with U_i uniform over i's
    incoming edges; zero exactly when the row is uniform.
    """
    att_values = np.asarray(att_values, dtype=np.float64).reshape(-1)
    if att_values.shape[0] != graph.num_edges:
        raise ValueError("attention length must equal edge count")
    lengths = np.diff(graph.in_indptr)
    deltas = np.zeros(graph.num_nodes)
    for node in range(graph.num_nodes):
        deg = int(lengths[node])
        if deg == 0:
            continue
        row = att_values[graph.in_indptr[node] : graph.in_indptr[node + 1]]
        deltas[node] = np.linalg.norm(row - 1.0 / deg) / deg
    return DiscrepancyReport(per_node=deltas, mean=float(deltas.mean()))


def attention_discrepancy(net, features, layer: int, head: int) -> DiscrepancyReport:
    """Discrepancy of one head's one-hop attention in evaluation mode."""
    att = net.one_hop_attention(features, layer, head)
    return discrepancy_from_attention(att, net.graph)

