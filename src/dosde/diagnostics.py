"""The ensemble L2 distance and the projector perturbation harness.

Both treat the N-atom ensemble as the probability space, so "L2
distance" means the ensemble root mean square over atoms and operator
norms on the sample space are exact matrix 2-norms.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ShapeMismatch
from .paths import philox


def l2_distance(A, B):
    """Ensemble L2 distance sqrt((1/N) sum_i |A_i - B_i|^2)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise ShapeMismatch("shapes differ: %r vs %r" % (A.shape, B.shape))
    D = A - B
    return math.sqrt(kernels.mean_sq_norm(D[:, None] if D.ndim == 1 else D))


@dataclass
class LipschitzHarnessReport:
    """Worst observed/allowed ratios over all trials (should be <= 1)."""

    max_ratio_U: float
    max_ratio_V: float
    max_ratio_combined: float
    n_trials: int


def projector_lipschitz_harness(n_trials=1000, N=32, d=8, R=3, seed=0):
    """Certify the projector perturbation bounds on random rank-R pairs.

    Each trial plants X with known factors, perturbs it within the
    allowed radius ||X - Xhat|| < sigma_min / R (sigma_min being the
    R-th, smallest nonzero, singular value of X itself), re-truncates to
    rank R, and compares exact operator norms of the projector
    differences to the bounds (R / sigma_min) ||X - Xhat|| for each side
    and (3R / sigma_min) for the combined projector
    F -> F P_U + P_V F - P_V F P_U on the product space.  That projector
    is I - (I - P_V) x (I - P_U), and for equal-rank pairs its
    difference has the exact 2-norm sqrt(n_u^2 + n_v^2 - n_u^2 n_v^2),
    where n_u and n_v are the one-sided norms.  Each one-sided norm is
    taken from the orthonormal bases (``_projector_distance``): Q and
    Qhat on the U side, Phi / sqrt(N) and Phihat / sqrt(N) on the V
    side.  No N x N or (N d) x (N d) matrix is built.
    """
    max_u = 0.0
    max_v = 0.0
    max_c = 0.0
    for trial in range(n_trials):
        rng = np.random.Generator(philox(seed, trial))
        X, sigma_min = _planted_rank_R(rng, N, d, R)
        # Perturb inside the radius, then snap back onto rank R.
        eps = 0.4 * rng.uniform(0.1, 1.0) * sigma_min / R
        D = rng.standard_normal((N, d))
        D /= math.sqrt(kernels.mean_sq_norm(D))
        Xhat = _truncate_rank(X + eps * D, R)
        dist = math.sqrt(kernels.mean_sq_norm(X - Xhat))
        assert dist < sigma_min / R
        fac = kernels.second_moment_svd(X)
        fac_h = kernels.second_moment_svd(Xhat)
        n_u = _projector_distance(fac.Q[:, :R], fac_h.Q[:, :R])
        root_n = math.sqrt(N)
        n_v = _projector_distance(fac.phis[:, :R] / root_n, fac_h.phis[:, :R] / root_n)
        n_c = math.sqrt(n_u * n_u + n_v * n_v - n_u * n_u * n_v * n_v)
        allowed = (R / sigma_min) * dist
        max_u = max(max_u, n_u / allowed)
        max_v = max(max_v, n_v / allowed)
        max_c = max(max_c, n_c / (3.0 * allowed))
    return LipschitzHarnessReport(
        max_ratio_U=max_u, max_ratio_V=max_v, max_ratio_combined=max_c, n_trials=n_trials
    )


def _projector_distance(A, B):
    """||A A^T - B B^T||_2 for A and B with equally many orthonormal
    columns, taken as ||B - A (A^T B)||_2: both are the sine of the
    largest principal angle between their spans."""
    return float(np.linalg.norm(B - A @ (A.T @ B), 2))


def _planted_rank_R(rng, N, d, R):
    """Random X (N x d) with ensemble rank R and known smallest singular value."""
    G = rng.standard_normal((N, R))
    Qn, _ = np.linalg.qr(G)
    Phi = math.sqrt(N) * Qn  # ensemble-orthonormal columns
    Gd = rng.standard_normal((d, R))
    Qd, _ = np.linalg.qr(Gd)
    sig = np.sort(rng.uniform(0.5, 2.0, size=R))[::-1]
    X = (Phi * sig) @ Qd.T
    return X, float(sig[-1])


def _truncate_rank(X, R):
    """Best rank-R approximation in the weighted ensemble norm."""
    U, s, Vt = np.linalg.svd(X / math.sqrt(X.shape[0]), full_matrices=False)
    return math.sqrt(X.shape[0]) * (U[:, :R] * s[:R]) @ Vt[:R]
