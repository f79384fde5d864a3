"""Estimators and certification harnesses built on recorded trajectories.

Everything here treats the N-atom ensemble as the probability space, so
"L2 distance" always means the ensemble root mean square over atoms and
operator norms on the sample space are exact matrix 2-norms.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import InsufficientData, InvalidEnsemble, ShapeMismatch
from .integrators import DoState, integrate
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
class EquivarianceReport:
    """Sup-over-time defects between a run and its rotated twin."""

    sup_U_defect: float
    sup_Y_defect: float
    sup_product_defect: float


def rotation_equivariance_check(model, U0, Y0, theta, path, t_end, dt):
    """Integrate from (U0, Y0) and (theta U0, theta Y0) with common noise.

    A constant orthogonal change of coordinates of the factors leaves
    the reconstructed ensemble invariant, so the product defect should
    sit at rounding level; the factor defects report how well the
    discrete scheme preserves the rotation itself.
    """
    theta = np.asarray(theta, dtype=float)
    R = U0.shape[0]
    if theta.shape != (R, R):
        raise ShapeMismatch("theta must be %d x %d" % (R, R))
    if float(np.linalg.norm(theta @ theta.T - np.eye(R))) > 1e-12:
        raise InvalidEnsemble("theta is not orthogonal within 1e-12")
    base = integrate(model, DoState(t=0.0, U=U0, Y=Y0), "do", t_end, dt, path)
    rot = integrate(
        model, DoState(t=0.0, U=theta @ U0, Y=Y0 @ theta.T), "do", t_end, dt, path
    )
    sup_U = 0.0
    sup_Y = 0.0
    sup_prod = 0.0
    for sb, sr in zip(base.states, rot.states):
        sup_U = max(sup_U, float(np.linalg.norm(sr.U - theta @ sb.U)))
        sup_Y = max(sup_Y, l2_distance(sr.Y, sb.Y @ theta.T))
        sup_prod = max(sup_prod, l2_distance(sr.product(), sb.product()))
    return EquivarianceReport(
        sup_U_defect=sup_U, sup_Y_defect=sup_Y, sup_product_defect=sup_prod
    )


@dataclass
class MomentSeries:
    """Empirical E|Y_t|^{2k} over recorded times."""

    times: np.ndarray
    values: np.ndarray
    k: int
    xy_discrepancy: float  # max |E|X|^{2k} - E|Y|^{2k}| over the record


def moment_estimator(traj, k=1):
    """2k-th absolute moment of the coefficients along a trajectory.

    For factored states also evaluates the same moment through the
    reconstructed ensemble; the two agree to rounding because the basis
    rows are orthonormal.
    """
    if not (isinstance(k, int) and k >= 1):
        raise InvalidEnsemble("k must be a positive integer, got %r" % (k,))
    times = []
    values = []
    disc = 0.0
    for state in traj.states:
        times.append(state.t)
        if isinstance(state, DoState):
            vy = float(kernels.ensemble_mean(np.sum(state.Y**2, axis=1) ** k))
            vx = float(kernels.ensemble_mean(np.sum(state.product() ** 2, axis=1) ** k))
            disc = max(disc, abs(vx - vy))
            values.append(vy)
        else:
            values.append(float(kernels.ensemble_mean(np.sum(state.X**2, axis=1) ** k)))
    return MomentSeries(
        times=np.array(times), values=np.array(values), k=k, xy_discrepancy=disc
    )


@dataclass
class HolderFit:
    """Log-log fit of time-increment moments against the gap size."""

    gaps: np.ndarray
    moments: np.ndarray
    slope: float
    k: int


def holder_estimator(traj, k=1, gaps=None):
    """Slope of log E|X_t - X_{t-h}|^{2k} against log h.

    ``gaps`` is a dyadic list of time gaps; the default uses
    {4 dt, 8 dt, ..., 64 dt} where dt is the recorded spacing.  The
    moment at each gap is averaged over every admissible t before the
    regression.  Raises InsufficientData for fewer than 4 usable levels.
    """
    times = [s.t for s in traj.states]
    if len(times) < 2:
        raise InsufficientData("trajectory has fewer than 2 recorded states")
    dt = times[1] - times[0]
    X = [s.product() for s in traj.states]
    n = len(X)
    if gaps is None:
        gaps = [4 * dt * 2**j for j in range(5)]
    offsets = []
    for g in gaps:
        off = int(round(g / dt))
        if off < 4 or abs(off * dt - g) > 1e-9 * max(g, dt):
            raise InsufficientData("gap %g is not a multiple >= 4 of the record spacing" % g)
        if off < n:
            offsets.append(off)
    if len(offsets) < 4:
        raise InsufficientData(
            "only %d usable gap levels; need at least 4" % len(offsets)
        )
    moments = []
    for off in offsets:
        acc = []
        for i in range(off, n):
            diff_sq = np.sum((X[i] - X[i - off]) ** 2, axis=1)
            acc.append(float(kernels.ensemble_mean(diff_sq**k)))
        moments.append(float(np.mean(acc)))
    gaps_used = np.array([off * dt for off in offsets])
    moments = np.array(moments)
    if np.any(moments <= 0):
        raise InsufficientData("zero increment moment; cannot take logs")
    slope = float(np.polyfit(np.log(gaps_used), np.log(moments), 1)[0])
    return HolderFit(gaps=gaps_used, moments=moments, slope=slope, k=k)


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
