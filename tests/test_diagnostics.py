"""The ensemble L2 distance and the projector perturbation harness."""

import math
import tracemalloc

import numpy as np
import pytest

from dosde import kernels, paths
from dosde.errors import ShapeMismatch
from dosde.diagnostics import (
    _planted_rank_R,
    _projector_distance,
    _truncate_rank,
    l2_distance,
    projector_lipschitz_harness,
)


def test_l2_distance_hand_value():
    A = np.array([[3.0, 0.0], [0.0, 0.0]])
    B = np.zeros((2, 2))
    # sqrt(mean(|3 e_1|^2, 0)) = sqrt(4.5)
    assert l2_distance(A, B) == pytest.approx(math.sqrt(4.5), rel=1e-15)
    with pytest.raises(ShapeMismatch):
        l2_distance(A, np.zeros((3, 2)))


def test_lipschitz_harness_small_batch():
    rep = projector_lipschitz_harness(n_trials=25, N=16, d=6, R=2, seed=7)
    assert rep.n_trials == 25
    assert 0.0 < rep.max_ratio_U <= 1.0
    assert 0.0 < rep.max_ratio_V <= 1.0
    assert 0.0 < rep.max_ratio_combined <= 1.0


def _harness_trial(seed, trial, N, d, R):
    """The harness's trial: its planted X, its rank-R Xhat, sigma_min,
    their distance, and both second-moment factorizations."""
    rng = np.random.Generator(paths.philox(seed, trial))
    X, sigma_min = _planted_rank_R(rng, N, d, R)
    eps = 0.4 * rng.uniform(0.1, 1.0) * sigma_min / R
    D = rng.standard_normal((N, d))
    D /= math.sqrt(kernels.mean_sq_norm(D))
    Xhat = _truncate_rank(X + eps * D, R)
    dist = math.sqrt(kernels.mean_sq_norm(X - Xhat))
    return sigma_min, dist, kernels.second_moment_svd(X), kernels.second_moment_svd(Xhat)


def _dense_projectors(fac, fac_h, N, R):
    """The oracle's d x d projectors P_U, P_Uhat and N x N P_V, P_Vhat."""
    P_U, P_Uh = fac.Q[:, :R] @ fac.Q[:, :R].T, fac_h.Q[:, :R] @ fac_h.Q[:, :R].T
    P_V = fac.phis[:, :R] @ fac.phis[:, :R].T / N
    P_Vh = fac_h.phis[:, :R] @ fac_h.phis[:, :R].T / N
    return P_U, P_Uh, P_V, P_Vh


def test_lipschitz_harness_one_sided_norms_match_the_dense_projectors():
    n_trials, N, d, R, seed = 200, 24, 6, 2, 3
    max_u = max_v = 0.0
    for trial in range(n_trials):
        sigma_min, dist, fac, fac_h = _harness_trial(seed, trial, N, d, R)
        P_U, P_Uh, P_V, P_Vh = _dense_projectors(fac, fac_h, N, R)
        n_u = float(np.linalg.norm(P_U - P_Uh, 2))
        n_v = float(np.linalg.norm(P_V - P_Vh, 2))
        root_n = math.sqrt(N)
        assert _projector_distance(fac.Q[:, :R], fac_h.Q[:, :R]) == pytest.approx(
            n_u, rel=1e-12, abs=0.0)
        assert _projector_distance(fac.phis[:, :R] / root_n, fac_h.phis[:, :R] / root_n) \
            == pytest.approx(n_v, rel=1e-12, abs=0.0)
        allowed = (R / sigma_min) * dist
        max_u, max_v = max(max_u, n_u / allowed), max(max_v, n_v / allowed)
    rep = projector_lipschitz_harness(n_trials=n_trials, N=N, d=d, R=R, seed=seed)
    assert rep.max_ratio_U == pytest.approx(max_u, rel=1e-12, abs=0.0)
    assert rep.max_ratio_V == pytest.approx(max_v, rel=1e-12, abs=0.0)


def test_lipschitz_harness_builds_no_atoms_by_atoms_matrix():
    # One 3000 x 3000 projector is 69 MiB.
    tracemalloc.start()
    try:
        projector_lipschitz_harness(n_trials=2, N=3000, d=8, R=3, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def _combined_oracle(P_V, P_U):
    """Matrix of F -> F P_U + P_V F - P_V F P_U on row-major vec(F)."""
    I_N, I_d = np.eye(P_V.shape[0]), np.eye(P_U.shape[0])
    return np.kron(I_N, P_U) + np.kron(P_V, I_d) - np.kron(P_V, P_U)


def test_lipschitz_harness_combined_norm_matches_the_kronecker_svd():
    # The harness's closed form for the combined projector against the
    # 2-norm of the (N d) x (N d) Kronecker matrix, trial by trial, on
    # the harness's own trials.
    n_trials, N, d, R, seed = 25, 32, 8, 3, 0
    max_c = 0.0
    for trial in range(n_trials):
        sigma_min, dist, fac, fac_h = _harness_trial(seed, trial, N, d, R)
        P_U, P_Uh, P_V, P_Vh = _dense_projectors(fac, fac_h, N, R)
        n_u = float(np.linalg.norm(P_U - P_Uh, 2))
        n_v = float(np.linalg.norm(P_V - P_Vh, 2))
        closed = math.sqrt(n_u * n_u + n_v * n_v - n_u * n_u * n_v * n_v)
        oracle = float(
            np.linalg.norm(_combined_oracle(P_V, P_U) - _combined_oracle(P_Vh, P_Uh), 2)
        )
        assert closed == pytest.approx(oracle, rel=1e-12, abs=0.0)
        max_c = max(max_c, oracle / (3.0 * (R / sigma_min) * dist))
    rep = projector_lipschitz_harness(n_trials=n_trials, N=N, d=d, R=R, seed=seed)
    assert rep.max_ratio_combined == pytest.approx(max_c, rel=1e-12, abs=0.0)
