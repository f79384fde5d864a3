"""Estimators and certification harnesses."""

import math

import numpy as np
import pytest

from dosde import kernels, paths
from dosde.errors import InsufficientData, InvalidEnsemble, ShapeMismatch
from dosde.integrators import integrate
from dosde.models import builtin, default_initial
from dosde.diagnostics import (
    _planted_rank_R,
    _truncate_rank,
    holder_estimator,
    l2_distance,
    moment_estimator,
    projector_lipschitz_harness,
    rotation_equivariance_check,
)


def test_l2_distance_hand_value():
    A = np.array([[3.0, 0.0], [0.0, 0.0]])
    B = np.zeros((2, 2))
    # sqrt(mean(|3 e_1|^2, 0)) = sqrt(4.5)
    assert l2_distance(A, B) == pytest.approx(math.sqrt(4.5), rel=1e-15)
    with pytest.raises(ShapeMismatch):
        l2_distance(A, np.zeros((3, 2)))


def _short_run(scheme="do", N=64, n=50):
    model = builtin("ou", kappa=1.0, sigma=0.5, d=4)
    init = default_initial(model, N=N, R=2, seed=3)
    path = paths.generate(9, n, 1e-3, N, model.m)
    return model, init, path, integrate(model, init, scheme, n * 1e-3, 1e-3, path)


def test_equivariance_identity_is_exact():
    model, init, path, _ = _short_run()
    rep = rotation_equivariance_check(model, init.U, init.Y, np.eye(2), path, 0.05, 1e-3)
    assert rep.sup_product_defect == 0.0
    assert rep.sup_U_defect == 0.0
    assert rep.sup_Y_defect == 0.0


def test_equivariance_rejects_nonorthogonal():
    model, init, path, _ = _short_run()
    with pytest.raises(InvalidEnsemble):
        rotation_equivariance_check(
            model, init.U, init.Y, np.array([[1.0, 0.1], [0.0, 1.0]]), path, 0.05, 1e-3
        )
    with pytest.raises(ShapeMismatch):
        rotation_equivariance_check(model, init.U, init.Y, np.eye(3), path, 0.05, 1e-3)


def test_equivariance_proper_rotation_small_defect():
    model, init, path, _ = _short_run()
    c, s = math.cos(0.7), math.sin(0.7)
    theta = np.array([[c, -s], [s, c]])
    rep = rotation_equivariance_check(model, init.U, init.Y, theta, path, 0.05, 1e-3)
    assert rep.sup_product_defect < 1e-12


def test_moment_estimator_tracks_and_matches_product():
    _, _, _, traj = _short_run()
    ms = moment_estimator(traj, k=1)
    assert ms.times.shape == ms.values.shape
    assert ms.times[0] == 0.0
    assert np.all(ms.values > 0)
    # coefficient moments equal product moments: the basis is orthonormal
    assert ms.xy_discrepancy < 1e-12
    with pytest.raises(InvalidEnsemble):
        moment_estimator(traj, k=0)


def test_moment_estimator_on_a_full_state_run():
    _, _, _, traj = _short_run("reference")
    ms = moment_estimator(traj, k=2)
    X = traj.states[-1].X
    assert ms.values[-1] == pytest.approx(np.mean(np.sum(X**2, axis=1) ** 2), rel=1e-13)
    assert ms.xy_discrepancy == 0.0
    assert list(ms.times) == traj.times


def test_moment_estimator_constant_on_frozen_dynamics():
    # zero drift/diffusion via a crafted trajectory: reuse the initial
    # state as every snapshot
    _, init, _, traj = _short_run()
    frozen = type(traj)(
        scheme="do",
        times=[0.0, 0.1],
        states=[traj.states[0], traj.states[0]],
        diag=[],
        events=[],
        completed=True,
    )
    ms = moment_estimator(frozen, k=2)
    assert ms.values[0] == ms.values[1]


def test_holder_estimator_on_brownian_like_run():
    model = builtin("additive_floor")
    N = 1024
    init = default_initial(model, N=N, R=2, seed=9)
    path = paths.generate(13, 500, 1e-3, N, model.m)
    traj = integrate(model, init, "reference", 0.5, 1e-3, path)
    fit = holder_estimator(traj, k=1)
    assert 0.9 <= fit.slope <= 1.3
    assert len(fit.gaps) >= 4


def test_holder_estimator_guards():
    model, init, path, traj = _short_run(n=50)
    with pytest.raises(InsufficientData):
        holder_estimator(traj, k=1, gaps=[1e-3])  # below the 4-step floor
    with pytest.raises(InsufficientData):
        holder_estimator(traj, k=1, gaps=[0.0375, 0.04, 0.0425, 0.045, 3.0])
    short = type(traj)(
        scheme="do", times=[0.0], states=[traj.states[0]], diag=[], events=[], completed=True
    )
    with pytest.raises(InsufficientData):
        holder_estimator(short, k=1)


def test_lipschitz_harness_small_batch():
    rep = projector_lipschitz_harness(n_trials=25, N=16, d=6, R=2, seed=7)
    assert rep.n_trials == 25
    assert 0.0 < rep.max_ratio_U <= 1.0
    assert 0.0 < rep.max_ratio_V <= 1.0
    assert 0.0 < rep.max_ratio_combined <= 1.0


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
        rng = np.random.Generator(paths.philox(seed, trial))
        X, sigma_min = _planted_rank_R(rng, N, d, R)
        eps = 0.4 * rng.uniform(0.1, 1.0) * sigma_min / R
        D = rng.standard_normal((N, d))
        D /= math.sqrt(kernels.mean_sq_norm(D))
        Xhat = _truncate_rank(X + eps * D, R)
        dist = math.sqrt(kernels.mean_sq_norm(X - Xhat))
        fac, fac_h = kernels.second_moment_svd(X), kernels.second_moment_svd(Xhat)
        P_U, P_Uh = fac.Q[:, :R] @ fac.Q[:, :R].T, fac_h.Q[:, :R] @ fac_h.Q[:, :R].T
        P_V = fac.phis[:, :R] @ fac.phis[:, :R].T / N
        P_Vh = fac_h.phis[:, :R] @ fac_h.phis[:, :R].T / N
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
