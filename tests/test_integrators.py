"""Steppers and the driver: hand oracles, invariants, grid validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dosde import kernels, paths
from dosde.errors import NonFiniteState, RankDeficient, ShapeMismatch, SingularGram
from dosde.integrators import (
    DoState,
    FullState,
    _apply_diffusion,
    integrate,
    step_ambient_dlra,
    step_do,
    step_reference,
)
from dosde.models import InitialDatum, builtin, default_initial, whiten
from dosde.diagnostics import l2_distance


def _ou_state(N=64, d=3, seed=0):
    model = builtin("ou", kappa=1.5, sigma=0.4, d=d)
    X = np.random.default_rng(seed).standard_normal((N, d))
    return model, FullState(t=0.0, X=X)


def test_reference_step_matches_hand_euler():
    # independent reimplementation of the same update
    model, state = _ou_state()
    dW = paths.generate(11, 1, 0.01, 64, model.m).increments[0]
    new, _ = step_reference(model, state, dW, 0.01)
    hand = state.X + (-1.5 * state.X) * 0.01 + 0.4 * dW
    assert np.allclose(new.X, hand, atol=1e-15)
    assert new.t == 0.01


def test_reference_step_shape_guard():
    model, state = _ou_state()
    with pytest.raises(ShapeMismatch):
        step_reference(model, state, np.zeros((64, 5)), 0.01)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_reference_step_flags_nonfinite():
    model, state = _ou_state()
    state.X[0, 0] = np.inf
    with pytest.raises(NonFiniteState):
        step_reference(model, state, np.zeros((64, 3)), 0.01)


def test_do_step_retraction_invariants():
    model = builtin("additive_floor")
    init = default_initial(model, N=128, R=1, seed=3)
    state = DoState(t=0.0, U=init.U, Y=init.Y)
    dW = paths.generate(4, 1, 0.01, 128, model.m).increments[0]
    new, rep = step_do(model, state, dW, 0.01)
    # rows stay orthonormal after retraction
    assert np.linalg.norm(new.U @ new.U.T - np.eye(1)) < 1e-14
    # the pre-retraction defect the QR repaired is O(dt^2)
    assert rep.ortho_defect < 1e-3 * 0.01
    assert rep.gauge_defect < 1e-3 * 0.01
    assert rep.lambda_min > 0.9  # whitened coefficients start near identity


def test_do_gauge_defect_quadratic_in_dt():
    model = builtin("additive_floor")
    init = default_initial(model, N=128, R=1, seed=3)
    state = DoState(t=0.0, U=init.U, Y=init.Y)
    defects = []
    for dt in (0.02, 0.01, 0.005):
        dW = paths.generate(4, 1, dt, 128, model.m).increments[0]
        _, rep = step_do(model, state, dW, dt)
        defects.append(rep.gauge_defect)
    assert defects[0] / defects[1] == pytest.approx(4.0, rel=0.05)
    assert defects[1] / defects[2] == pytest.approx(4.0, rel=0.05)


def test_do_step_product_survives_retraction():
    # folding the triangular factor into Y keeps U^T Y unchanged
    model = builtin("ou", kappa=1.0, sigma=0.5, d=4)
    init = default_initial(model, N=64, R=2, seed=1)
    state = DoState(t=0.0, U=init.U, Y=init.Y)
    dW = paths.generate(8, 1, 0.01, 64, model.m).increments[0]

    # recompute the unretracted update by hand
    X = state.Y @ state.U
    a = model.drift(0.0, X)
    b = model.diffusion(0.0, X)
    Y1_pre = state.Y + (a @ state.U.T) * 0.01 + (dW @ b.T) @ state.U.T

    new, _ = step_do(model, state, dW, 0.01)
    assert np.allclose(new.Y @ new.U, Y1_pre @ state.U, atol=1e-13)


def test_do_step_raises_on_singular_gram():
    model = builtin("ou", d=3)
    y = np.random.default_rng(2).standard_normal(32)
    Y = np.column_stack([y, 2.0 * y])  # dependent columns
    U = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 2)))[0].T
    state = DoState(t=0.0, U=U, Y=Y)
    with pytest.raises(SingularGram) as err:
        step_do(model, state, np.zeros((32, 3)), 0.01)
    assert err.value.report is not None
    assert err.value.report.inv_frobenius == math.inf


def test_ambient_step_rank_guard():
    model = builtin("ou", d=3)
    base = np.random.default_rng(4).standard_normal(32)
    X = np.outer(base, [1.0, 0.0, 0.0])  # exactly rank 1
    with pytest.raises(RankDeficient):
        step_ambient_dlra(model, FullState(t=0.0, X=X), np.zeros((32, 3)), 0.01, R=2)


def test_do_and_ambient_coincide_on_invariant_span():
    # when the initial span is invariant for the dynamics the two
    # factored schemes and plain EM all produce the same ensemble
    model = builtin("linear_lowrank")
    init = default_initial(model, N=128, R=2, seed=5)
    path = paths.generate(6, 50, 1e-3, 128, model.m)
    td = integrate(model, init, "do", 0.05, 1e-3, path)
    ta = integrate(model, init, "ambient", 0.05, 1e-3, path, R=2)
    tr = integrate(model, init, "reference", 0.05, 1e-3, path)
    for sd, sa, sr in zip(td.states, ta.states, tr.states):
        assert l2_distance(sd.product(), sa.X) < 1e-12
        assert l2_distance(sd.product(), sr.X) < 1e-12


# ---------------------------------------------------------------- integrate driver


def test_integrate_grid_validation():
    model = builtin("ou", d=2)
    init = default_initial(model, N=16, R=2, seed=0)
    path = paths.generate(0, 10, 1e-2, 16, model.m)
    with pytest.raises(ShapeMismatch):
        integrate(model, init, "do", 0.105, 1e-2, path)  # not a multiple
    with pytest.raises(ShapeMismatch):
        integrate(model, init, "do", 0.2, 1e-2, path)  # path too short
    with pytest.raises(ShapeMismatch):
        integrate(model, init, "do", 0.1, 5e-3, path)  # dt mismatch
    with pytest.raises(ShapeMismatch):
        integrate(model, init, "nope", 0.1, 1e-2, path)
    bad_atoms = paths.generate(0, 10, 1e-2, 8, model.m)
    with pytest.raises(ShapeMismatch):
        integrate(model, init, "do", 0.1, 1e-2, bad_atoms)


def test_integrate_needs_factored_for_do():
    model = builtin("ou", d=2)
    X = np.random.default_rng(1).standard_normal((16, 2))
    init = InitialDatum(X=X)
    path = paths.generate(0, 10, 1e-2, 16, model.m)
    with pytest.raises(ShapeMismatch):
        integrate(model, init, "do", 0.1, 1e-2, path)
    # but reference accepts it
    traj = integrate(model, init, "reference", 0.1, 1e-2, path)
    assert traj.completed


def test_integrate_record_stride_and_exact_times():
    model = builtin("ou", d=2)
    init = default_initial(model, N=16, R=2, seed=0)
    path = paths.generate(0, 100, 1e-3, 16, model.m)
    traj = integrate(model, init, "do", 0.1, 1e-3, path, record_stride=30)
    # snapshots at 0, 30, 60, 90 steps plus the forced final state
    assert [s.t for s in traj.states] == [0.0, 30 * 1e-3, 60 * 1e-3, 90 * 1e-3, 100 * 1e-3]
    assert traj.times == [s.t for s in traj.states]
    assert len(traj.diag) == 100
    # the grid is exact: time k*dt is computed, not accumulated
    assert traj.diag[-1].t == 100 * 1e-3


def test_integrate_reference_diag_is_inert():
    model = builtin("ou", d=2)
    init = default_initial(model, N=16, R=2, seed=0)
    path = paths.generate(0, 5, 1e-2, 16, model.m)
    traj = integrate(model, init, "reference", 0.05, 1e-2, path)
    assert all(math.isnan(row.gram_inv_frobenius) for row in traj.diag)


def test_em_strong_rate_additive_noise():
    # dyadic self-difference at a common Brownian path: order one for
    # additive noise (rates calibrated once and pinned with a window)
    model = builtin("ou")
    init = default_initial(model, N=2048, R=model.d, seed=2)
    T = 0.5
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        n = int(round(T / dt))
        lvl = int(round(math.log2(dt / 5e-4)))
        pa = paths.generate(31, n, dt, 2048, model.m, level=lvl)
        pb = paths.generate(31, 2 * n, dt / 2, 2048, model.m, level=lvl - 1)
        ta = integrate(model, init, "reference", T, dt, pa)
        tb = integrate(model, init, "reference", T, dt / 2, pb)
        errs.append(l2_distance(ta.states[-1].X, tb.states[-1].X))
    rates = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(0.85 <= r <= 1.15 for r in rates), rates


def test_em_strong_rate_multiplicative_noise():
    # same experiment with state-dependent diffusion: order one half
    model = builtin("gbm_clipped")
    init = default_initial(model, N=2048, R=model.d, seed=2)
    T = 0.5
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        n = int(round(T / dt))
        lvl = int(round(math.log2(dt / 5e-4)))
        pa = paths.generate(31, n, dt, 2048, model.m, level=lvl)
        pb = paths.generate(31, 2 * n, dt / 2, 2048, model.m, level=lvl - 1)
        ta = integrate(model, init, "reference", T, dt, pa)
        tb = integrate(model, init, "reference", T, dt / 2, pb)
        errs.append(l2_distance(ta.states[-1].X, tb.states[-1].X))
    rates = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(0.40 <= r <= 0.65 for r in rates), rates


def test_integrate_without_policy_halts_at_singularity():
    model = builtin("mode_crossing")
    init = default_initial(model, N=64, R=2, seed=0)
    n = int(round(1.2 / 1e-3))
    path = paths.generate(23, n, 1e-3, 64, model.m)
    traj = integrate(model, init, "do", 1.2, 1e-3, path)
    assert not traj.completed
    assert len(traj.events) == 1
    assert traj.events[0].t_event == pytest.approx(1.0, abs=1e-9)
    # the recorded diagnostics end with the inversion failure row
    assert traj.diag[-1].gram_inv_frobenius == math.inf


# ---------------------------------------------------------------- properties


@st.composite
def _do_cases(draw):
    d = draw(st.integers(2, 8))
    R = draw(st.integers(1, d))
    N = draw(st.integers(R + 2, 64))
    name = draw(st.sampled_from(["additive_floor", "gbm_clipped", "ou"]))
    return builtin(name, d=d), N, R, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(_do_cases())
def test_do_step_retraction_properties(case):
    # U stays orthonormal, and the retraction leaves U^T Y as the
    # unretracted update left it: Y+ U+ == Y_pre U_raw per atom
    model, N, R, seed = case
    init = default_initial(model, N, R, seed=seed)
    state = DoState(t=0.0, U=init.U, Y=init.Y)
    dt = 0.01
    dW = paths.generate(seed, 1, dt, N, model.m).increments[0]
    U, Y = state.U, state.Y
    X = Y @ U
    a = model.drift(0.0, X)
    G = kernels.mean_outer(Y, a)
    U_raw = U + dt * (kernels.gram(Y).inverse @ (G - (G @ U.T) @ U))
    Y_pre = Y + (a @ U.T) * dt + _apply_diffusion(U @ model.diffusion(0.0, X), dW)

    new, rep = step_do(model, state, dW, dt)
    assert np.linalg.norm(new.U @ new.U.T - np.eye(R)) < 1e-13
    expect = Y_pre @ U_raw
    assert np.max(np.abs(new.Y @ new.U - expect)) <= 1e-12 * max(1.0, np.max(np.abs(expect)))
    assert rep.t == dt


@settings(max_examples=30, deadline=None)
@given(
    scheme=st.sampled_from(["do", "ambient", "reference"]),
    n_steps=st.integers(1, 30),
    stride=st.integers(1, 40),
)
def test_integrate_records_stride_multiples_and_final(scheme, n_steps, stride):
    model = builtin("ou", d=3)
    init = default_initial(model, N=16, R=2, seed=0)
    dt = 1e-2
    path = paths.generate(0, n_steps, dt, 16, model.m)
    traj = integrate(model, init, scheme, n_steps * dt, dt, path, record_stride=stride, R=2)
    kept = [k for k in range(1, n_steps + 1) if k % stride == 0 or k == n_steps]
    assert traj.completed
    assert traj.times == [0.0] + [k * dt for k in kept]
    assert [s.t for s in traj.states] == traj.times
    assert len(traj.diag) == n_steps
    assert [row.t for row in traj.diag] == [k * dt for k in range(1, n_steps + 1)]
