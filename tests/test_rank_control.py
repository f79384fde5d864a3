"""Explosion surveillance, truncation/restart, and the noise floor."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dosde import kernels, paths
from dosde.errors import NoFloorDeclared, ShapeMismatch
from dosde.integrators import DoState, StepReport, integrate
from dosde.models import builtin, default_initial, whiten
from dosde.rank_control import (
    ExplosionMonitor,
    RestartPolicy,
    detect_explosion,
    monitor_update,
    noise_floor_bound,
    truncate,
)


def _monitor(base_inv=1.0, base_y=1.0, n_max=8):
    return ExplosionMonitor(base_inv_norm=base_inv, base_Y_norm=base_y, n_max=n_max)


def test_monitor_crosses_integer_levels_once():
    mon = _monitor()
    assert monitor_update(mon, 0.0, 1.5, 1.0) == []
    new = monitor_update(mon, 0.1, 3.2, 1.0)
    assert [(c.n, c.which) for c in new] == [(1, "inv_norm"), (2, "inv_norm")]
    # already-crossed levels are not re-reported
    assert monitor_update(mon, 0.2, 3.9, 1.0) == []
    new = monitor_update(mon, 0.3, 4.1, 1.0)
    assert [(c.n, c.t) for c in new] == [(3, 0.3)]


def test_monitor_tracks_both_series():
    mon = _monitor()
    new = monitor_update(mon, 0.5, 2.0, 3.5)
    assert {(c.which, c.n) for c in new} == {("inv_norm", 1), ("y_norm", 1), ("y_norm", 2)}


def test_monitor_inf_jumps_to_cap():
    mon = _monitor(n_max=5)
    new = monitor_update(mon, 0.7, math.inf, 1.0)
    assert [c.n for c in new if c.which == "inv_norm"] == [1, 2, 3, 4, 5]


def test_monitor_labels_crossings_with_windows():
    mon = _monitor()
    args = (2, 6, 2.0, 1.0, 1.0)
    new = monitor_update(mon, 0.1, 3.0, 1.0, delta_args=args)
    assert len(new) == 2
    for c in new:
        assert c.delta_n == pytest.approx(
            kernels.picard_delta_n(c.n, 2, 6, 2.0, 1.0, 1.0), rel=1e-15
        )
    # windows shrink with the level
    assert new[1].delta_n < new[0].delta_n


def test_detect_explosion():
    rows = [
        StepReport(t=0.1, gauge_defect=0, ortho_defect=0, gram_inv_frobenius=2.0, lambda_min=1),
        StepReport(t=0.2, gauge_defect=0, ortho_defect=0, gram_inv_frobenius=50.0, lambda_min=1),
        StepReport(t=0.3, gauge_defect=0, ortho_defect=0, gram_inv_frobenius=math.inf, lambda_min=0),
    ]
    assert detect_explosion(rows, gamma_cap=40.0) == (True, 0.2)
    assert detect_explosion(rows, gamma_cap=1e6) == (True, 0.3)
    assert detect_explosion(rows[:1], gamma_cap=1e6) == (False, None)


def test_truncate_and_restart_planted_rank():
    rng = np.random.default_rng(0)
    base = rng.standard_normal(128)
    direction = np.array([3.0, 4.0, 0.0]) / 5.0
    X = np.outer(base, direction) + 1e-12 * rng.standard_normal((128, 3))
    state, event = truncate(DoState(t=0.5, U=np.eye(3), Y=X))
    discarded = event.discarded_mass
    assert state.rank == 1
    assert state.t == 0.5
    assert np.linalg.norm(state.U @ state.U.T - np.eye(1)) < 1e-12
    # reconstruction error is exactly the discarded spectral mass
    err_sq = float(np.mean(np.sum((state.Y @ state.U - X) ** 2, axis=1)))
    assert err_sq == pytest.approx(discarded, rel=1e-6, abs=1e-20)
    assert discarded < 1e-20


def test_truncate_zero_state():
    state, event = truncate(DoState(t=0.0, U=np.eye(3), Y=np.zeros((16, 3))))
    assert state is None
    assert event.new_rank == 0


@st.composite
def _planted_states(draw):
    d = draw(st.integers(1, 8))
    R = draw(st.integers(1, d))
    N = draw(st.integers(R + 2, 64))
    seed = draw(st.integers(0, 2**32 - 1))
    # Gram spectrum: a top eigenvalue 1, then modes far above or far
    # below the 1e-8 relative threshold (close pairs are allowed).
    exponents = [0.0] + draw(
        st.lists(st.floats(0.0, 6.0) | st.floats(10.0, 16.0), min_size=R - 1, max_size=R - 1)
    )
    max_rank = draw(st.none() | st.integers(1, R))
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((d, R)))[0].T
    rotation = np.linalg.qr(rng.standard_normal((R, R)))[0]
    Y = whiten(rng.standard_normal((N, R))) * np.sqrt(10.0 ** -np.array(exponents)) @ rotation
    return DoState(t=0.25, U=U, Y=Y), max_rank


@settings(max_examples=60, deadline=None)
@given(_planted_states())
def test_truncate_properties(case):
    state, max_rank = case
    new_state, event = truncate(state, max_rank=max_rank)
    assert event.old_rank == state.rank
    assert new_state is not None and new_state.rank == event.new_rank >= 1
    if max_rank is not None:
        assert new_state.rank <= max_rank
    U1 = new_state.U
    assert np.abs(U1 @ U1.T - np.eye(U1.shape[0])).max() < 1e-12
    # the truncation error is the square root of the discarded spectral mass
    err_sq = kernels.mean_sq_norm(new_state.product() - state.product())
    assert err_sq == pytest.approx(event.discarded_mass, rel=1e-10, abs=1e-14)
    # with clear eigen-gaps, rank and basis match the d x d second-moment path
    vals = event.singular_values
    keep = event.new_rank
    threshold = 1e-8 * np.sum(vals)
    edges = np.append(vals[:keep], vals[keep] if keep < len(vals) else -np.inf)
    if np.all(-np.diff(edges) > 1e-6 * vals[0]) and np.all(np.abs(vals - threshold) > 1e-6 * threshold):
        fac = kernels.second_moment_svd(state.product(), rel_threshold=1e-8)
        assert min(fac.rank, max_rank or fac.rank) == keep
        np.testing.assert_allclose(U1.T, fac.Q[:, :keep], atol=1e-8)


def test_restart_policy_full_cycle_on_planted_collapse():
    model = builtin("mode_crossing", t_star=1.0, d=4)
    init = default_initial(model, N=64, R=2, seed=0)
    n = int(round(model.horizon / 1e-3))
    path = paths.generate(23, n, 1e-3, 64, model.m)
    policy = RestartPolicy(model)
    traj = integrate(model, init, "do", model.horizon, 1e-3, path, policy=policy)
    assert traj.completed
    assert policy.restarts == 1
    assert len(traj.events) == 1
    ev = traj.events[0]
    assert ev.old_rank == 2 and ev.new_rank == 1
    assert ev.t_event == pytest.approx(1.0, abs=1e-9)
    assert ev.inv_norm_at_event == math.inf
    assert ev.discarded_mass <= 1e-20
    # the spectrum is recorded non-increasing
    assert np.all(np.diff(ev.singular_values) <= 0)
    # crossings were recorded monotonically in time before the event
    inv = [c for c in policy.crossings if c.which == "inv_norm"]
    assert len(inv) >= 5
    assert all(a.t <= b.t for a, b in zip(inv, inv[1:]))
    assert all(c.t <= 1.0 for c in inv)
    # after the event the run continues at the reduced rank to the horizon
    assert traj.states[-1].rank == 1
    assert traj.states[-1].t == pytest.approx(model.horizon)


def test_restart_policy_detects_explosion_from_diag():
    model = builtin("mode_crossing", t_star=1.0, d=4)
    init = default_initial(model, N=64, R=2, seed=0)
    n = int(round(model.horizon / 1e-3))
    path = paths.generate(23, n, 1e-3, 64, model.m)
    policy = RestartPolicy(model)
    traj = integrate(model, init, "do", model.horizon, 1e-3, path, policy=policy)
    exploded, t_first = detect_explosion(traj.diag, policy.gamma_cap)
    assert exploded
    assert t_first == pytest.approx(1.0, abs=1e-9)


def test_restart_policy_budget_exhaustion():
    model = builtin("mode_crossing")
    policy = RestartPolicy(model, max_restarts=0)
    rng = np.random.default_rng(1)
    Y = rng.standard_normal((32, 2))
    U = np.eye(2, 4)
    state = DoState(t=0.25, U=U, Y=Y)
    policy.attach(state)
    new_state, event = policy.restart(state)
    assert new_state is None
    assert event.t_event == 0.25
    # a halt reports the untruncated spectrum and the measured inverse norm
    assert event.old_rank == event.new_rank == 2
    assert event.inv_norm_at_event == kernels.gram(Y).inv_frobenius


@pytest.mark.parametrize("scheme", ["reference", "ambient"])
def test_policy_needs_the_do_scheme(scheme):
    model = builtin("ou", d=4)
    init = default_initial(model, N=16, R=2, seed=0)
    path = paths.generate(0, 5, 0.01, 16, model.m)
    with pytest.raises(ShapeMismatch):
        integrate(model, init, scheme, 0.05, 0.01, path, policy=RestartPolicy(model))


def test_restart_policy_forces_rank_reduction():
    # when the spectrum is healthy, truncation alone keeps the rank;
    # the policy must still shrink it to avoid an immediate re-trigger
    model = builtin("ou", d=4)
    init = default_initial(model, N=64, R=2, seed=3)
    state = DoState(t=0.1, U=init.U, Y=init.Y)
    policy = RestartPolicy(model)
    policy.attach(state)
    new_state, event = policy.restart(state)
    assert new_state is not None
    assert new_state.rank == 1
    assert event.old_rank == 2 and event.new_rank == 1
    assert event.discarded_mass > 0


def test_noise_floor_bound():
    model = builtin("additive_floor")
    bounds = kernels.well_posedness_bounds(2, 2, math.sqrt(3), 1.0, 1.0, 2.0, model.C_lgb)
    floor = noise_floor_bound(model, bounds, sigma_Y0=0.8)
    expect = model.sigma_B**2 / (4.0 * model.C_lgb * (1.0 + bounds.M_T))
    assert floor == pytest.approx(min(0.8, expect), rel=1e-15)
    nofloor = builtin("mode_crossing")
    with pytest.raises(NoFloorDeclared):
        noise_floor_bound(nofloor, bounds, sigma_Y0=0.8)
