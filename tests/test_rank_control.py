"""Explosion surveillance, truncation/restart, and the noise floor."""

import math

import numpy as np
import pytest

from dosde import kernels, paths
from dosde.errors import NoFloorDeclared, ZeroState
from dosde.integrators import DoState, StepReport, integrate
from dosde.models import builtin, default_initial
from dosde.rank_control import (
    ExplosionMonitor,
    RestartPolicy,
    detect_explosion,
    monitor_update,
    noise_floor_bound,
    truncate_and_restart,
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
    state, fac, discarded = truncate_and_restart(0.5, X)
    assert state.rank == 1
    assert state.t == 0.5
    assert np.linalg.norm(state.U @ state.U.T - np.eye(1)) < 1e-12
    # reconstruction error is exactly the discarded spectral mass
    err_sq = float(np.mean(np.sum((state.Y @ state.U - X) ** 2, axis=1)))
    assert err_sq == pytest.approx(discarded, rel=1e-6, abs=1e-20)
    assert discarded < 1e-20


def test_truncate_zero_state():
    with pytest.raises(ZeroState):
        truncate_and_restart(0.0, np.zeros((16, 3)))


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
