"""Explosion surveillance, truncation/restart, and the noise floor."""

import math
import tracemalloc

import numpy as np
import pytest
from conftest import hadamard_columns, same_bits, spectral_ensembles
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dosde import kernels, paths
from dosde.errors import InvalidBoundInput, ShapeMismatch
from dosde.integrators import DoState, StepReport, integrate
from dosde.models import builtin, default_initial, whiten
from dosde.rank_control import RankEvent, RestartPolicy, truncate


def _policy(n_max=8):
    """A policy attached to a rank-1 state in R^3 with ||C_Y^-1||_F =
    E|Y|^2 = 1, so both monitored series start at base 1."""
    policy = RestartPolicy(builtin("ou", d=3), n_max=n_max)
    Y = np.array([[1.0], [-1.0]] * 8)
    policy.attach(DoState(t=0.0, U=np.eye(1, 3), Y=Y))
    return policy


def _observe(policy, t, inv_norm, y_norm=1.0):
    """Feed one step report and a state whose sqrt(E|Y|^2) is ``y_norm``;
    returns the new crossings and the explosion verdict."""
    before = len(policy.crossings)
    report = StepReport(t, 0.0, 0.0, inv_norm, 1.0)
    state = DoState(t=t, U=np.eye(1, 3), Y=np.full((16, 1), y_norm))
    exploded = policy.observe(report, state)
    return policy.crossings[before:], exploded


def test_monitor_crosses_integer_levels_once():
    policy = _policy()
    assert _observe(policy, 0.0, 1.5)[0] == []
    new, _ = _observe(policy, 0.1, 3.2)
    assert [(c.n, c.which) for c in new] == [(1, "inv_norm"), (2, "inv_norm")]
    # already-crossed levels are not re-reported
    assert _observe(policy, 0.2, 3.9)[0] == []
    new, _ = _observe(policy, 0.3, 4.1)
    assert [(c.n, c.t) for c in new] == [(3, 0.3)]
    # a restart re-attaches: levels count again from the new state's base
    Y = np.random.default_rng(0).standard_normal((16, 2))
    new_state, _ = policy.restart(DoState(t=0.4, U=np.eye(2, 3), Y=Y))
    base = kernels.gram(new_state.Y).inv_frobenius
    assert policy.gamma_cap == policy.cap_factor * base
    new, _ = _observe(policy, 0.5, base + 1.5)
    assert [(c.n, c.which) for c in new] == [(1, "inv_norm")]


def test_monitor_tracks_both_series():
    policy = _policy()
    new, _ = _observe(policy, 0.5, 2.0, 3.5)
    assert {(c.which, c.n) for c in new} == {("inv_norm", 1), ("y_norm", 1), ("y_norm", 2)}


def test_monitor_inf_jumps_to_cap():
    policy = _policy(n_max=5)
    new, exploded = _observe(policy, 0.7, math.inf)
    assert [c.n for c in new if c.which == "inv_norm"] == [1, 2, 3, 4, 5]
    assert exploded


def test_monitor_labels_crossings_with_windows():
    policy = _policy()
    new, _ = _observe(policy, 0.1, 3.0)
    assert len(new) == 2
    C_lgb = policy.model.C_lgb
    for c in new:
        assert c.delta_n == pytest.approx(
            kernels.picard_delta_n(c.n, 1, 3, C_lgb, 1.0, 1.0), rel=1e-15
        )
    # windows shrink with the level
    assert new[1].delta_n < new[0].delta_n


def test_observe_flags_explosion_at_cap_and_inf():
    policy = _policy()
    assert policy.gamma_cap == 1e8  # default factor x the base norm 1
    assert _observe(policy, 0.1, 2.0)[1] is False
    assert _observe(policy, 0.2, 1e8 * (1 - 1e-15))[1] is False
    assert _observe(policy, 0.3, 1e8)[1] is True
    assert _observe(policy, 0.4, 5e8)[1] is True
    assert _observe(policy, 0.5, math.inf)[1] is True
    assert _observe(policy, 0.6, math.nan)[1] is True
    # the verdict reads the inverse norm only, not the ensemble norm
    assert _observe(policy, 0.7, 2.0, y_norm=1e9)[1] is False


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


def test_truncate_forms_no_ensemble():
    # Y' = X Q is taken as Y (U Q): the N x d product is never built.
    N, d, R = 2048, 4096, 2
    rng = np.random.default_rng(5)
    U = np.linalg.qr(rng.standard_normal((d, R)))[0].T
    state = DoState(t=0.5, U=U, Y=rng.standard_normal((N, R)))
    tracemalloc.start()
    try:
        new_state, _ = truncate(state, max_rank=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert new_state.rank == 1
    assert peak < N * d * 8 / 8


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


def _direct_truncate(state, sv_tolerance, max_rank=None):
    """Reference for truncate that sorts and cuts the Gram spectrum
    itself, without ``kernels.leading_modes``."""
    rep = kernels.gram(state.Y)
    order = np.argsort(-rep.eigenvalues, kind="stable")
    vals, V = rep.eigenvalues[order], rep.eigenvectors[:, order]
    trace = float(np.trace(rep.gram))
    keep = int(np.count_nonzero(vals > sv_tolerance * max(trace, 0.0)))
    if max_rank is not None:
        keep = min(keep, max_rank)
    event = RankEvent(
        t_event=state.t,
        singular_values=vals,
        old_rank=state.rank,
        new_rank=keep,
        discarded_mass=kernels.mean_sq_norm(state.Y @ V[:, keep:]),
        inv_norm_at_event=rep.inv_frobenius,
    )
    if keep == 0:
        return None, event
    Q = kernels.fix_signs(state.U.T @ V[:, :keep])
    return DoState(t=state.t, U=Q.T.copy(), Y=state.Y @ (state.U @ Q)), event


@given(
    spectral_ensembles(),
    st.integers(0, 4),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1e-10, 1e-8, 1e-3, 0.05, 0.3]),
    st.none() | st.integers(0, 12),
)
@example(hadamard_columns(3, [1.0, 2.0, 1.0, 4.0, 2.0, 1.0]), 2, 0, 1e-8, None)
@settings(max_examples=150, deadline=None)
def test_truncate_matches_the_direct_sort_bit_for_bit(Y, extra_dims, seed, sv_tolerance, max_rank):
    # leading_modes gives truncate the same modes, in the same order
    # (exact ties included), and so the same state and event, to the bit.
    R = Y.shape[1]
    U = np.linalg.qr(np.random.default_rng(seed).standard_normal((R + extra_dims, R)))[0].T
    state = DoState(t=0.375, U=U, Y=Y)
    got, got_event = truncate(state, sv_tolerance, max_rank=max_rank)
    ref, ref_event = _direct_truncate(state, sv_tolerance, max_rank=max_rank)
    for field in ("t_event", "singular_values", "old_rank", "new_rank",
                  "discarded_mass", "inv_norm_at_event"):
        assert same_bits(getattr(got_event, field), getattr(ref_event, field)), field
    assert (got is None) == (ref is None)
    if got is not None:
        assert got.t == ref.t
        assert same_bits(got.U, ref.U)
        assert same_bits(got.Y, ref.Y)


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
    # the first rank event is the first step report the policy judged
    # exploded: here the singular Gram at the planted collinearity
    first = next(r.t for r in traj.diag if not math.isfinite(r.gram_inv_frobenius))
    assert traj.events[0].t_event == first
    assert first == pytest.approx(1.0, abs=1e-9)
    assert all(r.gram_inv_frobenius < 1e8 * traj.diag[0].gram_inv_frobenius
               for r in traj.diag if r.t < first)


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


def test_restart_policy_refactors_rank_one_at_cap():
    # No smaller rank exists, but the Gram is invertible: re-factor at
    # rank 1 and spend one restart; with no budget left, halt.
    model = builtin("ou", d=4)
    init = default_initial(model, N=64, R=1, seed=3)
    state = DoState(t=0.1, U=init.U, Y=init.Y)
    policy = RestartPolicy(model, max_restarts=1)
    policy.attach(state)
    new_state, event = policy.restart(state)
    assert new_state is not None and new_state.rank == 1
    assert event.old_rank == event.new_rank == 1
    assert policy.restarts == 1
    np.testing.assert_allclose(new_state.product(), state.product(), rtol=1e-12, atol=1e-14)
    halted, event = policy.restart(new_state)
    assert halted is None and event.new_rank == 1


def test_restart_policy_restarts_a_resumed_state_with_a_singular_gram():
    # A resumed state (t > 0) may start with a singular Gram: the window
    # is then undefined, logged as NaN, and the first step restarts.
    model = builtin("ou", d=4)
    init = default_initial(model, N=64, R=2, seed=3)
    state = DoState(t=0.5, U=init.U, Y=init.Y[:, [0, 0]])
    policy = RestartPolicy(model)
    policy.attach(state)
    assert policy.observe(StepReport(0.5, 0.0, 0.0, 2.0, 1.0), state) is False
    assert policy.crossings == []
    path = paths.generate(0, 60, 1e-2, 64, model.m)
    policy = RestartPolicy(model)
    traj = integrate(model, state, "do", 0.6, 1e-2, path, policy=policy)
    assert traj.completed and traj.states[-1].rank == 1
    assert [(e.t_event, e.old_rank, e.new_rank) for e in traj.events] == [(0.5, 2, 1)]
    assert {math.isnan(c.delta_n) for c in policy.crossings if c.t == 0.5} == {True}


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
    floor = kernels.noise_floor_bound(model.sigma_B, model.C_lgb, bounds.M_T, sigma_Y0=0.8)
    expect = model.sigma_B**2 / (4.0 * model.C_lgb * (1.0 + bounds.M_T))
    assert floor == pytest.approx(min(0.8, expect), rel=1e-15)
    nofloor = builtin("mode_crossing")
    with pytest.raises(InvalidBoundInput, match="sigma_B"):
        kernels.noise_floor_bound(nofloor.sigma_B, nofloor.C_lgb, bounds.M_T, sigma_Y0=0.8)
