"""Steppers and the driver: hand oracles, invariants, grid validation."""

import dataclasses
import functools
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dosde import kernels, paths
from dosde.cli import _log_simd
from dosde.errors import (
    InvalidEnsemble,
    NonFiniteState,
    RankDeficient,
    ShapeMismatch,
    SingularGram,
)
from dosde.integrators import (
    DoState,
    FullState,
    _atom_terms,
    _noise,
    _qr_retract,
    integrate,
    step_ambient_dlra,
    step_do,
    step_reference,
)
from dosde.models import builtin, default_initial, whiten
from dosde.diagnostics import l2_distance
from dosde.picard import picard_local_solve


def _dense_b(model, X, t=0.0):
    """b(t, X) as a matrix: the constant (d, m) one, or, for a diagonal
    form, the zero-filled (N, d, d) stack with each atom's diagonal."""
    b = model.diffusion(t, X)
    if not model.diagonal_noise:
        return b
    dense = np.zeros(b.shape + (model.d,))
    idx = np.arange(model.d)
    dense[:, idx, idx] = b
    return dense


def _dense_twin(model):
    """The same model with its diagonal b handed over as the (N, d, d)
    stack, which the steppers apply as one matvec per atom."""
    if not model.diagonal_noise:
        return model
    return dataclasses.replace(
        model, diffusion=lambda t, x: _dense_b(model, x, t), diagonal_noise=False
    )


def _ou_state(N=64, d=3, seed=0):
    model = builtin("ou", kappa=1.5, sigma=0.4, d=d)
    X = np.random.default_rng(seed).standard_normal((N, d))
    return model, FullState(t=0.0, X=X)


def test_reference_step_matches_hand_euler():
    # independent reimplementation of the same update
    model, state = _ou_state()
    dW = paths.generate(11, 1, 0.01, 64, model.m).increment(0)
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
    dW = paths.generate(4, 1, 0.01, 128, model.m).increment(0)
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
        dW = paths.generate(4, 1, dt, 128, model.m).increment(0)
        _, rep = step_do(model, state, dW, dt)
        defects.append(rep.gauge_defect)
    assert defects[0] / defects[1] == pytest.approx(4.0, rel=0.05)
    assert defects[1] / defects[2] == pytest.approx(4.0, rel=0.05)


def test_do_step_product_survives_retraction():
    # folding the triangular factor into Y keeps U^T Y unchanged
    model = builtin("ou", kappa=1.0, sigma=0.5, d=4)
    init = default_initial(model, N=64, R=2, seed=1)
    state = DoState(t=0.0, U=init.U, Y=init.Y)
    dW = paths.generate(8, 1, 0.01, 64, model.m).increment(0)

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


def _factored_or_full(scheme):
    """An OU model, a stepper of ``scheme`` and a rank-2 state it takes."""
    model = builtin("ou", kappa=1.0, sigma=0.5, d=3)
    init = default_initial(model, N=32, R=2, seed=4)
    if scheme == "do":
        return model, step_do, init
    return model, functools.partial(step_ambient_dlra, R=2), FullState(t=0.0, X=init.product())


@pytest.mark.parametrize("scheme", ["do", "ambient"])
def test_factored_steps_reject_a_wrong_shape_increment(scheme):
    model, step, state = _factored_or_full(scheme)
    with pytest.raises(ShapeMismatch, match="dW shape"):
        step(model, state, np.zeros((32, model.m + 1)), 0.01)
    with pytest.raises(ShapeMismatch, match="dW shape"):
        step(model, state, np.zeros((31, model.m)), 0.01)


@pytest.mark.filterwarnings("ignore:invalid value encountered", "ignore:overflow encountered")
@pytest.mark.parametrize("scheme", ["do", "ambient"])
def test_factored_steps_flag_a_non_finite_result(scheme):
    model, step, state = _factored_or_full(scheme)
    with pytest.raises(NonFiniteState, match="non-finite"):
        step(model, state, np.full((32, model.m), np.inf), 0.01)


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
    with pytest.raises(ShapeMismatch, match="not a multiple"):
        integrate(model, init, "do", 0.105, 1e-2, path)
    with pytest.raises(ShapeMismatch, match="path has 10 steps"):
        integrate(model, init, "do", 0.2, 1e-2, path)
    with pytest.raises(ShapeMismatch, match="path has 10 steps"):
        integrate(model, init, "do", 0.1, 5e-3, path)
    fine = paths.generate(0, 20, 5e-3, 16, model.m)
    with pytest.raises(ShapeMismatch, match="path dt=0.005 differs"):
        integrate(model, init, "do", 0.1, 1e-2, fine)
    wide = paths.generate(0, 10, 1e-2, 16, model.m + 1)
    with pytest.raises(ShapeMismatch, match="path has 3 channels, model needs 2"):
        integrate(model, init, "do", 0.1, 1e-2, wide)
    with pytest.raises(ShapeMismatch):
        integrate(model, init, "nope", 0.1, 1e-2, path)
    bad_atoms = paths.generate(0, 10, 1e-2, 8, model.m)
    with pytest.raises(ShapeMismatch):
        integrate(model, init, "do", 0.1, 1e-2, bad_atoms)


def test_ambient_takes_its_rank_from_a_factored_start_only():
    model = builtin("ou", d=3)
    init = default_initial(model, N=16, R=2, seed=0)
    path = paths.generate(0, 5, 1e-2, 16, model.m)
    traj = integrate(model, init, "ambient", 0.05, 1e-2, path)
    explicit = integrate(model, init, "ambient", 0.05, 1e-2, path, R=2)
    assert traj.states[-1].X.tobytes() == explicit.states[-1].X.tobytes()
    with pytest.raises(ShapeMismatch, match="needs a rank R"):
        integrate(model, FullState(t=0.0, X=init.product()), "ambient", 0.05, 1e-2, path)


def test_integrate_needs_factored_for_do():
    model = builtin("ou", d=2)
    X = np.random.default_rng(1).standard_normal((16, 2))
    init = FullState(t=0.0, X=X)
    path = paths.generate(0, 10, 1e-2, 16, model.m)
    with pytest.raises(ShapeMismatch):
        integrate(model, init, "do", 0.1, 1e-2, path)
    # but reference accepts it
    traj = integrate(model, init, "reference", 0.1, 1e-2, path)
    assert traj.completed
    # and records a float copy of the datum it was given, integers included
    assert traj.states[0].X is not X
    ints = FullState(t=0.0, X=np.arange(32).reshape(16, 2))
    assert integrate(model, ints, "reference", 0.1, 1e-2, path).states[0].X.dtype == np.float64


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


def test_diagonal_reference_run_matches_golden_bits():
    # First recorded when gbm_clipped's b was a zero-filled (N, d, d)
    # stack applied by matvecs; re-recorded when the normals moved to the
    # numpy AS241 transform.  The path calls no BLAS, so the digest does
    # not depend on the BLAS build, but tail normals follow numpy's SIMD
    # target for log.  Planted entries sit at +0.0 (b = 0 there for ever)
    # and at +-clip.
    if _log_simd() != "X86_V4":
        pytest.skip("digest recorded with numpy's X86_V4 log")
    N, d = 64, 8
    model = builtin("gbm_clipped", mu=0.05, sigma=0.2, clip=5.0, d=d)
    X0 = (((np.arange(N * d) * 7919) % 1009) / 1009 - 0.5).reshape(N, d) * 16.0
    X0.ravel()[::7] = 0.0
    X0.ravel()[3::11] = 5.0
    X0.ravel()[5::13] = -5.0
    path = paths.generate(17, 40, 1e-2, N, model.m)
    traj = integrate(model, FullState(t=0.0, X=X0), "reference", 0.4, 1e-2, path, record_stride=8)
    digest = hashlib.sha256()
    for state in traj.states:
        digest.update(state.X.tobytes())
    assert len(traj.states) == 6
    assert digest.hexdigest() == (
        "17bcfb97dad807ebfc0dab26bc03925a2187b638b2676152fd7d1dec7798fc02"
    )


def test_diagonal_noise_and_signed_zeros():
    # v * dW is -0.0 where v = +0.0 and dW < 0, and the matvec gave +0.0;
    # the state x + a dt + v dW is +0.0 either way at x = +0.0.  An entry
    # that is exactly -0.0 (v = -0.0) is where the bytes differ: with
    # dW > 0 it stays -0.0, where the matvec made it +0.0.
    model = builtin("gbm_clipped", d=2)
    X = np.array([[0.0, 0.0], [-0.0, -0.0]])
    dW = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    new, _ = step_reference(model, FullState(t=0.0, X=X.copy()), dW, 0.01)
    old, _ = step_reference(_dense_twin(model), FullState(t=0.0, X=X.copy()), dW, 0.01)
    assert np.array_equal(new.X, old.X) and not np.any(new.X)
    assert np.signbit(new.X).tolist() == [[False, False], [False, True]]
    assert not np.signbit(old.X).any()


def test_diagonal_reference_step_builds_no_matrix_stack():
    N, d = 2048, 32
    model = builtin("gbm_clipped", d=d)
    state = FullState(t=0.0, X=np.random.default_rng(0).standard_normal((N, d)))
    dW = paths.generate(0, 1, 1e-3, N, model.m).increment(0)
    tracemalloc.start()
    try:
        step_reference(model, state, dW, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < N * d * d * 8 / 4


def test_a_do_run_builds_no_atoms_by_dimension_array():
    # The whole-array step held X = Y U (16 MiB here) and mean_outer's
    # contiguous copy of the broadcast drift (16 MiB more).
    N, d = 16384, 128
    model = builtin("mode_crossing", d=d)
    init = default_initial(model, N, 2, seed=0)
    path = paths.generate(0, 3, 0.01, N, model.m)
    tracemalloc.start()
    try:
        integrate(model, init, "do", 0.03, 0.01, path, on_record=lambda state: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < N * d * 8 / 4


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
    dW = paths.generate(seed, 1, dt, N, model.m).increment(0)
    U, Y = state.U, state.Y
    X = Y @ U
    a = model.drift(0.0, X)
    G = kernels.mean_outer(Y, a)
    U_raw = U + dt * (kernels.gram(Y).inverse @ (G - (G @ U.T) @ U))
    Y_pre = Y + (a @ U.T) * dt + np.matmul(U @ _dense_b(model, X), dW[..., None])[..., 0]

    new, rep = step_do(model, state, dW, dt)
    assert np.linalg.norm(new.U @ new.U.T - np.eye(R)) < 1e-13
    expect = Y_pre @ U_raw
    assert np.max(np.abs(new.Y @ new.U - expect)) <= 1e-12 * max(1.0, np.max(np.abs(expect)))
    assert rep.t == dt


def _whole_step_do(model, state, dW, dt):
    """The factored step on whole N x d arrays, as it was before the
    block walk: X = Y U, a(X) and E[Y a^T] are formed at once.
    Returns (U+, Y+, E[Y a^T])."""
    U, Y = state.U, state.Y
    X = Y @ U
    a = model.drift(state.t, X)
    Y1 = Y + (a @ U.T) * dt + _noise(model, model.diffusion(state.t, X), dW, U)
    G = kernels.mean_outer(Y, a)
    U1, Rtri = _qr_retract(U + dt * (kernels.gram(Y).inverse @ (G - (G @ U.T) @ U)))
    return U1, Y1 @ Rtri.T, G


def _block_atoms(d):
    """Atoms per block of the walk at d values per atom."""
    return max(1, kernels._BLOCK_VALUES // (d * kernels._LEAF)) * kernels._LEAF


@st.composite
def _walk_cases(draw):
    """N from within one block up to three blocks and a remainder."""
    name = draw(st.sampled_from(["ou", "additive_floor", "gbm_clipped"]))
    d = draw(st.integers(1, 300))
    R = draw(st.integers(1, min(d, 8)))
    span = _block_atoms(d)
    N = draw(st.integers(0, 3)) * span + draw(st.one_of(st.just(0), st.integers(1, span - 1)))
    order = draw(st.sampled_from("CF"))
    return builtin(name, d=d), max(N, R + 1), R, order, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=30, deadline=None)
@given(_walk_cases())
def test_the_block_walk_matches_the_whole_array_step(case):
    model, N, R, order, seed = case
    rng = np.random.default_rng(seed)
    U = np.asarray(np.linalg.qr(rng.standard_normal((model.d, R)))[0].T, order=order)
    state = DoState(t=0.0, U=U, Y=rng.standard_normal((N, R)))
    dt = 0.01
    dW = paths.generate(seed, 1, dt, N, model.m).increment(0)
    U1, Y1, G = _whole_step_do(model, state, dW, dt)

    blocks = []

    def drift(t, x):
        blocks.append(model.drift(t, x))
        return blocks[-1]

    _, _, G_walk = _atom_terms(dataclasses.replace(model, drift=drift), 0.0, U, state.Y, dW)
    # mean_outer's leaves and tree, on the drift values the walk met
    assert G_walk.tobytes() == kernels.mean_outer(state.Y, np.concatenate(blocks)).tobytes()
    new, _ = step_do(model, state, dW, dt)
    if N <= _block_atoms(model.d):
        assert len(blocks) == 1
        for got, want in ((new.U, U1), (new.Y, Y1), (G_walk, G)):
            assert got.tobytes() == want.tobytes()
    else:
        # Across blocks BLAS may pick another kernel for Y U or a U^T.
        for got, want in ((new.U, U1), (new.Y, Y1), (G_walk, G)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@st.composite
def _noise_cases(draw):
    d = draw(st.integers(2, 6))
    R = draw(st.integers(1, d))
    N = draw(st.integers(R + 8, 48))
    model = builtin(
        "gbm_clipped",
        d=d,
        sigma=draw(st.floats(0.05, 2.0)),
        clip=draw(st.floats(0.5, 6.0)),
    )
    return model, N, R, draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=25, deadline=None)
@given(_noise_cases())
def test_noise_forms_match_the_dense_oracle(case):
    # Each consumer of a diagonal b against the same b as a dense matrix:
    # the reference and ambient steps bit for bit, the do step and Picard
    # sweeps (whose diagonal apply sums in another order) within the
    # tolerances of their hand-oracle tests.
    model, N, R, coordinate, seed = case
    dense = _dense_twin(model)
    clip = model.params["clip"]
    rng = np.random.default_rng(seed)
    if coordinate:
        # coordinate rows keep X = Y U exact, so the planted values reach b
        U = np.eye(model.d)[rng.permutation(model.d)[:R]]
    else:
        U = np.linalg.qr(rng.standard_normal((model.d, R)))[0].T
    Y = 3.0 * whiten(rng.standard_normal((N, R)))
    Y[0] = 0.0  # an atom at the origin
    Y[1, 0] = clip
    Y[2, -1] = -clip
    X = Y @ U
    dt = 0.01
    path = paths.generate(seed, 3, dt, N, model.m)
    dW = path.increment(0)

    new, _ = step_reference(model, FullState(t=0.0, X=X), dW, dt)
    hand = X + model.drift(0.0, X) * dt + np.matmul(_dense_b(model, X), dW[..., None])[..., 0]
    assert new.X.tobytes() == hand.tobytes()

    amb, _ = step_ambient_dlra(model, FullState(t=0.0, X=X), dW, dt, R=R)
    amb_dense, _ = step_ambient_dlra(dense, FullState(t=0.0, X=X), dW, dt, R=R)
    assert amb.X.tobytes() == amb_dense.X.tobytes()

    do, _ = step_do(model, DoState(t=0.0, U=U, Y=Y), dW, dt)
    do_dense, _ = step_do(dense, DoState(t=0.0, U=U, Y=Y), dW, dt)
    expect = do_dense.Y @ do_dense.U
    assert np.max(np.abs(do.Y @ do.U - expect)) <= 1e-12 * max(1.0, np.max(np.abs(expect)))

    # Every iterate at every grid point j, as the end of a j-step window
    # whose increments are the first j of the path's.
    for j in range(1, path.n_steps + 1):
        prefix = paths.generate(seed, j, dt, N, model.m)
        sweeps = picard_local_solve(model, U, Y, prefix, n_iters=2)
        sweeps_dense = picard_local_solve(dense, U, Y, prefix, n_iters=2)
        for U_it, U_dense in zip(sweeps.U_end, sweeps_dense.U_end, strict=True):
            assert np.allclose(U_it, U_dense, atol=1e-15)
        for Y_it, Y_dense in zip(sweeps.Y_end, sweeps_dense.Y_end, strict=True):
            assert np.allclose(Y_it, Y_dense, atol=1e-13)


@pytest.mark.parametrize("scheme", ["do", "ambient", "reference"])
def test_on_record_receives_the_recorded_states(scheme):
    model = builtin("ou", d=3)
    init = default_initial(model, N=16, R=2, seed=0)
    path = paths.generate(0, 23, 1e-2, 16, model.m)
    kept = integrate(model, init, scheme, 0.23, 1e-2, path, record_stride=5, R=2)
    seen = []
    traj = integrate(
        model, init, scheme, 0.23, 1e-2, path, record_stride=5, R=2, on_record=seen.append
    )
    assert traj.states == []
    assert traj.times == kept.times == [0.0, 0.05, 0.1, 0.15, 0.2, 0.23]
    assert [s.t for s in seen] == kept.times
    for a, b in zip(seen, kept.states, strict=True):
        assert a.product().tobytes() == b.product().tobytes()


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


# ---------------------------------------------------------------- resuming


def _clocked_ou(d=4):
    """ou whose drift reads t, so a resumed run must carry the clock on."""
    model = builtin("ou", kappa=1.0, sigma=0.5, d=d)
    return dataclasses.replace(
        model, drift=lambda t, x: -(1.0 + 10.0 * t) * np.asarray(x, dtype=float)
    )


def _same_state(a, b):
    """Same time, same bytes and same memory layout."""
    arrays = (("U", "Y") if isinstance(a, DoState) else ("X",))
    return type(a) is type(b) and a.t == b.t and all(
        getattr(a, f).strides == getattr(b, f).strides
        and getattr(a, f).tobytes() == getattr(b, f).tobytes()
        for f in arrays
    )


def _diag_bytes(rows):
    return np.array([dataclasses.astuple(r) for r in rows]).tobytes()


@pytest.mark.parametrize("scheme", ["do", "ambient", "reference"])
@pytest.mark.parametrize("model", [builtin("additive_floor", d=16), _clocked_ou(16)],
                         ids=["additive_floor", "clocked_ou"])
def test_a_run_split_at_every_grid_step_equals_the_unbroken_run(scheme, model):
    # At these sizes a C-ordered copy of the resumed basis moves the
    # factored run's bits.
    n, dt, N, R = 12, 1e-2, 64, 3
    init = default_initial(model, N, R, seed=3)
    path = paths.generate(5, n, dt, N, model.m)
    whole = integrate(model, init, scheme, n * dt, dt, path, R=R)
    if scheme == "do":
        # the retracted basis is a transposed QR factor, Fortran-ordered
        assert whole.states[-1].U.flags.f_contiguous and not whole.states[-1].U.flags.c_contiguous
    pieces, state = [], init
    for k in range(1, n + 1):
        part = integrate(model, state, scheme, k * dt, dt, path, R=R)
        assert part.completed and part.times == [(k - 1) * dt, k * dt]
        pieces.append(part)
        state = part.states[-1]
    states = pieces[0].states[:1] + [s for p in pieces for s in p.states[1:]]
    assert [t for p in pieces for t in p.times[1:]] == whole.times[1:]
    assert len(states) == len(whole.states)
    assert all(_same_state(a, b) for a, b in zip(states, whole.states))
    assert _diag_bytes([r for p in pieces for r in p.diag]) == _diag_bytes(whole.diag)


@pytest.mark.parametrize("scheme", ["do", "reference"])
def test_a_resumed_run_records_at_global_stride_multiples(scheme):
    model = builtin("ou", d=3)
    init = default_initial(model, 16, 2, seed=0)
    dt, n, k0, stride = 1e-2, 14, 3, 4
    path = paths.generate(0, n, dt, 16, model.m)
    start = integrate(model, init, scheme, k0 * dt, dt, path).states[-1]
    traj = integrate(model, start, scheme, n * dt, dt, path, record_stride=stride)
    kept = [k for k in range(k0 + 1, n + 1) if k % stride == 0 or k == n]
    assert traj.times == [k0 * dt] + [k * dt for k in kept]
    assert [s.t for s in traj.states] == traj.times
    assert [r.t for r in traj.diag] == [k * dt for k in range(k0 + 1, n + 1)]


@pytest.mark.parametrize("t", [0.015, 0.11, -0.01, math.nan, math.inf])
def test_integrate_rejects_a_start_off_the_grid_or_past_t_end(t):
    model = builtin("ou", d=2)
    init = default_initial(model, 16, 2, seed=0)
    path = paths.generate(0, 10, 1e-2, 16, model.m)
    with pytest.raises(ShapeMismatch):
        integrate(model, DoState(t=t, U=init.U, Y=init.Y), "do", 0.1, 1e-2, path)
    with pytest.raises(ShapeMismatch):
        integrate(model, FullState(t=t, X=init.product()), "reference", 0.1, 1e-2, path)


def test_a_start_at_t_end_takes_no_step():
    model = builtin("ou", d=2)
    init = default_initial(model, 16, 2, seed=0)
    path = paths.generate(0, 10, 1e-2, 16, model.m)
    end = integrate(model, init, "do", 0.1, 1e-2, path).states[-1]
    traj = integrate(model, end, "do", 0.1, 1e-2, path)
    assert traj.completed and traj.diag == [] and traj.times == [end.t]
    assert _same_state(traj.states[0], end)


def test_a_resume_on_a_singular_gram_halts_with_the_unbroken_event():
    # mode_crossing's coefficients become collinear at t_star = 1: the
    # state there is a valid resume point, and its first step halts.
    model = builtin("mode_crossing")
    init = default_initial(model, N=64, R=2, seed=0)
    dt = 1e-2
    path = paths.generate(23, 120, dt, 64, model.m)
    whole = integrate(model, init, "do", 1.2, dt, path)
    assert not whole.completed and whole.events[0].t_event == 1.0
    first = integrate(model, init, "do", 1.0, dt, path)
    assert first.completed
    rest = integrate(model, first.states[-1], "do", 1.2, dt, path)
    assert not rest.completed and rest.diag[-1].gram_inv_frobenius == math.inf
    assert _diag_bytes(first.diag + rest.diag) == _diag_bytes(whole.diag)
    (a,), (b,) = rest.events, whole.events
    assert (a.t_event, a.old_rank, a.new_rank) == (b.t_event, b.old_rank, b.new_rank)
    assert np.array([a.discarded_mass, a.inv_norm_at_event]).tobytes() == np.array(
        [b.discarded_mass, b.inv_norm_at_event]).tobytes()
    assert a.singular_values.tobytes() == b.singular_values.tobytes()


def test_a_later_state_is_checked_for_shape_and_finiteness_only():
    U = np.array([[1.0, 1.0]])  # not orthonormal: fine after t = 0, not at it
    Y = np.ones((4, 1))
    DoState(t=0.5, U=U, Y=Y).validate()
    with pytest.raises(InvalidEnsemble, match="orthonormal"):
        DoState(t=0.0, U=U, Y=Y).validate()
    with pytest.raises(InvalidEnsemble, match="non-finite"):
        DoState(t=0.5, U=np.array([[1.0, np.nan]]), Y=Y).validate()
    with pytest.raises(InvalidEnsemble, match="columns"):
        DoState(t=0.5, U=U, Y=np.ones((4, 2))).validate()


def test_validate_names_a_basis_that_is_not_2d():
    with pytest.raises(InvalidEnsemble, match="U must be 2-D"):
        DoState(t=0.0, U=np.ones(3), Y=np.ones((4, 1))).validate()
