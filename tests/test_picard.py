"""Local fixed-point sweeps: first-iterate oracle, sweep-order oracle,
contraction, guards, memory."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dosde import kernels, paths
from dosde.errors import InvalidEnsemble, ShapeMismatch, SingularGram
from dosde.integrators import _noise
from dosde.models import builtin, default_initial
from dosde import picard
from dosde.picard import picard_local_solve


def _setup(n_grid=16, N=64, seed=5):
    model = builtin("ou", kappa=0.25, sigma=0.25, d=4)
    init = default_initial(model, N=N, R=1, seed=seed)
    rho = math.sqrt(float(np.max(np.sum(init.Y**2, axis=1))))
    gamma = kernels.gram(init.Y).inv_frobenius
    delta = kernels.picard_delta(1, rho, gamma, model.d, model.C_lgb)
    path = paths.generate(2, n_grid, delta / n_grid, N, model.m)
    return model, init, path


def test_first_sweep_matches_hand_integral():
    # From the constant starting pair every panel uses the same
    # integrand, so sweep one is a plain cumulative sum we can recompute.
    # Iterate 1 at grid point j is the end of a j-step window on the
    # same dt, whose increments are the first j of the K-step path.
    model, init, path = _setup()
    U0, Y0 = init.U, init.Y
    h = path.dt
    rep = kernels.gram(Y0)
    X0 = Y0 @ U0
    a0 = model.drift(0.0, X0)
    b0 = model.diffusion(0.0, X0)
    G = kernels.mean_outer(Y0, a0)
    P = U0.T @ np.linalg.inv(U0 @ U0.T) @ U0
    dU = rep.inverse @ (G - G @ P)
    drift_inc = (a0 @ U0.T) * h
    dW = np.stack([path.increment(k).copy() for k in range(path.n_steps)])
    noise = np.matmul(np.matmul(U0, b0), dW[..., :, None])[..., 0]
    expect = Y0.copy()
    for j in range(1, path.n_steps + 1):
        prefix = paths.generate(path.seed, j, h, path.N, path.m)
        res = picard_local_solve(model, U0, Y0, prefix, n_iters=1)
        assert np.allclose(res.U_end[1], U0 + j * h * dU, atol=1e-15)
        expect = expect + drift_inc + noise[j - 1]
        assert np.allclose(res.Y_end[1], expect, atol=1e-13)


def test_sweeps_contract_inside_window():
    model, init, path = _setup(n_grid=32)
    res = picard_local_solve(model, init.U, init.Y, path, n_iters=5)
    sd = res.sup_differences
    assert len(sd) == 5
    # each squared difference falls by far more than the guaranteed half
    for n in range(1, 5):
        assert sd[n] <= 0.5 * sd[n - 1]
    # iterates stay in the admissible region
    R = 1
    rho_sq = float(np.max(np.sum(init.Y**2, axis=1)))
    assert all(v <= 3.0 * R for v in res.sup_U_sq)
    assert all(v <= 3.0 * rho_sq + 1.0 for v in res.exp_sup_Y_sq)


def test_converged_iterates_stay_fixed():
    # once two consecutive iterates are bit-identical all later sweeps
    # reproduce the same trajectory exactly: a zero sup difference means
    # equal at every grid point, so the window ends agree too
    model, init, path = _setup()
    res = picard_local_solve(model, init.U, init.Y, path, n_iters=7)
    sd = res.sup_differences
    assert sd[-1] == 0.0
    assert np.array_equal(res.U_end[-1], res.U_end[-2])
    assert np.array_equal(res.Y_end[-1], res.Y_end[-2])


def test_shapes_of_result():
    model, init, path = _setup(n_grid=8)
    res = picard_local_solve(model, init.U, init.Y, path, n_iters=2)
    assert len(res.U_end) == 3 and len(res.Y_end) == 3
    assert res.U_end[0].shape == (1, 4)
    assert res.Y_end[0].shape == (64, 1)
    assert len(res.sup_differences) == 2
    assert len(res.sup_U_sq) == len(res.exp_sup_Y_sq) == 3
    assert res.times.shape == (9,)
    assert res.times[-1] == pytest.approx(8 * path.dt)


def test_rejects_mismatched_inputs(monkeypatch):
    drawn = []
    monkeypatch.setattr(paths, "_draw_normals", lambda *args: drawn.append(args))
    model, init, path = _setup()
    Y_wide = np.hstack([init.Y, init.Y])  # two columns vs a one-row basis
    with pytest.raises(ShapeMismatch):
        picard_local_solve(model, init.U, Y_wide, path)
    bad_path = paths.generate(2, 4, 1e-3, 32, model.m)
    with pytest.raises(ShapeMismatch):
        picard_local_solve(model, init.U, init.Y, bad_path)
    wide = default_initial(builtin("ou", d=5), N=64, R=1, seed=5)
    with pytest.raises(ShapeMismatch, match="U0 has 5 columns, model has dimension 4"):
        picard_local_solve(model, wide.U, init.Y, path)
    assert drawn == []


@pytest.mark.parametrize("n_iters", [0, -1, 2.5, True])
def test_rejects_a_sweep_count_that_is_not_a_positive_int(monkeypatch, n_iters):
    model, init, path = _setup()
    monkeypatch.setattr(picard, "_panel", None)  # no panel may run
    with pytest.raises(ShapeMismatch, match="n_iters"):
        picard_local_solve(model, init.U, init.Y, path, n_iters=n_iters)


def test_singular_start_raises():
    model, init, path = _setup()
    Y_bad = np.zeros_like(init.Y)
    with pytest.raises(SingularGram):
        picard_local_solve(model, init.U, Y_bad, path, n_iters=1)
    # A singular row Gram from the projector is re-raised with the
    # iterate and the grid point it met.
    with pytest.raises(SingularGram, match="^iterate 1 has a singular row Gram at grid point 0$"
                       ) as err:
        picard_local_solve(model, np.zeros_like(init.U), init.Y, path, n_iters=1)
    assert isinstance(err.value.__cause__, SingularGram)
    assert "row Gram of U is singular" in str(err.value.__cause__)


def _sweep_oracle(model, U0, Y0, path, n_iters):
    """The sweep-order solver: each iterate over the whole grid, kept
    whole, before the next.  Returns (sup_differences, sup_U_sq,
    exp_sup_Y_sq, U_end, Y_end)."""
    R, d = U0.shape
    N = Y0.shape[0]
    K = path.n_steps
    h = path.dt
    times = np.arange(K + 1) * h

    U_traj = np.broadcast_to(U0, (K + 1, R, d)).copy()
    Y_traj = np.broadcast_to(Y0, (K + 1, N, R)).copy()
    U_iters = [U_traj]
    Y_iters = [Y_traj]
    sup_differences = []
    sup_U_sq = [float(np.max(np.sum(U_traj**2, axis=(1, 2))))]
    exp_sup_Y_sq = [_exp_sup_sq(Y_traj)]

    for n in range(1, n_iters + 1):
        U_prev, Y_prev = U_iters[-1], Y_iters[-1]
        dU = np.empty((K, R, d))
        dY_drift = np.empty((K, N, R))
        dY_noise = np.empty((K, N, R))
        for j in range(K):
            Uj = U_prev[j]
            Yj = Y_prev[j]
            rep = kernels.gram(Yj)
            if rep.inverse is None:
                raise SingularGram(
                    "iterate %d left the admissible ball at grid point %d" % (n, j),
                    report=rep,
                )
            Xj = Yj @ Uj
            aj = model.drift(times[j], Xj)
            bj = model.diffusion(times[j], Xj)
            G = kernels.mean_outer(Yj, aj)
            try:
                P = kernels.projector_row(Uj)
            except SingularGram as err:
                raise SingularGram(
                    "iterate %d has a singular row Gram at grid point %d" % (n, j)
                ) from err
            dU[j] = rep.inverse @ (G - G @ P)
            dY_drift[j] = aj @ Uj.T
            dY_noise[j] = _noise(model, bj, path.increment(j), Uj)
        U_new = np.concatenate([U0[None], U0[None] + np.cumsum(dU * h, axis=0)])
        incr = dY_drift * h + dY_noise
        Y_new = np.concatenate([Y0[None], Y0[None] + np.cumsum(incr, axis=0)])
        delta = float(np.max(np.sum((U_new - U_prev) ** 2, axis=(1, 2))))
        delta += _exp_sup_sq(Y_new - Y_prev)
        sup_differences.append(delta)
        sup_U_sq.append(float(np.max(np.sum(U_new**2, axis=(1, 2)))))
        exp_sup_Y_sq.append(_exp_sup_sq(Y_new))
        U_iters.append(U_new)
        Y_iters.append(Y_new)
    U_end = [U[-1] for U in U_iters]
    Y_end = [Y[-1] for Y in Y_iters]
    return sup_differences, sup_U_sq, exp_sup_Y_sq, U_end, Y_end


def _exp_sup_sq(Y_traj):
    per_atom_sup = np.max(np.sum(Y_traj**2, axis=2), axis=0)
    return float(kernels.ensemble_mean(per_atom_sup))


@st.composite
def _picard_cases(draw):
    name = draw(st.sampled_from(["ou", "additive_floor", "gbm_clipped"]))
    d = draw(st.integers(1, 6))
    R = draw(st.integers(1, d))
    N = draw(st.integers(R, 40))
    K = draw(st.integers(1, 24))
    n_iters = draw(st.integers(1, 7))
    # Up to windows far wider than the contraction window.
    dt = 10.0 ** draw(st.floats(-4.0, 0.0))
    # "column": a zero coefficient column, so the Gram is singular at t = 0;
    # "rows": a repeated basis row, so the row Gram is (for R > 1);
    # "far": the drift refuses states farther than tau from the start,
    # so iterates fail part-way through, and not in sweep order.
    flaw = draw(st.sampled_from(["none", "none", "column", "rows", "far"]))
    tau = 10.0 ** draw(st.floats(-3.0, 0.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return name, d, R, N, K, n_iters, dt, flaw, tau, seed


def _case_inputs(case):
    name, d, R, N, K, n_iters, dt, flaw, tau, seed = case
    model = builtin(name, d=d)
    rng = np.random.default_rng(seed)
    U0 = np.linalg.qr(rng.standard_normal((d, R)))[0].T
    Y0 = rng.standard_normal((N, R))
    if flaw == "column":
        Y0[:, -1] = 0.0
    elif flaw == "rows" and R > 1:
        U0[-1] = U0[0]
    elif flaw == "far":
        X0, drift = Y0 @ U0, model.drift

        def refusing(t, x):
            far = float(np.max(np.abs(x - X0)))
            if far > tau:
                raise InvalidEnsemble("drift refuses a state %r away at t=%r" % (far, t))
            return drift(t, x)

        model = dataclasses.replace(model, drift=refusing)
    path = paths.generate(seed, K, dt, N, model.m)
    return model, U0, Y0, path, n_iters


@settings(max_examples=80, deadline=None)
@given(_picard_cases())
def test_one_pass_matches_the_sweep_order_oracle(case):
    model, U0, Y0, path, n_iters = _case_inputs(case)
    # Whatever error the sweep order meets first, one pass raises too.
    try:
        oracle = _sweep_oracle(model, U0, Y0, path, n_iters)
    except Exception as err:
        with pytest.raises(type(err)) as raised:
            picard_local_solve(model, U0, Y0, path, n_iters=n_iters)
        assert str(raised.value) == str(err)
        return
    res = picard_local_solve(model, U0, Y0, path, n_iters=n_iters)
    sup_differences, sup_U_sq, exp_sup_Y_sq, U_end, Y_end = oracle
    assert np.array(res.sup_differences).tobytes() == np.array(sup_differences).tobytes()
    assert np.array(res.sup_U_sq).tobytes() == np.array(sup_U_sq).tobytes()
    assert np.array(res.exp_sup_Y_sq).tobytes() == np.array(exp_sup_Y_sq).tobytes()
    for a, b in zip(res.U_end, U_end, strict=True):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(res.Y_end, Y_end, strict=True):
        assert a.tobytes() == b.tobytes()


def _traced_peak(K, N, model, init):
    path = paths.generate(3, K, 1e-4, N, model.m)
    tracemalloc.start()
    try:
        picard_local_solve(model, init.U, init.Y, path, n_iters=3)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_the_grid(monkeypatch):
    # A chunk of eight steps stands in for the default one.  The sweep
    # order held the whole K x N x m path and every iterate's K + 1
    # points (its peak here grew by 13.4 MB from K = 16 to K = 256); one
    # pass holds a chunk and each iterate's current value.
    N = 256
    model = builtin("ou", kappa=0.5, sigma=0.5, d=8)
    chunk_steps = 8
    monkeypatch.setattr(paths, "_CHUNK_ELEMENTS", chunk_steps * N * model.m)
    init = default_initial(model, N, 2, seed=4)
    chunk_bytes = chunk_steps * N * model.m * 8
    short = _traced_peak(16, N, model, init)
    long = _traced_peak(256, N, model, init)
    assert abs(long - short) < 2 * chunk_bytes


def _downward_oracle(model, U0, Y0, path, n_iters):
    """The one-pass solver before converged iterates shared panels: at
    each grid point the iterates advance from the last down to the
    first, and every one evaluates its own panel."""
    U0 = np.ascontiguousarray(U0, dtype=float)
    Y0 = np.ascontiguousarray(Y0, dtype=float)
    N = Y0.shape[0]
    K, h = path.n_steps, path.dt
    times = np.arange(K + 1) * h
    U = [U0] * (n_iters + 1)
    Y = [Y0] * (n_iters + 1)
    U_sum = [None] * (n_iters + 1)
    Y_sum = [None] * (n_iters + 1)
    sup_U = np.full(n_iters + 1, -np.inf)
    sup_Y = np.full((n_iters + 1, N), -np.inf)
    diff_U = np.full(n_iters + 1, -np.inf)
    diff_Y = np.full((n_iters + 1, N), -np.inf)
    live, failure = n_iters, None

    def observe():
        for n in range(live + 1):
            sup_U[n] = np.maximum(sup_U[n], np.sum(U[n] ** 2))
            np.maximum(sup_Y[n], np.sum(Y[n] ** 2, axis=1), out=sup_Y[n])
            if n:
                diff_U[n] = np.maximum(diff_U[n], np.sum((U[n] - U[n - 1]) ** 2))
                np.maximum(diff_Y[n], np.sum((Y[n] - Y[n - 1]) ** 2, axis=1), out=diff_Y[n])

    for j in range(K):
        if not live:
            break
        observe()
        dW = path.increment(j)
        for n in range(live, 0, -1):
            try:
                dU, dY_drift, dY_noise = picard._panel(
                    model, times[j], U[n - 1], Y[n - 1], dW, n, j)
            except Exception as err:
                failure, live = err, n - 1
                continue
            x = dU * h
            U_sum[n] = x if j == 0 else U_sum[n] + x
            U[n] = U0 + U_sum[n]
            x = dY_drift * h + dY_noise
            Y_sum[n] = x if j == 0 else Y_sum[n] + x
            Y[n] = Y0 + Y_sum[n]
    if failure is not None:
        raise failure
    observe()
    mean = kernels.ensemble_mean
    deltas = [float(diff_U[n]) + float(mean(diff_Y[n])) for n in range(1, n_iters + 1)]
    return (deltas, [float(v) for v in sup_U], [float(mean(v)) for v in sup_Y], U, Y)


def _assert_matches_downward_oracle(model, U0, Y0, path, n_iters):
    try:
        oracle = _downward_oracle(model, U0, Y0, path, n_iters)
    except Exception as err:
        with pytest.raises(type(err)) as raised:
            picard_local_solve(model, U0, Y0, path, n_iters=n_iters)
        assert str(raised.value) == str(err)
        return err
    res = picard_local_solve(model, U0, Y0, path, n_iters=n_iters)
    sup_differences, sup_U_sq, exp_sup_Y_sq, U_end, Y_end = oracle
    assert np.array(res.sup_differences).tobytes() == np.array(sup_differences).tobytes()
    assert np.array(res.sup_U_sq).tobytes() == np.array(sup_U_sq).tobytes()
    assert np.array(res.exp_sup_Y_sq).tobytes() == np.array(exp_sup_Y_sq).tobytes()
    for a, b in zip(res.U_end + res.Y_end, U_end + Y_end, strict=True):
        assert a.tobytes() == b.tobytes()
    return None


@settings(max_examples=60, deadline=None)
@given(_picard_cases())
def test_shared_panels_match_the_downward_oracle(case):
    _assert_matches_downward_oracle(*_case_inputs(case))


def test_converged_iterates_share_their_panels(monkeypatch):
    # At j = 0 every iterate is the start, and later iterates converge to
    # the bit: most panels are shared, with the same result.
    model, init, path = _setup(n_grid=16)
    calls = []
    panel = picard._panel
    monkeypatch.setattr(picard, "_panel", lambda *a: calls.append(a[-2:]) or panel(*a))
    _downward_oracle(model, init.U, init.Y, path, 6)
    assert len(calls) == 16 * 6
    calls.clear()
    _assert_matches_downward_oracle(model, init.U, init.Y, path, 6)
    shared = calls[16 * 6:]
    assert (1, 0) in shared and (2, 0) not in shared
    assert len(shared) < 16 * 6 * 2 / 3  # 52 on OpenBLAS SkylakeX


def _signed_panel(model, t, Uj, Yj, dW, n, j):
    """A panel that reads the sign of zero: coefficient drift 1 where Y
    is +0.0, else 0; no basis motion, no noise."""
    plus_zero = (Yj == 0.0) & ~np.signbit(Yj)
    return np.zeros_like(Uj), np.where(plus_zero, 1.0, 0.0), np.zeros_like(Yj)


def test_a_signed_zero_is_not_a_converged_iterate(monkeypatch):
    # Y0 holds -0.0.  Iterate 1 adds +0.0 everywhere at j = 0, so at
    # j = 1 it holds +0.0 where iterate 0 still holds -0.0: equal values,
    # other bytes, and other panels.
    monkeypatch.setattr(picard, "_panel", _signed_panel)
    model = builtin("ou", d=2)
    U0 = np.eye(2)
    Y0 = np.array([[-0.0, 1.0], [1.0, -1.0], [2.0, 0.5]])
    path = paths.generate(0, 4, 0.1, 3, model.m)
    assert _assert_matches_downward_oracle(model, U0, Y0, path, 4) is None
    res = picard_local_solve(model, U0, Y0, path, n_iters=4)
    assert res.Y_end[2][0, 0] != res.Y_end[1][0, 0]


def test_a_failing_iterate_raises_the_downward_error(monkeypatch):
    # Iterates 3 and later fail from grid point 2, and iterate 2 from
    # point 3: the error raised is iterate 2's, the earliest iterate.
    model, init, path = _setup(n_grid=8)
    panel = picard._panel

    def failing(model, t, Uj, Yj, dW, n, j):
        if (n >= 3 and j >= 2) or (n == 2 and j >= 3):
            raise SingularGram("iterate %d left the admissible ball at grid point %d" % (n, j))
        return panel(model, t, Uj, Yj, dW, n, j)

    monkeypatch.setattr(picard, "_panel", failing)
    err = _assert_matches_downward_oracle(model, init.U, init.Y, path, 5)
    assert str(err) == "iterate 2 left the admissible ball at grid point 3"
