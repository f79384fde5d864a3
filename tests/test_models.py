"""Builtin model catalogue: closed-form checks and declared-constant probes."""

import dataclasses
import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from dosde import kernels
from dosde.errors import BadParams, InvalidEnsemble
from dosde.integrators import DoState
from dosde.models import _rng, builtin, default_initial, whiten

ALL_NAMES = ["ou", "linear_lowrank", "gbm_clipped", "mode_crossing", "additive_floor"]

# The box each builtin's declared constants are probed on.
PROBE_BOXES = {
    "ou": (-3.0, 3.0),
    "linear_lowrank": (-3.0, 3.0),
    "gbm_clipped": (-10.0, 10.0),
    "mode_crossing": (-3.0, 3.0),
    "additive_floor": (-3.0, 3.0),
}


def _ratio(observed, allowed):
    if allowed == 0.0:
        return 0.0 if observed == 0.0 else math.inf
    return observed / allowed


def _probe(model, n_probe, seed):
    """Worst observed/declared ratios of a model's constants at ``n_probe``
    point pairs drawn uniformly from its probe box^d, at times drawn
    uniformly from [0, horizon]: (Lipschitz of the drift, Lipschitz of
    the diffusion, linear growth, noise floor).  The first three hold
    when at most 1, the floor (+inf when sigma_B = 0) when at least 1.
    """
    lo, hi = PROBE_BOXES[model.name]
    rng = _rng(0xA55E55, seed, model.d)
    xs = rng.uniform(lo, hi, size=(n_probe, model.d))
    ys = rng.uniform(lo, hi, size=(n_probe, model.d))
    ts = rng.uniform(0.0, model.horizon, size=n_probe)
    lip_a = lip_b = growth = 0.0
    floor = math.inf
    for t, x, y in zip(ts, xs, ys):
        ax, ay = model.drift(t, x[None, :])[0], model.drift(t, y[None, :])[0]
        bx, by = model.diffusion(t, x[None, :]), model.diffusion(t, y[None, :])
        if model.diagonal_noise:
            bx, by = np.diag(bx[0]), np.diag(by[0])
        assert np.isfinite(ax).all() and np.isfinite(bx).all(), (model.name, x)
        gap = float(np.linalg.norm(x - y))
        lip_a = max(lip_a, _ratio(float(np.linalg.norm(ax - ay)), model.C_Lip * gap))
        lip_b = max(lip_b, _ratio(float(np.linalg.norm(bx - by)), model.C_Lip * gap))
        sq = float(ax @ ax + np.sum(bx * bx))
        growth = max(growth, sq / (model.C_lgb * (1.0 + float(x @ x))))
        if model.sigma_B > 0:
            floor = min(floor, float(np.linalg.eigvalsh(bx @ bx.T)[0]) / model.sigma_B)
    return lip_a, lip_b, growth, floor


def test_unknown_model():
    with pytest.raises(BadParams, match="unknown model"):
        builtin("ornstein")


def test_bad_params_rejected():
    with pytest.raises(BadParams):
        builtin("ou", bogus=3.0)
    with pytest.raises(BadParams):
        builtin("ou", kappa=-1.0)
    with pytest.raises(BadParams):
        builtin("mode_crossing", t_star=0.0)


@pytest.mark.parametrize("name, params", [
    ("ou", {"kappa": math.nan}),
    ("ou", {"sigma": math.inf}),
    ("linear_lowrank", {"lambdas": (math.nan, -1.0)}),
    ("linear_lowrank", {"sigma_b": (0.5, -math.inf)}),
    ("gbm_clipped", {"clip": math.nan}),
    ("gbm_clipped", {"mu": math.inf}),
    ("mode_crossing", {"t_star": -math.inf}),
    ("additive_floor", {"alpha": math.nan}),
    ("additive_floor", {"sigma": "0.5"}),
    ("linear_lowrank", {"lambdas": ((-1.0,), (-1.0, -2.0))}),  # ragged
])
def test_non_finite_parameters_rejected(name, params):
    key = next(iter(params))
    with pytest.raises(BadParams, match="%s: %s must be finite reals" % (name, key)):
        builtin(name, **params)


@pytest.mark.parametrize("name, params, needle", [
    ("ou", {"d": 0}, "d must be a positive integer"),
    ("ou", {"sigma": -0.5}, "need kappa > 0 and sigma >= 0"),
    ("gbm_clipped", {"d": 0}, "d must be a positive integer"),
    ("gbm_clipped", {"sigma": -0.2}, "need sigma >= 0 and clip > 0"),
    ("gbm_clipped", {"clip": 0.0}, "need sigma >= 0 and clip > 0"),
    ("additive_floor", {"d": 0}, "d must be a positive integer"),
    ("additive_floor", {"alpha": -0.25}, "need alpha >= 0 and sigma > 0"),
    ("additive_floor", {"sigma": 0.0}, "need alpha >= 0 and sigma > 0"),
    ("linear_lowrank", {"sigma_b": (0.5, 0.5, 0.5)}, "sigma_b length must match"),
])
def test_out_of_range_parameters_rejected(name, params, needle):
    with pytest.raises(BadParams, match="%s: %s" % (name, needle)):
        builtin(name, **params)


def test_linear_lowrank_takes_one_noise_scale_per_mode():
    model = builtin("linear_lowrank", lambdas=(-0.5, -2.0), sigma_b=(0.5, 2.0), d=4)
    B = model.diffusion(0.0, np.zeros((1, 4)))
    assert np.allclose(np.linalg.norm(B, axis=0), [0.5, 2.0], rtol=1e-15)
    assert model.C_lgb == 4.25  # max(|lambda|^2, 0.5^2 + 2^2)


def test_every_builtin_has_consistent_shapes():
    rng = np.random.default_rng(0)
    for name in ALL_NAMES:
        model = builtin(name)
        X = rng.standard_normal((16, model.d))
        a = model.drift(0.0, X)
        b = model.diffusion(0.0, X)
        assert a.shape == (16, model.d), name
        if model.diagonal_noise:
            assert b.shape == (16, model.d) and model.m == model.d, name
        else:
            assert b.shape == (model.d, model.m), name
        assert model.C_lgb > 0 and model.horizon > 0, name


def test_ou_drift_is_linear():
    model = builtin("ou", kappa=2.0, sigma=0.3, d=3)
    X = np.random.default_rng(1).standard_normal((8, 3))
    assert np.array_equal(model.drift(0.0, X), -2.0 * X)
    b = model.diffusion(0.0, X)
    assert np.array_equal(b, 0.3 * np.eye(3))
    assert model.sigma_B == pytest.approx(0.09)


def test_linear_lowrank_span_is_invariant():
    model = builtin("linear_lowrank")
    U0 = model.basis
    # drift of a state inside the planted span stays inside it
    Y = np.random.default_rng(2).standard_normal((32, U0.shape[0]))
    X = Y @ U0
    a = model.drift(0.0, X)
    resid = a - (a @ U0.T) @ U0
    assert np.linalg.norm(resid) < 1e-12
    # rate check: with X = e_span rows, drift = lambda * X on each mode
    lam = np.array([-0.5, -2.0])  # the default lambdas
    assert np.allclose(a, (Y * lam) @ U0, atol=1e-12)


def test_gbm_clip_saturates_diffusion():
    model = builtin("gbm_clipped", mu=0.1, sigma=0.5, clip=2.0, d=2)
    X = np.array([[10.0, -10.0], [1.0, -1.0]])
    b = model.diffusion(0.0, X)
    assert model.diagonal_noise and b.shape == (2, 2)
    # the per-atom diagonals are sigma * clip(x)
    assert np.allclose(b, 0.5 * np.clip(X, -2.0, 2.0))
    # drift is not clipped
    assert np.array_equal(model.drift(0.0, X), 0.1 * X)


def test_mode_crossing_constant_drift():
    model = builtin("mode_crossing", t_star=2.0, d=5)
    X = np.random.default_rng(3).standard_normal((4, 5))
    a = model.drift(0.3, X)
    expect = np.zeros(5)
    expect[1] = -0.5  # -e_2 / t_star
    assert np.array_equal(a, np.broadcast_to(expect, (4, 5)))
    assert model.C_Lip == 0.0
    assert np.array_equal(model.diffusion(0.0, X), np.zeros((5, 1)))


def test_additive_floor_drift_formula():
    model = builtin("additive_floor", alpha=0.5, sigma=0.25, d=2)
    X = np.array([[0.5, -3.0]])
    assert np.allclose(model.drift(0.0, X), -X + 0.5 * np.tanh(X), atol=1e-15)
    assert model.sigma_B == pytest.approx(0.0625)


def test_declared_constants_hold_on_probe_box():
    for name in ALL_NAMES:
        lip_a, lip_b, growth, floor = _probe(builtin(name), n_probe=512, seed=1)
        assert max(lip_a, lip_b, growth) <= 1.0 + 1e-9, name
        assert floor >= 1.0 - 1e-9, name


def test_probe_catches_an_understated_lipschitz_constant():
    # drift -4 x against a declared C_Lip of 1: every pair's drift ratio is 4
    model = dataclasses.replace(builtin("ou", kappa=4.0, sigma=0.1, d=2), C_Lip=1.0)
    lip_a, _, _, _ = _probe(model, n_probe=256, seed=2)
    assert lip_a > 1.0 + 1e-9
    assert lip_a == pytest.approx(4.0, rel=1e-12)


# ---------------------------------------------------------------- initial data


def test_whiten_gives_identity_gram():
    Y = whiten(np.random.default_rng(5).standard_normal((256, 3)))
    rep = kernels.gram(Y)
    assert np.allclose(rep.gram, np.eye(3), atol=1e-12)


@pytest.mark.parametrize("eps", [0.0, 1e-7])
def test_whiten_refuses_a_singular_gram(eps):
    # eps = 1e-7 passes Cholesky but sits below kernels.gram's relative
    # threshold (lambda_min <= 1e-10 trace), so whiten refuses it too.
    g, h = np.random.default_rng(5).standard_normal((2, 64))
    with pytest.raises(InvalidEnsemble, match="singular Gram"):
        whiten(np.column_stack([g, g + eps * h]))


def _folded_key(key):
    """The 128-bit integer ``_rng`` folds its key tuple into."""
    k = 0
    for part in key:
        k = (k * 0x9E3779B97F4A7C15 + part % 2**64) % 2**128
    return k


@pytest.mark.parametrize("key", [(0, 2), (5, 3), (0xD05DE, 1, 250), (2**70, 3), (-1, 4)])
def test_rng_is_philox_keyed_by_the_folded_integer(key):
    # numpy reads an integer Philox key k as the words [k mod 2^64, k >> 64].
    expected = np.random.Generator(np.random.Philox(key=_folded_key(key)))
    got = _rng(*key)
    assert np.array_equal(got.bit_generator.random_raw(8), expected.bit_generator.random_raw(8))
    assert got.standard_normal(64).tobytes() == expected.standard_normal(64).tobytes()


def test_initial_datum_validation():
    U = np.array([[1.0, 0.0], [0.0, 2.0]])  # not orthonormal
    Y = np.random.default_rng(6).standard_normal((8, 2))
    with pytest.raises(InvalidEnsemble):
        DoState(t=0.0, U=U, Y=Y).validate()
    # coefficient columns must be linearly independent in the ensemble sense
    Y_dup = np.column_stack([Y[:, 0], Y[:, 0]])
    with pytest.raises(InvalidEnsemble):
        DoState(t=0.0, U=np.eye(2), Y=Y_dup).validate()


def test_default_initial_full_rank_uses_identity():
    model = builtin("ou", d=4)
    init = default_initial(model, N=32, R=4, seed=0)
    assert np.array_equal(init.U, np.eye(4))
    assert np.array_equal(init.product(), init.Y)


def test_default_initial_low_rank_is_whitened():
    model = builtin("ou", d=4)
    init = default_initial(model, N=128, R=2, seed=0)
    assert init.U.shape == (2, 4)
    assert np.allclose(init.U @ init.U.T, np.eye(2), atol=1e-12)
    assert np.allclose(kernels.gram(init.Y).gram, np.eye(2), atol=1e-12)


def test_default_initial_mode_crossing_plant():
    model = builtin("mode_crossing")
    init = default_initial(model, N=64, R=2, seed=0)
    # second coefficient is the deterministic constant 1
    assert np.array_equal(init.Y[:, 1], np.ones(64))
    # first is exactly centered and unit-normalized in the ensemble metric
    assert float(np.sum(init.Y[:, 0])) == pytest.approx(0.0, abs=1e-13)
    assert float(np.mean(init.Y[:, 0] ** 2)) == pytest.approx(1.0, rel=1e-13)
    with pytest.raises(BadParams):
        default_initial(model, N=64, R=3, seed=0)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_default_initial_needs_at_least_R_atoms(name):
    model = builtin(name, d=4)
    with pytest.raises(BadParams, match="need at least R atoms"):
        default_initial(model, N=2, R=3, seed=0)


@pytest.mark.parametrize("seed", [1.5, 1.0, True])
def test_default_initial_rejects_a_seed_that_is_not_an_int(seed):
    with pytest.raises(BadParams, match="seed must be an integer"):
        default_initial(builtin("ou", d=4), N=16, R=2, seed=seed)


@pytest.mark.parametrize("R", [2.0, True])
def test_default_initial_rejects_a_rank_that_is_not_an_int(R):
    with pytest.raises(BadParams, match="R must be an integer"):
        default_initial(builtin("ou", d=4), N=8, R=R, seed=0)


def test_default_initial_rank_is_at_most_d():
    model = builtin("ou", d=2)
    with pytest.raises(BadParams, match="need 1 <= R <= d, got R=3, d=2"):
        default_initial(model, N=16, R=3, seed=0)


def test_default_initial_linear_lowrank_needs_matching_rank():
    model = builtin("linear_lowrank")
    init = default_initial(model, N=64, R=2, seed=0)
    assert np.array_equal(init.U, model.basis)
    with pytest.raises(BadParams):
        default_initial(model, N=64, R=3, seed=0)


def test_mode_crossing_initial_datum_does_not_depend_on_blas_threads():
    # xi is normalised by an atom-axis sum; one left to a BLAS dot is split
    # across threads and changes its last bits at this N.
    script = (
        "import hashlib, dosde\n"
        "from dosde import models\n"
        "model = models.builtin('mode_crossing', d=4)\n"
        "Y = models.default_initial(model, 100000, 2).Y\n"
        "print(hashlib.sha256(Y.tobytes()).hexdigest())\n"
    )

    def digest(threads):
        env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    one = digest(1)
    assert one == digest(2)
    model = builtin("mode_crossing", d=4)
    assert one == hashlib.sha256(default_initial(model, 100000, 2).Y.tobytes()).hexdigest()
