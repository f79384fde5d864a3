"""Builtin SDE test models dX = a(t, X) dt + b(t, X) dW with declared constants.

Drift and diffusion are vectorized over atoms: ``drift(t, X)`` accepts
an (N, d) sample block and returns (N, d).  ``diffusion(t, X)`` has one
of two forms: a constant (d, m) matrix B, applied as B dW, or, when the
model sets ``diagonal_noise``, an (N, d) block v of per-atom diagonals
(m = d), applied entrywise as v * dW.  No per-atom (N, d, m) matrix is
built.  Declared constants (global Lipschitz ``C_Lip``, linear growth
``C_lgb``, uniform noise-floor ``sigma_B`` with b b^T >= sigma_B I) can
be spot-checked on the documented probe box with
``validate_assumptions``, which builds the dense diagonal only at its
probe points.

The zoo covers the regimes the integrators have to survive:

- ``ou``             isotropic contraction with additive noise,
- ``linear_lowrank`` an exactly rank-R invariant linear system,
- ``gbm_clipped``    multiplicative noise with saturating volatility,
- ``mode_crossing``  noiseless constant drift that makes two coefficient
                     modes collinear at a planted time t*,
- ``additive_floor`` nonlinear Lipschitz drift plus additive noise, the
                     regime with a provable Gram eigenvalue floor.
"""

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import kernels
from .errors import AssumptionViolated, BadParams, UnknownModel
from .integrators import DoState
from .paths import _MASK64


def _rng(*key):
    """Deterministic generator from an integer key tuple."""
    k = 0
    for part in key:
        k = (k * 0x9E3779B97F4A7C15 + (int(part) & _MASK64)) & ((1 << 128) - 1)
    return np.random.Generator(np.random.Philox(key=k))


def _readonly(a):
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SdeModel:
    """Immutable bundle of coefficients and their declared constants.

    ``diffusion(t, X)`` returns a constant (d, m) matrix, or, when
    ``diagonal_noise`` is set, the (N, d) per-atom diagonals of b with
    m = d (see the module docstring).
    """

    name: str
    d: int
    m: int
    drift: Callable
    diffusion: Callable
    C_Lip: float
    C_lgb: float
    sigma_B: float
    box: tuple
    horizon: float
    params: dict = field(default_factory=dict)
    basis: np.ndarray | None = None  # planted row basis, when the model has one
    diagonal_noise: bool = False


def _ou(kappa=1.0, sigma=1.0, d=4):
    if not (isinstance(d, int) and d >= 1):
        raise BadParams("ou: d must be a positive integer, got %r" % (d,))
    if kappa <= 0 or sigma < 0:
        raise BadParams("ou: need kappa > 0 and sigma >= 0")
    B = _readonly(sigma * np.eye(d))

    def drift(t, x):
        return -kappa * np.asarray(x, dtype=float)

    def diffusion(t, x):
        return B

    return SdeModel(
        name="ou",
        d=d,
        m=d,
        drift=drift,
        diffusion=diffusion,
        C_Lip=kappa,
        C_lgb=max(kappa * kappa, sigma * sigma * d),
        sigma_B=sigma * sigma,
        box=(-3.0, 3.0),
        horizon=1.0,
        params={"kappa": kappa, "sigma": sigma, "d": d},
    )


def _planted_basis(d, R, key):
    """Deterministic orthonormal rows (R x d), sign-fixed."""
    G = _rng(0xD05DE, key, d * 31 + R).standard_normal((d, R))
    Q, _ = np.linalg.qr(G)
    return kernels.fix_signs(Q).T.copy()


def _linear_lowrank(lambdas=(-0.5, -2.0), sigma_b=0.5, d=8):
    lambdas = tuple(float(v) for v in np.atleast_1d(lambdas))
    R = len(lambdas)
    if not (isinstance(d, int) and d >= R >= 1):
        raise BadParams("linear_lowrank: need d >= len(lambdas) >= 1")
    if np.isscalar(sigma_b):
        sigmas = (float(sigma_b),) * R
    else:
        sigmas = tuple(float(v) for v in sigma_b)
        if len(sigmas) != R:
            raise BadParams("linear_lowrank: sigma_b length must match lambdas")
    if any(s < 0 for s in sigmas):
        raise BadParams("linear_lowrank: sigma_b must be non-negative")
    U0 = _planted_basis(d, R, 1)
    lam = np.array(lambdas)
    sig = np.array(sigmas)
    B = _readonly(U0.T * sig[None, :])  # columns sigma_r * (row r of U0)^T

    def drift(t, x):
        # a(x) = A x with A = U0^T diag(lambda) U0; rows are atoms.
        x = np.asarray(x, dtype=float)
        return ((x @ U0.T) * lam) @ U0

    def diffusion(t, x):
        return B

    norm_A = float(np.max(np.abs(lam)))
    fro_B_sq = float(np.sum(sig**2))
    return SdeModel(
        name="linear_lowrank",
        d=d,
        m=R,
        drift=drift,
        diffusion=diffusion,
        C_Lip=norm_A,
        C_lgb=max(norm_A * norm_A, fro_B_sq) if max(norm_A, fro_B_sq) > 0 else 1.0,
        sigma_B=0.0,
        box=(-3.0, 3.0),
        horizon=1.0,
        params={"lambdas": lambdas, "sigma_b": sigmas, "d": d},
        basis=_readonly(U0),
    )


def _gbm_clipped(mu=0.05, sigma=0.2, clip=5.0, d=4):
    if not (isinstance(d, int) and d >= 1):
        raise BadParams("gbm_clipped: d must be a positive integer")
    if sigma < 0 or clip <= 0:
        raise BadParams("gbm_clipped: need sigma >= 0 and clip > 0")

    def drift(t, x):
        return mu * np.asarray(x, dtype=float)

    def diffusion(t, x):
        return sigma * np.clip(np.asarray(x, dtype=float), -clip, clip)

    return SdeModel(
        name="gbm_clipped",
        d=d,
        m=d,
        drift=drift,
        diffusion=diffusion,
        C_Lip=max(abs(mu), sigma),
        C_lgb=mu * mu + sigma * sigma if (mu, sigma) != (0.0, 0.0) else 1.0,
        sigma_B=0.0,
        box=(-10.0, 10.0),
        horizon=1.0,
        params={"mu": mu, "sigma": sigma, "clip": clip, "d": d},
        diagonal_noise=True,
    )


def _mode_crossing(t_star=1.0, d=4):
    if not (isinstance(d, int) and d >= 2):
        raise BadParams("mode_crossing: d must be an integer >= 2")
    if not (t_star > 0 and math.isfinite(t_star)):
        raise BadParams("mode_crossing: t_star must be positive and finite")
    # Planted basis: first two coordinate rows.  The constant drift
    # -e2 / t_star shrinks every atom's second planted coordinate from 1
    # to 0 linearly, so the two coefficient modes become collinear at
    # exactly t = t_star while the drift stays globally Lipschitz.
    U0 = np.zeros((2, d))
    U0[0, 0] = 1.0
    U0[1, 1] = 1.0
    c = _readonly(-U0[1] / t_star)

    def drift(t, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(c, x.shape)

    zero = _readonly(np.zeros((d, 1)))

    def diffusion(t, x):
        return zero

    return SdeModel(
        name="mode_crossing",
        d=d,
        m=1,
        drift=drift,
        diffusion=diffusion,
        C_Lip=0.0,
        C_lgb=1.0 / (t_star * t_star),
        sigma_B=0.0,
        box=(-3.0, 3.0),
        horizon=1.2 * t_star,
        params={"t_star": t_star, "d": d},
        basis=_readonly(U0),
    )


def _additive_floor(alpha=0.25, sigma=0.5, d=2):
    if not (isinstance(d, int) and d >= 1):
        raise BadParams("additive_floor: d must be a positive integer")
    if not (0 <= alpha and sigma > 0):
        raise BadParams("additive_floor: need alpha >= 0 and sigma > 0")
    B = _readonly(sigma * np.eye(d))

    def drift(t, x):
        x = np.asarray(x, dtype=float)
        return -x + alpha * np.tanh(x)

    def diffusion(t, x):
        return B

    return SdeModel(
        name="additive_floor",
        d=d,
        m=d,
        drift=drift,
        diffusion=diffusion,
        C_Lip=1.0 + alpha,
        C_lgb=max((1.0 + alpha) ** 2, sigma * sigma * d),
        sigma_B=sigma * sigma,
        box=(-3.0, 3.0),
        horizon=10.0,
        params={"alpha": alpha, "sigma": sigma, "d": d},
    )


_BUILTINS = {
    "ou": _ou,
    "linear_lowrank": _linear_lowrank,
    "gbm_clipped": _gbm_clipped,
    "mode_crossing": _mode_crossing,
    "additive_floor": _additive_floor,
}

# Accepted keyword parameters per builtin, used for config validation.
PARAM_NAMES = {
    name: tuple(inspect.signature(f).parameters) for name, f in _BUILTINS.items()
}


def builtin(name, **params):
    """Construct a builtin model by name.

    Raises UnknownModel for unregistered names and BadParams for unknown,
    non-finite or out-of-range parameters.
    """
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise UnknownModel(
            "unknown model %r; builtins: %s" % (name, ", ".join(sorted(_BUILTINS)))
        ) from None
    allowed = set(PARAM_NAMES[name])
    extra = set(params) - allowed
    if extra:
        raise BadParams("%s: unknown parameters %s" % (name, ", ".join(sorted(extra))))
    for key, value in params.items():
        try:
            a = np.asarray(value)
            finite = a.dtype.kind in "iuf" and bool(np.isfinite(a).all())
        except ValueError:  # a ragged list
            finite = False
        if not finite:
            raise BadParams("%s: %s must be finite reals, got %r" % (name, key, value))
    return factory(**params)


@dataclass
class AssumptionReport:
    """Worst ratios observed while probing a model's declared constants.

    Every ratio is observed/declared, so anything above 1 is a
    violation.  ``floor_margin`` is min eig(b b^T) / sigma_B (only
    meaningful when sigma_B > 0).
    """

    lip_ratio_drift: float
    lip_ratio_diffusion: float
    growth_ratio: float
    floor_margin: float
    n_probe: int


def validate_assumptions(model, box=None, n_probe=256, seed=0, tol=1e-9):
    """Probe Lipschitz / growth / noise-floor claims on a box.

    Samples ``n_probe`` point pairs uniformly from box^d and times
    uniformly from [0, horizon], then compares observed increments to
    the declared constants.  Raises AssumptionViolated when any ratio
    exceeds 1 + tol.
    """
    if box is None:
        box = model.box
    lo, hi = float(box[0]), float(box[1])
    if not (hi > lo):
        raise BadParams("probe box must satisfy hi > lo")
    rng = _rng(0xA55E55, seed, model.d)
    xs = rng.uniform(lo, hi, size=(n_probe, model.d))
    ys = rng.uniform(lo, hi, size=(n_probe, model.d))
    ts = rng.uniform(0.0, model.horizon, size=n_probe)

    lip_a = 0.0
    lip_b = 0.0
    growth = 0.0
    floor = math.inf
    for t, x, y in zip(ts, xs, ys):
        ax = np.asarray(model.drift(t, x[None, :]), dtype=float)[0]
        ay = np.asarray(model.drift(t, y[None, :]), dtype=float)[0]
        bx = np.asarray(model.diffusion(t, x[None, :]), dtype=float)
        by = np.asarray(model.diffusion(t, y[None, :]), dtype=float)
        if model.diagonal_noise:
            bx, by = np.diag(bx[0]), np.diag(by[0])
        if not (np.isfinite(ax).all() and np.isfinite(bx).all()):
            raise AssumptionViolated("%s: non-finite coefficients at %r" % (model.name, x))
        gap = float(np.linalg.norm(x - y))
        if gap > 0:
            da = float(np.linalg.norm(ax - ay))
            db = float(np.linalg.norm(bx - by))
            lip_a = max(lip_a, _ratio(da, model.C_Lip * gap))
            lip_b = max(lip_b, _ratio(db, model.C_Lip * gap))
        sq = float(ax @ ax + np.sum(bx * bx))
        growth = max(growth, sq / (model.C_lgb * (1.0 + float(x @ x))))
        if model.sigma_B > 0:
            lam = float(np.linalg.eigvalsh(bx @ bx.T)[0])
            floor = min(floor, lam / model.sigma_B)
    report = AssumptionReport(
        lip_ratio_drift=lip_a,
        lip_ratio_diffusion=lip_b,
        growth_ratio=growth,
        floor_margin=floor,
        n_probe=n_probe,
    )
    worst = max(lip_a, lip_b, growth)
    if worst > 1.0 + tol:
        raise AssumptionViolated(
            "%s: declared constants violated (worst ratio %.6g)" % (model.name, worst)
        )
    if model.sigma_B > 0 and floor < 1.0 - tol:
        raise AssumptionViolated(
            "%s: noise floor sigma_B=%g not met (margin %.6g)"
            % (model.name, model.sigma_B, floor)
        )
    return report


def _ratio(observed, allowed):
    if allowed == 0.0:
        return 0.0 if observed == 0.0 else math.inf
    return observed / allowed


def whiten(Y):
    """Rescale coefficients so the empirical Gram is the identity."""
    Y = kernels.as_ensemble(Y, "Y")
    C = kernels.mean_outer(Y, Y)
    L = np.linalg.cholesky(C)
    return np.linalg.solve(L, Y.T).T


def default_initial(model, N, R, seed=0):
    """Documented initial datum for each builtin: a validated DoState at t = 0.

    ou / gbm_clipped / additive_floor: seeded orthonormal basis plus
    whitened Gaussian coefficients.  linear_lowrank: the model's planted
    basis (R must match).  mode_crossing: the planted collinearity
    ensemble [xi, 1] with xi exactly centered and normalized.
    """
    if not (isinstance(N, int) and N >= 2):
        raise BadParams("need at least 2 atoms, got %r" % (N,))
    if N < R:
        raise BadParams("need at least R atoms, got N=%d, R=%d" % (N, R))
    if model.name == "mode_crossing":
        if R != 2:
            raise BadParams("mode_crossing initial datum has rank 2, got R=%d" % R)
        xi = _rng(seed, 2).standard_normal(N)
        xi = xi - xi.mean()
        xi = xi / math.sqrt(kernels.mean_sq_norm(xi[:, None]))
        Y0 = np.column_stack([xi, np.ones(N)])
        return DoState(t=0.0, U=model.basis.copy(), Y=Y0).validate()
    if model.name == "linear_lowrank":
        if R != model.basis.shape[0]:
            raise BadParams(
                "linear_lowrank basis has rank %d, got R=%d" % (model.basis.shape[0], R)
            )
        U0 = model.basis.copy()
    else:
        if not (1 <= R <= model.d):
            raise BadParams("need 1 <= R <= d, got R=%d, d=%d" % (R, model.d))
        if R == model.d:
            # full rank: take the trivial factorization, X = Y exactly
            U0 = np.eye(model.d)
        else:
            U0 = _planted_basis(model.d, R, seed + 7)
    Y0 = whiten(_rng(seed, 3).standard_normal((N, R)))
    return DoState(t=0.0, U=U0, Y=Y0).validate()
