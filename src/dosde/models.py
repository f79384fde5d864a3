"""Builtin SDE test models dX = a(t, X) dt + b(t, X) dW with declared constants.

Drift and diffusion are vectorized over atoms: ``drift(t, X)`` accepts
an (N, d) sample block and returns (N, d).  ``diffusion(t, X)`` has one
of two forms: a constant (d, m) matrix B, applied as B dW, or, when the
model sets ``diagonal_noise``, an (N, d) block v of per-atom diagonals
(m = d), applied entrywise as v * dW.  No per-atom (N, d, m) matrix is
built.  Each model declares the constants behind the bounds: global
Lipschitz ``C_Lip``, linear growth ``C_lgb`` and uniform noise floor
``sigma_B`` with b b^T >= sigma_B I.  The tests check the declarations
numerically on a probe box per model.

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
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernels
from .errors import BadParams, InvalidEnsemble
from .integrators import DoState
from .paths import _MASK64, philox


def _rng(*key):
    """Deterministic generator from an integer key tuple."""
    k = 0
    for part in key:
        k = (k * 0x9E3779B97F4A7C15 + (int(part) & _MASK64)) & ((1 << 128) - 1)
    return np.random.Generator(philox(k & _MASK64, k >> 64))


def _readonly(a):
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SdeModel:
    """Immutable bundle of coefficients and their declared constants.

    ``diffusion(t, X)`` returns a constant (d, m) matrix, or, when
    ``diagonal_noise`` is set, the (N, d) per-atom diagonals of b with
    m = d (see the module docstring).  ``C_Lip``, ``C_lgb`` and
    ``sigma_B`` are the declared constants, and ``horizon`` is the
    model's documented time span.
    """

    name: str
    d: int
    m: int
    drift: Callable
    diffusion: Callable
    C_Lip: float
    C_lgb: float
    sigma_B: float
    horizon: float
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
        horizon=1.0,
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
        horizon=1.0,
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
        horizon=1.0,
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
        horizon=1.2 * t_star,
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
        horizon=10.0,
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

    Raises BadParams for an unregistered name and for unknown,
    non-finite or out-of-range parameters.
    """
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise BadParams(
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


def whiten(Y):
    """Rescale coefficients so the empirical Gram ``kernels.gram(Y)`` is the
    identity.  Raises InvalidEnsemble when that Gram is singular by
    ``kernels.gram``'s relative test (no inverse), not only when Cholesky fails."""
    Y = kernels.as_ensemble(Y, "Y")
    rep = kernels.gram(Y)
    if rep.inverse is None:
        raise InvalidEnsemble("cannot whiten a singular Gram (lambda_min=%g)" % rep.lambda_min)
    return np.linalg.solve(np.linalg.cholesky(rep.gram), Y.T).T


def default_initial(model, N, R, seed=0):
    """Documented initial datum for each builtin: a validated DoState at t = 0.

    ou / gbm_clipped / additive_floor: seeded orthonormal basis plus
    whitened Gaussian coefficients.  linear_lowrank: the model's planted
    basis (R must match).  mode_crossing: the planted collinearity
    ensemble [xi, 1] with xi exactly centered and normalized.
    """
    if type(seed) is not int:
        raise BadParams("seed must be an integer, got %r" % (seed,))
    if not (type(N) is int and N >= 2):
        raise BadParams("need at least 2 atoms, got %r" % (N,))
    if type(R) is not int:
        raise BadParams("R must be an integer, got %r" % (R,))
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
