"""Ensemble linear algebra on a uniform finite sample space.

The probability space is a set of N equally weighted atoms.  A scalar
random variable is a length-N vector, an R-component random vector is an
N x R matrix (one row per atom), and expectations are plain averages,

    E[f g] = (1/N) * sum_i f_i * g_i,

so Gram matrices, projectors and low-rank factorizations below are exact
linear algebra on sample matrices.  All reductions over atoms go through
a fixed-shape pairwise summation tree, which makes results independent
of how the work is scheduled.

The second half of the module collects the closed-form scalar bounds
used by the well-posedness and explosion machinery: the invertibility
radius ``eta_radius``, the local contraction window ``picard_delta``,
the second-moment growth envelope ``stability_bound_M`` and the 2k-th
moment envelope ``moment_bound_2k``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidBoundInput,
    InvalidEnsemble,
    ShapeMismatch,
    SingularGram,
    SingularRowGram,
)

# Relative spectral threshold: a Gram matrix counts as invertible when
# lambda_min > EPS_RANK * trace.
EPS_RANK = 1e-10


def pairwise_sum(values, axis=0):
    """Sum along ``axis`` with a fixed-shape pairwise tree.

    Adjacent elements are paired level by level, so the reduction order
    depends only on the axis length.  Bit-identical results regardless
    of threading or chunking, and better rounding than a running sum.
    """
    a = np.asarray(values, dtype=float)
    if a.shape[axis] == 0:
        raise InvalidEnsemble("cannot reduce an empty axis")
    a = np.moveaxis(a, axis, 0)
    while a.shape[0] > 1:
        n = a.shape[0]
        m = n // 2
        s = a[0 : 2 * m : 2] + a[1 : 2 * m : 2]
        if n % 2:
            s = np.concatenate([s, a[n - 1 : n]], axis=0)
        a = s
    return a[0]


def ensemble_mean(values, axis=0):
    """Expectation over atoms: pairwise sum divided by the atom count."""
    a = np.asarray(values, dtype=float)
    return pairwise_sum(a, axis=axis) / a.shape[axis]


def mean_outer(A, B):
    """E[A B^T] for ensembles A (N x p) and B (N x q), shape (p, q)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape[0] != B.shape[0]:
        raise ShapeMismatch(
            "atom counts differ: %d vs %d" % (A.shape[0], B.shape[0])
        )
    return ensemble_mean(A[:, :, None] * B[:, None, :])


def mean_sq_norm(A):
    """E|A|^2 for an ensemble A (N x k): mean over atoms of the squared row norms."""
    return float(ensemble_mean(np.sum(A**2, axis=1)))


def as_ensemble(Y, name="ensemble"):
    """Validate an N x k sample matrix: 2-D, N >= 1, finite entries."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        raise InvalidEnsemble("%s must be 2-D, got ndim=%d" % (name, Y.ndim))
    if Y.shape[0] < 1 or Y.shape[1] < 1:
        raise InvalidEnsemble("%s must be non-empty, got shape %r" % (name, Y.shape))
    if not np.isfinite(Y).all():
        raise InvalidEnsemble("%s contains non-finite entries" % name)
    return Y


@dataclass
class GramReport:
    """Spectral summary of a coefficient Gram matrix C = E[Y Y^T].

    ``inverse`` is present exactly when lambda_min clears the relative
    threshold EPS_RANK * trace; ``inv_frobenius`` is +inf otherwise.
    ``eigenvalues`` are ascending, as returned by the symmetric solver,
    and ``eigenvectors`` holds the matching unit eigenvectors as columns.
    """

    gram: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    inverse: np.ndarray | None
    lambda_min: float
    sigma_R: float
    inv_frobenius: float
    rank: int


def gram(Y):
    """Gram matrix of a coefficient ensemble with spectral report.

    Parameters
    ----------
    Y : (N, R) array
        One atom per row.

    Returns
    -------
    GramReport
        gram[j, k] = (1/N) sum_i Y[i, j] Y[i, k], its eigendecomposition
        summary, and the inverse when the spectrum allows it.
    """
    Y = as_ensemble(Y, "Y")
    C = mean_outer(Y, Y)
    # The pairwise tree visits (j,k) and (k,j) in the same order, so C is
    # exactly symmetric; eigh needs no symmetrization.
    vals, vecs, threshold, inv = _eigh_inverse(C)
    return GramReport(
        gram=C,
        eigenvalues=vals,
        eigenvectors=vecs,
        inverse=inv,
        lambda_min=max(float(vals[0]), 0.0),
        sigma_R=float(np.abs(vals).min()),
        inv_frobenius=math.inf if inv is None else float(math.sqrt(np.sum((1.0 / vals) ** 2))),
        rank=int(np.count_nonzero(vals > threshold)),
    )


def _eigh_inverse(G):
    """Ascending eigenpairs of a symmetric G, the relative threshold
    EPS_RANK * trace, and G^-1 when lambda_min clears it (else None)."""
    vals, vecs = np.linalg.eigh(G)
    threshold = EPS_RANK * max(float(np.trace(G)), 0.0)
    inv = (vecs / vals) @ vecs.T if vals[0] > threshold else None
    return vals, vecs, threshold, inv


def fix_signs(Q):
    """C-order copy of Q with each column negated where needed so that its
    largest-magnitude entry (the first one, on ties) is positive."""
    Q = np.array(Q, dtype=float, order="C")
    rows = np.argmax(np.abs(Q), axis=0)
    Q *= np.where(Q[rows, np.arange(Q.shape[1])] < 0, -1.0, 1.0)
    return Q


def projector_row(U, gram_inverse=None):
    """Orthogonal projector onto the row space of U: U^T (U U^T)^-1 U.

    U need not have orthonormal rows.  Raises SingularRowGram when U U^T
    is below the relative spectral threshold.
    """
    U = np.asarray(U, dtype=float)
    if U.ndim != 2:
        raise InvalidEnsemble("U must be 2-D")
    if gram_inverse is None:
        vals, _, _, gram_inverse = _eigh_inverse(U @ U.T)
        if gram_inverse is None:
            raise SingularRowGram(
                "row Gram of U is singular (lambda_min=%g)" % vals[0]
            )
    return U.T @ gram_inverse @ U


def projector_stochastic(Y, f):
    """Project a random vector onto the span of the coefficients of Y.

    Componentwise L2(Omega) projection: (P f)_i = Y_i . C_Y^-1 E[Y f].
    ``f`` may be (N,) or (N, k); the output matches its shape.
    """
    Y = as_ensemble(Y, "Y")
    F = np.asarray(f, dtype=float)
    squeeze = F.ndim == 1
    if squeeze:
        F = F[:, None]
    if F.shape[0] != Y.shape[0]:
        raise ShapeMismatch(
            "atom counts differ: %d vs %d" % (Y.shape[0], F.shape[0])
        )
    rep = gram(Y)
    if rep.inverse is None:
        raise SingularGram("coefficient Gram is singular", report=rep)
    out = Y @ (rep.inverse @ mean_outer(Y, F))
    return out[:, 0] if squeeze else out


@dataclass
class SecondMomentFactors:
    """Truncated eigendecomposition of E[X X^T] over the atom ensemble.

    Q holds retained eigenvectors as columns (d x R'), ``gammas`` the
    matching eigenvalues in non-increasing order, and ``phis`` the
    coefficient functions phi_k = gamma_k^{-1/2} X q_k (N x R'), which
    are orthonormal in the ensemble inner product.
    """

    Q: np.ndarray
    gammas: np.ndarray
    phis: np.ndarray
    rank: int


def second_moment_svd(X, rel_threshold=EPS_RANK):
    """Canonical low-rank factors of an ensemble via its second moment.

    Eigenvalues of E[X X^T] below ``rel_threshold * trace`` are
    discarded; rank 0 (empty factors) is a legal outcome.  Eigenvector
    signs are fixed so each retained column's largest-magnitude entry is
    positive, and eigenvalue ties keep the solver's ascending-index
    order.
    """
    X = as_ensemble(X, "X")
    M = mean_outer(X, X)
    vals, vecs = np.linalg.eigh(M)
    # Stable sort keeps the ascending-index order of tied eigenvalues.
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    threshold = rel_threshold * max(float(np.trace(M)), 0.0)
    keep = int(np.count_nonzero(vals > threshold))
    Q = fix_signs(vecs[:, :keep])
    gammas = vals[:keep].copy()
    phis = (X @ Q) / np.sqrt(gammas)[None, :] if keep else np.zeros((X.shape[0], 0))
    return SecondMomentFactors(
        Q=Q,
        gammas=gammas,
        phis=phis,
        rank=keep,
    )


# ---------------------------------------------------------------------------
# Closed-form scalar bounds.
# ---------------------------------------------------------------------------


def _require_positive(**kwargs):
    for name, value in kwargs.items():
        if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
            raise InvalidBoundInput("%s must be a positive finite real, got %r" % (name, value))


def _require_nonnegative(**kwargs):
    for name, value in kwargs.items():
        if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0):
            raise InvalidBoundInput("%s must be a non-negative finite real, got %r" % (name, value))


def eta_radius(rho, gamma):
    """Invertibility radius eta(rho, gamma) = -rho + sqrt(rho^2 + 1/(2 gamma)).

    Strictly decreasing in both arguments.  Evaluated in the
    cancellation-free form x / (rho + sqrt(rho^2 + x)) with
    x = 1/(2 gamma).
    """
    _require_positive(rho=rho, gamma=gamma)
    x = 0.5 / gamma
    return x / (rho + math.sqrt(rho * rho + x))


def _admissible_eta(R, rho, gamma):
    """The smaller of eta(sqrt(R), sqrt(R)) and eta(rho, gamma)."""
    return min(eta_radius(math.sqrt(R), math.sqrt(R)), eta_radius(rho, gamma))


def picard_delta(R, rho, gamma, d, C_lgb):
    """Length of the local fixed-point window for given ensemble norms.

    Parameters
    ----------
    R : int
        Number of retained modes.
    rho : float
        L2 norm bound of the coefficient vector at time zero.
    gamma : float
        Frobenius norm of the inverse Gram at time zero.
    d : int
        Ambient dimension.
    C_lgb : float
        Linear-growth constant of the coefficients.

    Returns
    -------
    float
        delta <= 1; non-increasing in gamma.
    """
    if not (isinstance(R, int) and R >= 1):
        raise InvalidBoundInput("R must be a positive integer, got %r" % (R,))
    if not (isinstance(d, int) and d >= 1):
        raise InvalidBoundInput("d must be a positive integer, got %r" % (d,))
    _require_positive(rho=rho, gamma=gamma, C_lgb=C_lgb)
    eta = _admissible_eta(R, rho, gamma)
    eta_sq = eta * eta
    crowd = 1.0 + 3.0 * R * (3.0 * rho * rho + 1.0)
    term_det = min(1.0, eta_sq) / (36.0 * R * C_lgb * crowd)
    term_sto = min(eta_sq, float(R)) / (
        8.0
        * gamma
        * gamma
        * (3.0 * rho * rho + 1.0)
        * C_lgb
        * crowd
        * (math.sqrt(d) + math.sqrt(R)) ** 2
    )
    return min(1.0, term_det, term_sto)


def picard_delta_n(n, R, d, C_lgb, rho0_sq, gamma0_sq):
    """Window length at stopping level n.

    Uses the level norms rho_n = sqrt(rho0_sq + n) and
    gamma_n = sqrt(gamma0_sq + n); the admissible radius is the smaller
    of eta(rho_n, gamma_n) and eta(sqrt(R), sqrt(R)).
    """
    if not (isinstance(n, int) and n >= 0):
        raise InvalidBoundInput("n must be a non-negative integer, got %r" % (n,))
    _require_nonnegative(rho0_sq=rho0_sq, gamma0_sq=gamma0_sq)
    rho_n = math.sqrt(rho0_sq + n)
    gamma_n = math.sqrt(gamma0_sq + n)
    if rho_n <= 0 or gamma_n <= 0:
        raise InvalidBoundInput("level norms must be positive")
    return picard_delta(R, rho_n, gamma_n, d, C_lgb)


def _exp_or_inf(g):
    # long horizons overflow the exponential; the envelope saturates to inf
    try:
        return math.exp(g)
    except OverflowError:
        return math.inf


def stability_bound_M(T, E_Y0_sq, C_lgb):
    """Second-moment envelope M(T) = 3 (E|Y0|^2 + (1+T) T C) e^{3 (1+T) T C}."""
    _require_nonnegative(T=T, E_Y0_sq=E_Y0_sq)
    _require_positive(C_lgb=C_lgb)
    g = 3.0 * (1.0 + T) * T * C_lgb
    return 3.0 * (E_Y0_sq + (1.0 + T) * T * C_lgb) * _exp_or_inf(g)


def moment_bound_2k(k, T, E_Y0_2k, C_lgb):
    """Envelope for E|Y_t|^{2k}: (E|Y0|^{2k} + K1(T)) K2(T).

    K1(T) = 3 k^2 C T / (1 + 1/C)^{k-1} and
    K2(T) = exp(6 k^2 C (1 + 1/C) T).
    """
    if not (isinstance(k, int) and k >= 1):
        raise InvalidBoundInput("k must be a positive integer, got %r" % (k,))
    _require_nonnegative(T=T, E_Y0_2k=E_Y0_2k)
    _require_positive(C_lgb=C_lgb)
    K1, K2 = _moment_constants(k, T, C_lgb)
    return (E_Y0_2k + K1) * K2


def _moment_constants(k, T, C_lgb):
    """K1(T) and K2(T) of the 2k-th moment envelope."""
    K1 = 3.0 * k * k * C_lgb * T / (1.0 + 1.0 / C_lgb) ** (k - 1)
    K2 = _exp_or_inf(6.0 * k * k * C_lgb * (1.0 + 1.0 / C_lgb) * T)
    return K1, K2


@dataclass
class WellPosednessBounds:
    """Bundle of the closed-form constants for one initial datum."""

    rho: float
    gamma: float
    eta: float
    delta: float
    M_T: float
    K1: float
    K2: float


def well_posedness_bounds(R, d, rho, gamma, T, E_Y0_sq, C_lgb, k=1):
    """Evaluate every scalar bound for one run and return the bundle."""
    K1, K2 = _moment_constants(k, T, C_lgb)
    return WellPosednessBounds(
        rho=rho, gamma=gamma, eta=_admissible_eta(R, rho, gamma),
        delta=picard_delta(R, rho, gamma, d, C_lgb),
        M_T=stability_bound_M(T, E_Y0_sq, C_lgb), K1=K1, K2=K2,
    )
