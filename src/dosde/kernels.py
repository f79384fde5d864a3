"""Ensemble linear algebra on a uniform finite sample space.

The probability space is a set of N equally weighted atoms.  A scalar
random variable is a length-N vector, an R-component random vector is an
N x R matrix (one row per atom), and expectations are plain averages,

    E[f g] = (1/N) * sum_i f_i * g_i,

so Gram matrices, projectors and low-rank factorizations below are exact
linear algebra on sample matrices.  Reductions over atoms use a fixed
order that depends only on N, never on how the work is scheduled.
``pairwise_sum`` is a fixed-shape pairwise tree.  ``mean_outer`` cuts
the atoms into aligned leaves of ``_LEAF`` atoms, reduces each leaf with
one BLAS product and sums the leaf results with the pairwise tree: its
bits are the same across reruns and BLAS thread counts (OpenBLAS splits
a product over output entries, not over the summed axis), but may change
with the CPU kernel OpenBLAS selects.  It is ``mean_outer_walk`` over a
B held whole; the walk also serves an ensemble that is made a block of
whole leaves at a time and never held whole.

The second half of the module collects the closed-form scalar bounds
used by the well-posedness and explosion machinery: the invertibility
radius ``eta_radius``, the local contraction window ``picard_delta``,
the second-moment growth envelope ``stability_bound_M``, the 2k-th
moment envelope ``moment_bound_2k`` and the coefficient Gram's uniform
noise floor ``noise_floor_bound``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidBoundInput, InvalidEnsemble, ShapeMismatch, SingularGram

# Relative spectral threshold: a Gram matrix counts as invertible when
# lambda_min > EPS_RANK * trace.
EPS_RANK = 1e-10

# Atoms per leaf of ``mean_outer``: one BLAS product each, so the
# partition, and with it the summation order, depends only on N.
_LEAF = 256

# Values a block of ``mean_outer_walk`` holds (512 KiB of float64);
# ``paths`` streams its Brownian chunks in the same budget.
_BLOCK_VALUES = 1 << 16


def pairwise_sum(values):
    """Sum along axis 0 with a fixed-shape pairwise tree.

    Adjacent elements are paired level by level, an odd last element
    carried up unchanged, so the reduction order depends only on the
    axis length.  Bit-identical results regardless of threading or
    chunking, and better rounding than a running sum.
    """
    a = np.asarray(values, dtype=float)
    if a.ndim == 0:
        raise InvalidEnsemble("cannot reduce a 0-D value over atoms")
    n = a.shape[0]
    if n == 0:
        raise InvalidEnsemble("cannot reduce an empty axis")
    while n > 1:
        half, odd = divmod(n, 2)
        level = np.empty((half + odd,) + a.shape[1:])
        np.add(a[0 : 2 * half : 2], a[1 : 2 * half : 2], out=level[:half])
        if odd:
            level[half] = a[n - 1]
        a, n = level, half + odd
    return a[0].copy()


def ensemble_mean(values):
    """Expectation over atoms (axis 0): pairwise sum divided by the atom count."""
    a = np.asarray(values, dtype=float)
    return pairwise_sum(a) / a.shape[0]


def mean_outer(A, B):
    """E[A B^T] for ensembles A (N x p) and B (N x q), shape (p, q).

    Aligned leaves of ``_LEAF`` atoms (the last may be shorter) are each
    reduced by one product A_leaf^T B_leaf, and the leaf results are
    summed with ``pairwise_sum``.  Inputs are made C-contiguous first,
    so the bits do not depend on their memory layout (numpy takes other
    code paths for some strided operands), and B is walked by
    ``mean_outer_walk``.  ``mean_outer(Y, Y)`` is exactly symmetric: on
    one buffer numpy computes X^T X with syrk.
    """
    same = B is A
    A = np.ascontiguousarray(A, dtype=float)
    B = A if same else np.ascontiguousarray(B, dtype=float)
    if A.ndim != 2 or B.ndim != 2:
        raise InvalidEnsemble(
            "mean_outer needs two 2-D ensembles, got ndim %d and %d" % (A.ndim, B.ndim)
        )
    if A.shape[0] != B.shape[0]:
        raise ShapeMismatch(
            "atom counts differ: %d vs %d" % (A.shape[0], B.shape[0])
        )
    if A.shape[0] == 0:
        raise InvalidEnsemble("cannot reduce an empty axis")
    # Blocks of one buffer are views of it, so each leaf is still syrk.
    return mean_outer_walk(A, B.shape[1], B.__getitem__)


def mean_outer_walk(A, q, block):
    """E[A B^T] for an ensemble B (N x q) that is made one block of atoms
    at a time and never held whole: ``block(rows)`` returns B[rows] for a
    slice ``rows`` of the atoms, called in atom order.

    A block is a run of whole leaves holding about ``_BLOCK_VALUES``
    values of B, and at least one leaf.  Each block's leaf products, on
    C-contiguous copies, fill one leaf array that ``pairwise_sum`` adds,
    so the result has ``mean_outer(A, B)``'s bits: that is this walk
    over a B held whole.
    """
    A = np.ascontiguousarray(A, dtype=float)
    n = A.shape[0]
    leaves = np.empty((-(-n // _LEAF), A.shape[1], q))
    span = max(1, _BLOCK_VALUES // (max(q, 1) * _LEAF)) * _LEAF
    for s in range(0, n, span):
        B = np.ascontiguousarray(block(slice(s, s + span)), dtype=float)
        # One BLAS product per aligned leaf (the last may be shorter).
        for i, r in enumerate(range(0, B.shape[0], _LEAF), start=s // _LEAF):
            np.matmul(A[s + r : s + r + _LEAF].T, B[r : r + _LEAF], out=leaves[i])
    return pairwise_sum(leaves) / n


def mean_sq_norm(A):
    """E|A|^2 for an ensemble A (N x k): mean over atoms of the squared row norms."""
    A = np.asarray(A)
    if A.ndim != 2:
        raise InvalidEnsemble("expected an N x k ensemble, got ndim=%d" % A.ndim)
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
    and ``eigenvectors`` holds the matching unit eigenvectors as columns;
    ``leading_modes`` reads them in non-increasing order.
    """

    gram: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    inverse: np.ndarray | None
    lambda_min: float
    inv_frobenius: float


def gram(Y):
    """Gram matrix of an ensemble with spectral report.

    Every ensemble Gram and its spectrum comes from here: the
    coefficient Gram C_Y (``models.whiten``'s too), and the second moment
    E[X X^T] of a full state X read as a d-column ensemble
    (``second_moment_svd``).

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
    # Each leaf Y^T Y is a syrk product, exactly symmetric, and the tree
    # adds (j,k) and (k,j) alike, so C is exactly symmetric; eigh needs
    # no symmetrization.
    vals, vecs, inv = _eigh_inverse(C)
    return GramReport(
        gram=C,
        eigenvalues=vals,
        eigenvectors=vecs,
        inverse=inv,
        lambda_min=max(float(vals[0]), 0.0),
        inv_frobenius=math.inf if inv is None else float(math.sqrt(np.sum((1.0 / vals) ** 2))),
    )


def leading_modes(rep, rel_threshold):
    """Eigenpairs of a GramReport in non-increasing order, and how many
    lead above ``rel_threshold * trace``: (values, vectors as columns, count).

    The sort is stable, so tied eigenvalues keep the solver's
    ascending-index order.
    """
    order = np.argsort(-rep.eigenvalues, kind="stable")
    vals = rep.eigenvalues[order]
    threshold = rel_threshold * max(float(np.trace(rep.gram)), 0.0)
    return vals, rep.eigenvectors[:, order], int(np.count_nonzero(vals > threshold))


def _eigh_inverse(G):
    """Ascending eigenpairs of a symmetric G, and G^-1 when lambda_min
    clears the relative threshold EPS_RANK * trace (else None)."""
    vals, vecs = np.linalg.eigh(G)
    threshold = EPS_RANK * max(float(np.trace(G)), 0.0)
    inv = (vecs / vals) @ vecs.T if vals[0] > threshold else None
    return vals, vecs, inv


def fix_signs(Q):
    """C-order copy of Q with each column negated where needed so that its
    largest-magnitude entry (the first one, on ties) is positive."""
    Q = np.array(Q, dtype=float, order="C")
    rows = np.argmax(np.abs(Q), axis=0)
    Q *= np.where(Q[rows, np.arange(Q.shape[1])] < 0, -1.0, 1.0)
    return Q


def projector_row(U):
    """Orthogonal projector onto the row space of U: U^T (U U^T)^-1 U.

    U need not have orthonormal rows.  Raises SingularGram when U U^T
    is below the relative spectral threshold.
    """
    U = np.asarray(U, dtype=float)
    if U.ndim != 2:
        raise InvalidEnsemble("U must be 2-D")
    vals, _, inverse = _eigh_inverse(U @ U.T)
    if inverse is None:
        raise SingularGram("row Gram of U is singular (lambda_min=%g)" % vals[0])
    return U.T @ inverse @ U


def projector_stochastic(Y, f):
    """Project a random vector onto the span of the coefficients of Y.

    Componentwise L2(Omega) projection: (P f)_i = Y_i . C_Y^-1 E[Y f].
    ``f`` is (N, k), and so is the output.
    """
    Y = as_ensemble(Y, "Y")
    F = np.asarray(f, dtype=float)
    if F.ndim != 2:
        raise InvalidEnsemble("f must be 2-D, got ndim=%d" % F.ndim)
    if F.shape[0] != Y.shape[0]:
        raise ShapeMismatch(
            "atom counts differ: %d vs %d" % (Y.shape[0], F.shape[0])
        )
    rep = gram(Y)
    if rep.inverse is None:
        raise SingularGram("coefficient Gram is singular", report=rep)
    return Y @ (rep.inverse @ mean_outer(Y, F))


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

    E[X X^T] is the Gram of X read as a d-column coefficient ensemble,
    so its spectrum is ``leading_modes(gram(X), rel_threshold)``.
    Eigenvalues below ``rel_threshold * trace`` are discarded; rank 0
    (empty factors) is a legal outcome.  Eigenvector signs are fixed so
    each retained column's largest-magnitude entry is positive, and
    eigenvalue ties keep the solver's ascending-index order.
    """
    X = as_ensemble(X, "X")
    vals, vecs, keep = leading_modes(gram(X), rel_threshold)
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
    if not (type(R) is int and R >= 1):
        raise InvalidBoundInput("R must be a positive integer, got %r" % (R,))
    if not (type(d) is int and d >= 1):
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
    if not (type(n) is int and n >= 0):
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
    if not (type(k) is int and k >= 1):
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


def noise_floor_bound(sigma_B, C_lgb, M_T, sigma_Y0):
    """Uniform floor min(sigma_Y0, sigma_B^2 / (4 C_lgb (1 + M_T))) of the
    coefficient Gram spectrum: sigma_Y0 is its least eigenvalue at time 0,
    M_T the second-moment envelope, and sigma_B > 0 the noise floor."""
    _require_positive(sigma_B=sigma_B, C_lgb=C_lgb)
    return min(sigma_Y0, sigma_B**2 / (4.0 * C_lgb * (1.0 + M_T)))


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
