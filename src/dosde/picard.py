"""Local Picard iteration for the coupled basis/coefficient system.

Starting from the constant pair (U0, Y0), each sweep maps a trajectory
pair to a new one via the two integral maps

    F1(U, Y)(t) = U0 + int_0^t C_{Y_s}^-1 E[Y_s a(s, U_s^T Y_s)^T] (I - P_{U_s}) ds
    F2(U, Y)(t) = Y0 + int_0^t U_s a ds + int_0^t U_s b dW_s

discretized with the left-point rule on the path's grid (``picard-demo``
cuts its window into ``picard.grid`` panels, 64 by default).  P_{U_s} is
the general row projector, since iterates need not keep orthonormal rows.

On a window shorter than ``picard_delta`` the sweeps contract: the
squared sup differences

    Delta_n = sup_t ||U^(n) - U^(n-1)||_F^2 + E[sup_t |Y^(n) - Y^(n-1)|^2]

decay superlinearly, and every iterate stays inside the admissible
region sup_t ||U||_F^2 <= 3R, E[sup_t |Y|^2] <= 3 rho^2 + 1.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ShapeMismatch, SingularGram
from .integrators import _atom_terms


@dataclass
class PicardResult:
    """End-of-window iterates and their decay numbers.

    ``U_end[n]`` (R x d) and ``Y_end[n]`` (N x R) are iterate n at the
    last grid point, t = K h; index 0 is the constant starting pair.
    ``sup_differences[n-1]`` is Delta_n, and the two ball diagnostics
    list sup_t ||U||_F^2 and E[sup_t |Y|^2] per iterate.
    """

    times: np.ndarray
    U_end: list
    Y_end: list
    sup_differences: list
    sup_U_sq: list
    exp_sup_Y_sq: list


def picard_local_solve(model, U0, Y0, path, n_iters=7):
    """Run ``n_iters`` Picard sweeps on the window covered by ``path``.

    The grid is the path's grid: K = path.n_steps left-point panels of
    width path.dt.  Raises SingularGram when an iterate's coefficient
    Gram (or an iterate's row Gram) degenerates, i.e. the iterate left
    the admissible ball.

    All sweeps run in one pass over the grid.  Iterate n at grid point
    j + 1 needs only iterate n - 1 up to point j, so at each point the
    iterates advance from the first up, each from its predecessor's
    value at j; ``path.increment(j)`` is read once and only the
    iterates' current values are held.  The panel sums add in
    ``cumsum``'s order and the sups are running maxima, so every number
    has the bits of sweeping one iterate at a time over the whole grid.
    Converged iterates share their panels: when iterate n - 1's value at
    j has the bytes of iterate n - 2's, iterate n takes iterate n - 1's
    panel instead of evaluating the same one again.  A failure stops its
    iterate and every later one, and the failure of the earliest iterate
    is raised at the end, as that sweep order would.
    """
    if type(n_iters) is not int or n_iters < 1:
        raise ShapeMismatch("n_iters must be a positive int, got %r" % (n_iters,))
    # Row-major whatever the caller passed: a sum of squares adds in
    # memory order.
    U0 = np.ascontiguousarray(U0, dtype=float)
    Y0 = np.ascontiguousarray(kernels.as_ensemble(Y0, "Y0"))
    R, d = U0.shape
    N = Y0.shape[0]
    if Y0.shape[1] != R:
        raise ShapeMismatch("Y0 has %d columns, U0 has %d rows" % (Y0.shape[1], R))
    if d != model.d:
        raise ShapeMismatch("U0 has %d columns, model has dimension %d" % (d, model.d))
    if path.N != N or path.m != model.m:
        raise ShapeMismatch("path atoms/channels do not match Y0/model")
    K = path.n_steps
    h = path.dt
    times = np.arange(K + 1) * h

    # Iterate n's value at the current grid point, and its panel sums so far.
    U = [U0] * (n_iters + 1)
    Y = [Y0] * (n_iters + 1)
    U_sum = [None] * (n_iters + 1)
    Y_sum = [None] * (n_iters + 1)
    # Running maxima over the grid points passed so far, per iterate.
    sup_U = np.full(n_iters + 1, -np.inf)
    sup_Y = np.full((n_iters + 1, N), -np.inf)
    diff_U = np.full(n_iters + 1, -np.inf)
    diff_Y = np.full((n_iters + 1, N), -np.inf)
    live = n_iters  # iterates 1..live have not failed
    failure = None

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
        Uj, Yj = U[:live], Y[:live]  # iterates 0 .. live - 1 at point j
        for n in range(1, live + 1):
            if n == 1 or not (_same(Uj[n - 1], Uj[n - 2]) and _same(Yj[n - 1], Yj[n - 2])):
                try:
                    panel = _panel(model, times[j], Uj[n - 1], Yj[n - 1], dW, n, j)
                except Exception as err:  # raised once no earlier iterate can fail first
                    failure, live = err, n - 1
                    break
            dU, dY_drift, dY_noise = panel
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
    return PicardResult(
        times=times,
        U_end=U,
        Y_end=Y,
        sup_differences=deltas,
        sup_U_sq=[float(v) for v in sup_U],
        exp_sup_Y_sq=[float(mean(v)) for v in sup_Y],
    )


def _same(a, b):
    """Whether two iterate values have the same bytes (so -0.0 is not 0.0)."""
    return a is b or a.tobytes() == b.tobytes()


def _panel(model, t, Uj, Yj, dW, n, j):
    """The left-point integrands at grid point j from iterate n - 1's
    value (Uj, Yj) there: dU/dt, the coefficient drift and the noise
    increment of iterate n.

    The model is evaluated on X = Yj Uj a block of atoms at a time
    (``integrators._atom_terms``), so no N x d array is built."""
    rep = kernels.gram(Yj)
    if rep.inverse is None:
        raise SingularGram(
            "iterate %d left the admissible ball at grid point %d" % (n, j),
            report=rep,
        )
    aU, noise, G = _atom_terms(model, t, Uj, Yj, dW)
    try:
        P = kernels.projector_row(Uj)
    except SingularGram as err:
        raise SingularGram(
            "iterate %d has a singular row Gram at grid point %d" % (n, j)
        ) from err
    return rep.inverse @ (G - G @ P), aU, noise
