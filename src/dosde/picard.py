"""Local Picard iteration for the coupled basis/coefficient system.

Starting from the constant pair (U0, Y0), each sweep maps a trajectory
pair to a new one via the two integral maps

    F1(U, Y)(t) = U0 + int_0^t C_{Y_s}^-1 E[Y_s a(s, U_s^T Y_s)^T] (I - P_{U_s}) ds
    F2(U, Y)(t) = Y0 + int_0^t U_s a ds + int_0^t U_s b dW_s

discretized with the left-point rule on a fixed fine grid (64 points per
window by default, supplied via the path).  P_{U_s} is the general row
projector, since iterates need not keep orthonormal rows.

On a window shorter than ``picard_delta`` the sweeps contract: the
squared sup differences

    Delta_n = sup_t ||U^(n) - U^(n-1)||_F^2 + E[sup_t |Y^(n) - Y^(n-1)|^2]

decay superlinearly, and every iterate stays inside the admissible
region sup_t ||U||_F^2 <= 3R, E[sup_t |Y|^2] <= 3 rho^2 + 1.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ShapeMismatch, SingularGram, SingularRowGram
from .integrators import _apply_diffusion


@dataclass
class PicardResult:
    """Iterates and their decay numbers.

    ``U_iters[n]`` has shape (K+1, R, d) and ``Y_iters[n]`` shape
    (K+1, N, R) where K is the grid step count; index 0 is the constant
    starting pair.  ``sup_differences[n-1]`` is Delta_n, and the two
    ball diagnostics list sup_t ||U||_F^2 and E[sup_t |Y|^2] per iterate.
    """

    times: np.ndarray
    U_iters: list
    Y_iters: list
    sup_differences: list
    sup_U_sq: list
    exp_sup_Y_sq: list


def picard_local_solve(model, U0, Y0, path, n_iters=7):
    """Run ``n_iters`` Picard sweeps on the window covered by ``path``.

    The grid is the path's grid: K = path.n_steps left-point panels of
    width path.dt.  Raises SingularGram when an iterate's coefficient
    Gram (or an iterate's row Gram) degenerates, i.e. the iterate left
    the admissible ball.
    """
    U0 = np.asarray(U0, dtype=float)
    Y0 = kernels.as_ensemble(Y0, "Y0")
    R, d = U0.shape
    N = Y0.shape[0]
    if Y0.shape[1] != R:
        raise ShapeMismatch("Y0 has %d columns, U0 has %d rows" % (Y0.shape[1], R))
    if path.N != N or path.m != model.m:
        raise ShapeMismatch("path atoms/channels do not match Y0/model")
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
            except SingularRowGram as err:
                raise SingularGram(
                    "iterate %d has a singular row Gram at grid point %d" % (n, j)
                ) from err
            dU[j] = rep.inverse @ (G - G @ P)
            dY_drift[j] = aj @ Uj.T
            dY_noise[j] = _apply_diffusion(np.matmul(Uj, bj), path.increments[j])
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
    return PicardResult(
        times=times,
        U_iters=U_iters,
        Y_iters=Y_iters,
        sup_differences=sup_differences,
        sup_U_sq=sup_U_sq,
        exp_sup_Y_sq=exp_sup_Y_sq,
    )


def _exp_sup_sq(Y_traj):
    """E[sup_t |Y_t|^2]: per-atom sup over the grid, then ensemble mean."""
    per_atom_sup = np.max(np.sum(Y_traj**2, axis=2), axis=0)
    return float(kernels.ensemble_mean(per_atom_sup))
