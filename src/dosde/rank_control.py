"""Explosion surveillance and rank truncation/restart.

The inverse-Gram Frobenius norm is the canary: the factored scheme
breaks down exactly when ||C_Y^-1||_F blows up.  The monitor records
when that norm (or the ensemble norm of Y) first crosses each integer
level above its starting value; a hard cap (default 1e8 x the starting
norm) or an outright inversion failure declares an explosion.  At that
point the ensemble is re-factored by spectral truncation of E[X X^T],
read off the R x R coefficient Gram, and the run restarts at a strictly
smaller rank (at rank 1, whose Gram is still invertible, it re-factors at
rank 1), with the Brownian counters continuing where they left off.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import NoFloorDeclared
from .integrators import DoState

DEFAULT_CAP_FACTOR = 1e8
DEFAULT_SV_TOLERANCE = 1e-8


@dataclass
class Crossing:
    """First time a monitored series reached base + n."""

    n: int
    t: float
    which: str  # "inv_norm" or "y_norm"
    delta_n: float  # admissible window length at this level


@dataclass
class ExplosionMonitor:
    """Integer-level crossing tracker for one run segment."""

    base_inv_norm: float
    base_Y_norm: float
    n_max: int
    crossed: list = field(default_factory=list)

    def next_level(self, which):
        done = [c.n for c in self.crossed if c.which == which]
        return (max(done) + 1) if done else 1


def monitor_update(mon, t, inv_norm, y_norm, delta_args=None):
    """Record every integer level first crossed at time t.

    ``inv_norm`` may be +inf (inversion failed), which crosses straight
    to level n_max.  Returns the list of new crossings, each tagged with
    the window length delta(n) when ``delta_args`` supplies
    (R, d, C_lgb, rho0_sq, gamma0_sq); the window is logged only and
    never gates the stepper.
    """
    new = []
    for which, base, value in (
        ("inv_norm", mon.base_inv_norm, inv_norm),
        ("y_norm", mon.base_Y_norm, y_norm),
    ):
        if value is None:
            continue
        if math.isinf(value) or math.isnan(value):
            top = mon.n_max
        else:
            top = min(int(math.floor(value - base)), mon.n_max)
        for n in range(mon.next_level(which), top + 1):
            new.append(Crossing(n=n, t=t, which=which, delta_n=_delta_at(n, delta_args)))
    mon.crossed.extend(new)
    return new


def _delta_at(n, delta_args):
    if delta_args is None:
        return math.nan
    R, d, C_lgb, rho0_sq, gamma0_sq = delta_args
    return kernels.picard_delta_n(n, R, d, C_lgb, rho0_sq, gamma0_sq)


def detect_explosion(diag_rows, gamma_cap):
    """Scan per-step diagnostics for a blow-up of the inverse Gram norm.

    Returns (exploded, T_e_estimate); the estimate is the first time the
    series is non-finite or exceeds ``gamma_cap``, else None.
    """
    for row in diag_rows:
        v = row.gram_inv_frobenius
        if not math.isfinite(v) or v >= gamma_cap:
            return True, row.t
    return False, None


@dataclass
class RankEvent:
    """One truncation (or halt) of the factored ensemble."""

    t_event: float
    singular_values: np.ndarray  # spectrum of the coefficient Gram, non-increasing
    old_rank: int
    new_rank: int
    discarded_mass: float
    inv_norm_at_event: float


def truncate(state, sv_tolerance=DEFAULT_SV_TOLERANCE, max_rank=None):
    """Refactor a factored ensemble on the eigenmodes of its R x R Gram.

    E[X X^T] = U^T C_Y U, so the second moment has the eigenvectors
    U^T v_k for the eigenpairs (gamma_k, v_k) of C_Y.  Keeps the modes
    with gamma_k > ``sv_tolerance * trace``, at most ``max_rank`` of them;
    with Q = U^T V_keep (signs fixed) the new state is U' = Q^T, Y' = X Q,
    whose reconstruction error is the square root of the discarded mass
    E|Y V_drop|^2, measured directly on the dropped eigenvectors rather
    than as a trace difference, which would cancel to about eps * trace.
    Returns (DoState, or None when no mode is kept, RankEvent).
    """
    rep = kernels.gram(state.Y)
    # Stable sort keeps the ascending-index order of tied eigenvalues.
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
    return DoState(t=state.t, U=Q.T.copy(), Y=state.product() @ Q), event


class RestartPolicy:
    """Monitor + truncate/restart hook for ``integrate``.

    Tracks level crossings against the starting norms, declares an
    explosion at the hard cap gamma_cap = cap_factor * base_inv_norm or
    on inversion failure, and refactors the ensemble at the event.  Each
    restart re-attaches with fresh base norms (a new factored problem
    starts at the event time).
    """

    def __init__(
        self,
        model,
        n_max=64,
        cap_factor=DEFAULT_CAP_FACTOR,
        sv_tolerance=DEFAULT_SV_TOLERANCE,
        max_restarts=8,
    ):
        self.model = model
        self.n_max = n_max
        self.cap_factor = cap_factor
        self.sv_tolerance = sv_tolerance
        self.max_restarts = max_restarts
        self.monitor = None
        self.gamma_cap = math.inf
        self.crossings = []
        self.restarts = 0
        self._delta_args = None

    def attach(self, state):
        base_inv = kernels.gram(state.Y).inv_frobenius
        y_norm_sq = kernels.mean_sq_norm(state.Y)
        self.monitor = ExplosionMonitor(
            base_inv_norm=base_inv,
            base_Y_norm=math.sqrt(y_norm_sq),
            n_max=self.n_max,
        )
        self.gamma_cap = self.cap_factor * base_inv if math.isfinite(base_inv) else math.inf
        self._delta_args = (
            state.rank,
            state.U.shape[1],
            self.model.C_lgb,
            y_norm_sq,
            base_inv**2 if math.isfinite(base_inv) else math.inf,
        )

    def observe(self, t, inv_norm, y_norm_sq):
        self.crossings += monitor_update(
            self.monitor, t, inv_norm, math.sqrt(y_norm_sq), self._delta_args
        )

    def should_restart(self, report):
        v = report.gram_inv_frobenius
        return (not math.isfinite(v)) or v >= self.gamma_cap

    def restart(self, state):
        """Truncate at the event to a strictly smaller rank; returns
        (new state or None, RankEvent).  When no smaller rank keeps a mode
        but the Gram is invertible (a cap crossing at rank 1), re-factor
        at the kept rank instead.  Either way one unit of the restart
        budget is used.  A halt (singular Gram with no mode kept, or the
        budget spent) reports the untruncated spectrum."""
        if self.restarts < self.max_restarts:
            new_state, event = truncate(state, self.sv_tolerance, max_rank=state.rank - 1)
            if new_state is None and math.isfinite(event.inv_norm_at_event):
                new_state, event = truncate(state, self.sv_tolerance)
            if new_state is not None:
                self.restarts += 1
                return new_state, event
        return None, truncate(state, self.sv_tolerance)[1]


def noise_floor_bound(model, bounds, sigma_Y0):
    """Uniform lower bound on the coefficient Gram spectrum.

    min(sigma_Y0, sigma_B^2 / (4 C_lgb (1 + M_T))) where sigma_Y0 is the
    smallest Gram eigenvalue at time zero and M_T the second-moment
    envelope.  Raises NoFloorDeclared when the model has sigma_B = 0.
    """
    if model.sigma_B <= 0:
        raise NoFloorDeclared("%s declares no uniform noise floor" % model.name)
    return min(sigma_Y0, model.sigma_B**2 / (4.0 * model.C_lgb * (1.0 + bounds.M_T)))
