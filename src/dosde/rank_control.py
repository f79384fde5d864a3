"""Explosion surveillance and rank truncation/restart.

The inverse-Gram Frobenius norm is the canary: the factored scheme
breaks down exactly when ||C_Y^-1||_F blows up, that is when the random
coefficients lose linear independence.  ``RestartPolicy`` is the one
place that decides it.  It records when that norm (or the ensemble norm
of Y) first crosses each integer level above its starting value, and
declares an explosion at a hard cap (default 1e8 x the starting norm)
or an outright inversion failure.  At that point the ensemble is
re-factored by spectral truncation of E[X X^T], read off the R x R
coefficient Gram, and the run restarts at a strictly smaller rank (at
rank 1, whose Gram is still invertible, it re-factors at rank 1), with
the Brownian counters continuing where they left off.  The rank events
``integrate`` collects are the run's explosion record: the first one
is the explosion time.

``truncate`` re-makes the factored state it is given with
``dataclasses.replace``, so this module does not import
``integrators``, which imports it.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .errors import NoFloorDeclared

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
    vals, V, keep = kernels.leading_modes(rep, sv_tolerance)
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
    return replace(state, U=Q.T.copy(), Y=state.product() @ Q), event


class RestartPolicy:
    """The one explosion rule of the factored scheme, and its restart.

    ``attach`` starts a segment at a state: base norms, the hard cap
    gamma_cap = cap_factor * base inverse-Gram norm, the fixed-point
    window arguments, and the next integer level of each monitored
    series.  ``observe`` records level crossings and decides whether a
    step exploded (a non-finite inverse norm, or one at the cap).
    ``restart`` refactors the ensemble at the event and re-attaches to
    the new state, so each segment is measured from its own start.
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
        self.gamma_cap = math.inf
        self.crossings = []
        self.restarts = 0

    def attach(self, state):
        base_inv = kernels.gram(state.Y).inv_frobenius
        y_norm_sq = kernels.mean_sq_norm(state.Y)
        finite = math.isfinite(base_inv)
        self.gamma_cap = self.cap_factor * base_inv if finite else math.inf
        self._window = (
            state.rank,
            state.U.shape[1],
            self.model.C_lgb,
            y_norm_sq,
            base_inv**2 if finite else math.inf,
        )
        # series -> (base value, next integer level above it)
        self._levels = {"inv_norm": (base_inv, 1), "y_norm": (math.sqrt(y_norm_sq), 1)}

    def observe(self, report, state):
        """Record every integer level first crossed at ``report.t`` and
        return whether this step exploded.

        The monitored series are the report's inverse-Gram norm and the
        ensemble norm sqrt(E|Y|^2) of ``state``.  A non-finite value
        crosses straight to level n_max.  Each crossing is tagged with
        the window length delta(n), which is logged only and never gates
        the stepper.
        """
        inv_norm = report.gram_inv_frobenius
        y_norm = math.sqrt(kernels.mean_sq_norm(state.Y))
        for which, value in (("inv_norm", inv_norm), ("y_norm", y_norm)):
            base, first = self._levels[which]
            if math.isfinite(value):
                top = min(int(math.floor(value - base)), self.n_max)
            else:
                top = self.n_max
            for n in range(first, top + 1):
                delta = kernels.picard_delta_n(n, *self._window)
                self.crossings.append(Crossing(n=n, t=report.t, which=which, delta_n=delta))
            self._levels[which] = (base, max(first, top + 1))
        return not math.isfinite(inv_norm) or inv_norm >= self.gamma_cap

    def restart(self, state):
        """Truncate at the event to a strictly smaller rank; returns
        (new state or None, RankEvent).  When no smaller rank keeps a mode
        but the Gram is invertible (a cap crossing at rank 1), re-factor
        at the kept rank instead.  Either way one unit of the restart
        budget is used, and the policy re-attaches to the new state.  A
        halt (singular Gram with no mode kept, or the budget spent)
        reports the untruncated spectrum."""
        if self.restarts < self.max_restarts:
            new_state, event = truncate(state, self.sv_tolerance, max_rank=state.rank - 1)
            if new_state is None and math.isfinite(event.inv_norm_at_event):
                new_state, event = truncate(state, self.sv_tolerance)
            if new_state is not None:
                self.restarts += 1
                self.attach(new_state)
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
