"""Euler-Maruyama steppers for full, factored and ambient low-rank states.

Three ways to advance the same dynamics, sharing one Brownian path and
one contract, ``step(model, state, dW, dt) -> (state, StepReport)``:

- ``step_reference``   plain EM on the full ensemble, the ground truth;
- ``step_do``          factored (U, Y): EM for the coefficients, explicit
                       Euler plus QR retraction for the basis, with the
                       triangular factor folded back into Y so the
                       product U^T Y is untouched by the retraction;
- ``step_ambient_dlra`` parametrization-free form: projectors are rebuilt
                       from E[X X^T] every step and applied to the full
                       state directly (its rank ``R`` is a keyword).

``integrate`` picks one stepper, drives it to t_end, records strided
snapshots and one StepReport per step, and defers Gram singularities /
inverse-norm cap crossings to an optional policy hook (see
rank_control) that can truncate and restart the factorization mid-run.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import NonFiniteState, RankDeficient, ShapeMismatch, SingularGram

_SCHEMES = ("do", "ambient", "reference")


@dataclass
class DoState:
    """Factored ensemble state: orthonormal-row basis U (R x d), coefficients Y (N x R)."""

    t: float
    U: np.ndarray
    Y: np.ndarray

    @property
    def rank(self):
        return self.U.shape[0]

    def product(self):
        """Per-atom reconstruction X_i = U^T Y_i, shape (N, d)."""
        return self.Y @ self.U


@dataclass
class FullState:
    """Plain ensemble state X (N x d)."""

    t: float
    X: np.ndarray

    def product(self):
        """The ensemble itself, shape (N, d)."""
        return self.X


@dataclass
class StepReport:
    """Health numbers of one step, stamped with the time it reached.

    gauge_defect = ||U_n (U_{n+1} - U_n)^T||_F measures drift along the
    gauge; ortho_defect = ||U_raw U_raw^T - I||_F is the orthonormality
    loss the retraction had to repair.  The full-state reference step
    reports zero defects and NaN spectral numbers.
    """

    t: float
    gauge_defect: float
    ortho_defect: float
    gram_inv_frobenius: float
    lambda_min: float


def _apply_diffusion(B, dW):
    """Per-atom b_i dW_i for B of shape (d, m) or (N, d, m)."""
    return np.matmul(B, dW[..., :, None])[..., 0]


def step_reference(model, state, dW, dt):
    """One EM step of the full ensemble; atoms evolve independently."""
    X = state.X
    if dW.shape != (X.shape[0], model.m):
        raise ShapeMismatch("dW shape %r, expected %r" % (dW.shape, (X.shape[0], model.m)))
    a = model.drift(state.t, X)
    b = model.diffusion(state.t, X)
    X1 = X + a * dt + _apply_diffusion(b, dW)
    if not np.isfinite(X1).all():
        raise NonFiniteState("reference step produced non-finite state at t=%g" % state.t)
    t = state.t + dt
    return FullState(t=t, X=X1), StepReport(t, 0.0, 0.0, math.nan, math.nan)


def _qr_retract(U_raw):
    """Orthonormalize rows via thin QR of the transpose.

    Returns (U_new, Rtri) with U_raw = Rtri^T U_new and diag(Rtri) > 0,
    which makes the factorization unique and the map deterministic.
    """
    Q, Rtri = np.linalg.qr(U_raw.T)
    s = np.sign(np.diag(Rtri))
    s[s == 0] = 1.0
    Q = Q * s
    Rtri = Rtri * s[:, None]
    return Q.T, Rtri


def step_do(model, state, dW, dt):
    """One step of the factored scheme.

    Order of operations (everything frozen at the left endpoint):

    1. reconstruct X = U^T Y per atom and evaluate coefficients;
    2. EM for the coefficients: Y+ = Y + (U a) dt + (U b) dW;
    3. explicit Euler for the basis: Udot = C^-1 E[Y a^T] (I - U^T U);
    4. retract U+ = qr(U + dt Udot) and fold the triangular factor into
       Y+ so the product U+^T Y+ equals the pre-retraction product
       exactly.

    Raises SingularGram (carrying the report) when the coefficient Gram
    is not invertible at entry; the state is left unmodified.
    """
    U, Y = state.U, state.Y
    N, R = Y.shape
    if dW.shape != (N, model.m):
        raise ShapeMismatch("dW shape %r, expected %r" % (dW.shape, (N, model.m)))
    rep = kernels.gram(Y)
    if rep.inverse is None:
        raise SingularGram(
            "coefficient Gram singular at t=%g (lambda_min=%g)"
            % (state.t, rep.lambda_min),
            report=rep,
        )
    X = Y @ U
    a = model.drift(state.t, X)
    b = model.diffusion(state.t, X)
    Ub = np.matmul(U, b)  # (R, m) or (N, R, m)
    Y1 = Y + (a @ U.T) * dt + _apply_diffusion(Ub, dW)

    G = kernels.mean_outer(Y, a)  # E[Y a^T], R x d
    Udot = rep.inverse @ (G - (G @ U.T) @ U)
    U_raw = U + dt * Udot
    ortho_defect = float(np.linalg.norm(U_raw @ U_raw.T - np.eye(R)))
    U1, Rtri = _qr_retract(U_raw)
    Y1 = Y1 @ Rtri.T  # keeps U1^T Y1 == U_raw^T Y1_pre bit for bit in the plan
    if not np.isfinite(Y1).all():
        raise NonFiniteState("factored step produced non-finite coefficients at t=%g" % state.t)
    report = StepReport(
        t=state.t + dt,
        gauge_defect=float(np.linalg.norm(U @ (U1 - U).T)),
        ortho_defect=ortho_defect,
        gram_inv_frobenius=rep.inv_frobenius,
        lambda_min=rep.lambda_min,
    )
    return DoState(t=report.t, U=U1, Y=Y1), report


def step_ambient_dlra(model, state, dW, dt, *, R):
    """One step of the parametrization-free scheme on the full state.

    Projectors are rebuilt from the current second moment: P_U projects
    onto the top-R eigenvectors of E[X X^T], and the coefficient
    projector uses the canonical phi basis.  The update is

        X+ = X + [(I - P_U)(P_phi a) + P_U a] dt + P_U b dW.

    Raises RankDeficient when fewer than R modes clear the spectral
    threshold at entry.
    """
    X = state.X
    N = X.shape[0]
    if dW.shape != (N, model.m):
        raise ShapeMismatch("dW shape %r, expected %r" % (dW.shape, (N, model.m)))
    fac = kernels.second_moment_svd(X)
    if fac.rank < R:
        raise RankDeficient(
            "second moment has rank %d < requested R=%d at t=%g" % (fac.rank, R, state.t)
        )
    Q = fac.Q[:, :R]
    phis = fac.phis[:, :R]
    a = model.drift(state.t, X)
    b = model.diffusion(state.t, X)
    Pa = (a @ Q) @ Q.T
    PYa = kernels.projector_stochastic(phis, a)
    drift_term = (PYa - (PYa @ Q) @ Q.T) + Pa
    noise = (_apply_diffusion(b, dW) @ Q) @ Q.T
    X1 = X + drift_term * dt + noise
    if not np.isfinite(X1).all():
        raise NonFiniteState("ambient step produced non-finite state at t=%g" % state.t)
    gammas = fac.gammas[:R]
    report = StepReport(
        t=state.t + dt,
        gauge_defect=0.0,
        ortho_defect=0.0,
        gram_inv_frobenius=float(np.sqrt(np.sum(gammas**-2))),
        lambda_min=float(gammas[-1]),
    )
    return FullState(t=report.t, X=X1), report


@dataclass
class Trajectory:
    """Recorded output of ``integrate``.

    ``times``/``states`` hold strided snapshots (always including the
    initial and final state), ``diag`` one StepReport per step (plus a
    failure row at each Gram singularity), ``events`` any rank events raised by the policy hook, and
    ``completed`` is False when integration halted at an unhandled
    singularity.
    """

    scheme: str
    times: list
    states: list
    diag: list
    events: list
    completed: bool


def integrate(
    model,
    initial,
    scheme,
    t_end,
    dt,
    path,
    record_stride=1,
    policy=None,
    R=None,
):
    """Drive one scheme from t=0 to t_end on a fixed grid.

    Parameters
    ----------
    initial : InitialDatum
        Must be factored for "do"; full or factored otherwise.
    path : BrownianPath
        Supplies increments one step at a time (``path.increment(k)``,
        streamed in bounded chunks); must cover ceil(t_end/dt) steps
        with matching atom and channel counts.
    policy : optional rank/restart hook ("do" only) with methods ``attach(state)``,
        ``observe(t, inv_frobenius, y_norm_sq)``, ``should_restart(report)``
        and ``restart(state) -> (DoState | None, RankEvent)``.
    R : rank for the ambient scheme (defaults to the initial rank).

    On SingularGram (or a cap crossing flagged by the policy) the run
    either restarts through the policy or, without one, records a final
    rank event and returns with ``completed=False``.  A restart after
    SingularGram retries the same increment; a cap crossing has already
    consumed its step.
    """
    if scheme not in _SCHEMES:
        raise ShapeMismatch("unknown scheme %r; expected one of %s" % (scheme, _SCHEMES))
    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise ShapeMismatch("t_end=%g is not a multiple of dt=%g" % (t_end, dt))
    if path.n_steps < n_steps:
        raise ShapeMismatch("path has %d steps, need %d" % (path.n_steps, n_steps))
    if path.m != model.m:
        raise ShapeMismatch("path has %d channels, model needs %d" % (path.m, model.m))
    if abs(path.dt - dt) > 1e-12 * max(1.0, dt):
        raise ShapeMismatch("path dt=%g differs from requested dt=%g" % (path.dt, dt))
    if policy is not None and scheme != "do":
        raise ShapeMismatch("a rank policy needs the 'do' scheme, got %r" % scheme)

    initial.validate()
    # Steppers are looked up per call, so rebinding a module attribute
    # (as an outside tracer does) reaches this loop.
    if scheme == "do":
        if not initial.factored:
            raise ShapeMismatch("the 'do' scheme needs a factored initial datum")
        state, step = DoState(t=0.0, U=initial.U.copy(), Y=initial.Y.copy()), step_do
    else:
        state, step = FullState(t=0.0, X=initial.to_full().copy()), step_reference
    if scheme == "ambient":
        if R is None and initial.factored:
            R = initial.U.shape[0]
        if R is None:
            raise ShapeMismatch("the 'ambient' scheme needs a rank R")
        step = functools.partial(step_ambient_dlra, R=R)
    n_atoms = state.product().shape[0]
    if path.N != n_atoms:
        raise ShapeMismatch("path has %d atoms, state has %d" % (path.N, n_atoms))

    # Steppers return fresh states, so snapshots need no copy.
    traj = Trajectory(
        scheme=scheme, times=[0.0], states=[state], diag=[], events=[], completed=True
    )
    if policy is not None:
        policy.attach(state)

    k = 0
    while k < n_steps:
        try:
            state, report = step(model, state, path.increment(k), dt)
        except SingularGram as err:
            # Failure row at the current time; a restart retries this
            # same increment (Brownian counters continue).
            singular = True
            report = StepReport(state.t, 0.0, 0.0, math.inf, err.report.lambda_min)
        else:
            singular = False
            k += 1
            state.t = report.t = k * dt  # fixed grid, no accumulated float drift
        traj.diag.append(report)
        if policy is not None:
            policy.observe(report.t, report.gram_inv_frobenius, kernels.mean_sq_norm(state.Y))
        if singular or (policy is not None and policy.should_restart(report)):
            if policy is None:
                from .rank_control import truncate  # local import avoids a cycle

                state, event = None, truncate(state)[1]
            else:
                state, event = policy.restart(state)
            traj.events.append(event)
            if state is None:
                traj.completed = False
                break
            policy.attach(state)
        if not singular and (k % record_stride == 0 or k == n_steps):
            traj.times.append(state.t)
            traj.states.append(state)
    return traj
