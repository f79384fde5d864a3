"""Euler-Maruyama steppers for full, factored and ambient low-rank states.

Three ways to advance the same dynamics, sharing one Brownian path and
one contract, ``step(model, state, dW, dt) -> (state, StepReport)``:

- ``step_reference``   plain EM on the full ensemble, the ground truth;
- ``step_do``          factored (U, Y): EM for the coefficients, explicit
                       Euler plus QR retraction for the basis, with the
                       triangular factor folded back into Y so the
                       product U^T Y is untouched by the retraction;
                       the N x d ensemble X = Y U is never formed whole
                       (``_atom_terms``);
- ``step_ambient_dlra`` parametrization-free form: projectors are rebuilt
                       from E[X X^T] every step and applied to the full
                       state directly (its rank ``R`` is a keyword).

``integrate`` picks one stepper, drives it to t_end, records strided
snapshots and one StepReport per step, and leaves the explosion
decision to an optional policy hook (see rank_control) that can
truncate and restart the factorization mid-run; without one, only a
singular Gram stops the run.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels, rank_control
from .errors import (
    InvalidEnsemble,
    NonFiniteState,
    RankDeficient,
    ShapeMismatch,
    SingularGram,
)

_SCHEMES = ("do", "ambient", "reference")


@dataclass
class DoState:
    """Factored ensemble state: orthonormal-row basis U (R x d), coefficients Y (N x R).

    An initial datum is a state at t = 0; ``validate`` checks it.  A
    state at t > 0 is one a run reached, which ``integrate`` can resume.
    """

    t: float
    U: np.ndarray
    Y: np.ndarray

    @property
    def rank(self):
        return self.U.shape[0]

    def product(self):
        """Per-atom reconstruction X_i = U^T Y_i, shape (N, d)."""
        return self.Y @ self.U

    def validate(self):
        """Check the state: a finite 2-D U, finite coefficients matching
        it, and, for an initial datum (t = 0), orthonormal rows of U
        (within 1e-12) and an invertible coefficient Gram.  A later
        state is left to the stepper, which meets it as it would in an
        unbroken run.  Returns the state."""
        U = kernels.as_ensemble(self.U, "U")
        Y = kernels.as_ensemble(self.Y, "Y")
        R = U.shape[0]
        if Y.shape[1] != R:
            raise InvalidEnsemble("Y has %d columns, U has %d rows" % (Y.shape[1], R))
        if self.t != 0:
            return self
        defect = float(np.linalg.norm(U @ U.T - np.eye(R)))
        if defect > 1e-12:
            raise InvalidEnsemble("U0 rows not orthonormal (defect %g)" % defect)
        if kernels.gram(Y).inverse is None:
            raise InvalidEnsemble("initial coefficient Gram is singular")
        return self


@dataclass
class FullState:
    """Plain ensemble state X (N x d)."""

    t: float
    X: np.ndarray

    def product(self):
        """The ensemble itself, shape (N, d)."""
        return self.X

    def validate(self):
        """Check the state: a non-empty, finite 2-D ensemble.  Returns
        the state."""
        kernels.as_ensemble(self.X, "X0")
        return self


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


def _noise(model, b, dW, U=None):
    """Per-atom b dW_i for ``b = model.diffusion(t, X)``, or its coefficients
    U b dW_i when the basis U is given.

    A diagonal b, the (N, d) block of per-atom diagonals, is applied
    entrywise; a constant (d, m) b as one batched matvec over the atoms.
    """
    if model.diagonal_noise:
        bdW = b * dW
        return bdW if U is None else bdW @ U.T
    B = b if U is None else np.matmul(U, b)
    return np.matmul(B, dW[..., :, None])[..., 0]


def _atom_terms(model, t, U, Y, dW):
    """The per-atom terms of the factored equations at (t, U, Y) with
    X = Y U: the coefficient drift a(t, X) U^T and noise U b(t, X) dW,
    each N x R, and E[Y a^T], R x d.

    X, a and b exist one block of atoms at a time, the blocks of
    ``kernels.mean_outer_walk``, and the model is evaluated on each; so
    the terms need O(N R + block d) values besides the N x m increment
    dW, and no N x d array.  a U^T is taken on the drift as the model
    returns it, and E[Y a^T] has ``kernels.mean_outer(Y, a)``'s bits.
    When N fits one block every term has the whole-array bits; across
    blocks BLAS may pick another kernel for another row count and round
    a block's Y U or a U^T differently in the last bit.
    """
    N, R = Y.shape
    aU = np.empty((N, R))
    noise = np.empty((N, R))

    def block(rows):
        X = Y[rows] @ U
        a = model.drift(t, X)
        aU[rows] = a @ U.T
        noise[rows] = _noise(model, model.diffusion(t, X), dW[rows], U)
        return a

    G = kernels.mean_outer_walk(Y, U.shape[1], block)
    return aU, noise, G


def step_reference(model, state, dW, dt):
    """One EM step of the full ensemble; atoms evolve independently."""
    X = state.X
    if dW.shape != (X.shape[0], model.m):
        raise ShapeMismatch("dW shape %r, expected %r" % (dW.shape, (X.shape[0], model.m)))
    a = model.drift(state.t, X)
    b = model.diffusion(state.t, X)
    X1 = X + a * dt + _noise(model, b, dW)
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

    1. reconstruct X = U^T Y per atom and evaluate coefficients, a block
       of atoms at a time (``_atom_terms``: no N x d array is built);
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
    aU, noise, G = _atom_terms(model, state.t, U, Y, dW)
    Y1 = Y + aU * dt + noise
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
    noise = (_noise(model, b, dW) @ Q) @ Q.T
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
    failure row at each Gram singularity), ``events`` the rank events,
    in time order (the first is the explosion time), and ``completed`` is
    False when the run halted before t_end: at a singular Gram without
    a policy, or at an explosion the policy could not restart (no mode
    kept, or its restart budget spent).
    """

    scheme: str
    times: list
    states: list
    diag: list
    events: list
    completed: bool


def grid_steps(t_end, dt):
    """The number of dt steps to t_end, round(t_end / dt); raises
    ShapeMismatch when t_end is not on the dt grid (within 1e-9
    relative) or the count is not finite."""
    n_steps = round(t_end / dt) if math.isfinite(t_end / dt) else -1
    if not abs(n_steps * dt - t_end) <= 1e-9 * max(1.0, abs(t_end)):
        raise ShapeMismatch("t_end=%g is not a multiple of dt=%g" % (t_end, dt))
    return n_steps


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
    on_record=None,
):
    """Drive one scheme from the initial state's time to t_end on a fixed grid.

    Parameters
    ----------
    initial : DoState or FullState
        The starting state, validated here.  Must be a DoState for "do";
        either kind otherwise.  Its time ``initial.t`` must be a grid
        point k0 dt <= t_end: at t = 0 it is an initial datum, and a
        later state resumes a run, so splitting a run at any grid point
        and resuming from the state recorded there gives the unbroken
        run's steps, records and reports bit for bit.
    path : BrownianPath
        Supplies increments one step at a time (``path.increment(k)``
        for k = k0, k0 + 1, ..., streamed in bounded chunks); must cover
        round(t_end/dt) steps with matching atom and channel counts.
    record_stride : a state is recorded at every global step k that is a
        multiple of it, and at the start and the end.
    policy : optional rank/restart hook ("do" only), the one judge of an
        explosion, with three methods: ``attach(state)`` starts it on the
        starting state; ``observe(report, state) -> bool`` sees every step
        report (and the state it left) and says whether the step
        exploded; ``restart(state) -> (DoState | None, RankEvent)``
        refactors at the event and re-attaches itself to the new state.
    R : rank for the ambient scheme (defaults to the initial rank).
    on_record : optional callable that receives each recorded state, the
        starting one included, in place of ``traj.states`` (which then
        stays empty); ``traj.times`` is kept either way.

    Without a policy only a singular Gram (SingularGram) explodes; the
    run records a halt event and returns with ``completed=False``.  With
    a policy, an explosion restarts through it, and a halt it returns
    (no state) ends the run the same way.  A restart after SingularGram
    retries the same increment; a cap crossing has already consumed its
    step.  ``traj.events`` is the explosion record: its first event is
    the explosion time.
    """
    if scheme not in _SCHEMES:
        raise ShapeMismatch("unknown scheme %r; expected one of %s" % (scheme, _SCHEMES))
    n_steps = grid_steps(t_end, dt)
    if path.n_steps < n_steps:
        raise ShapeMismatch("path has %d steps, need %d" % (path.n_steps, n_steps))
    if path.m != model.m:
        raise ShapeMismatch("path has %d channels, model needs %d" % (path.m, model.m))
    if abs(path.dt - dt) > 1e-12 * max(1.0, dt):
        raise ShapeMismatch("path dt=%g differs from requested dt=%g" % (path.dt, dt))
    if policy is not None and scheme != "do":
        raise ShapeMismatch("a rank policy needs the 'do' scheme, got %r" % scheme)
    k = round(initial.t / dt) if math.isfinite(initial.t) else -1
    if abs(k * dt - initial.t) > 1e-9 * max(1.0, abs(t_end)) or not 0 <= k <= n_steps:
        raise ShapeMismatch("start t=%g is not a grid point of dt=%g in [0, %g]"
                            % (initial.t, dt, t_end))

    initial.validate()
    # Steppers are looked up per call, so rebinding a module attribute
    # (as an outside tracer does) reaches this loop.  The copies keep
    # each array's memory layout (a retracted U is a Fortran-order
    # view), which a step's last bits can depend on.
    t0 = k * dt
    factored = isinstance(initial, DoState)
    if scheme == "do":
        if not factored:
            raise ShapeMismatch("the 'do' scheme needs a factored initial datum")
        U0, Y0 = initial.U.copy(order="K"), initial.Y.copy(order="K")
        state, step = DoState(t=t0, U=U0, Y=Y0), step_do
    else:
        X0 = np.array(initial.product(), dtype=float, order="K")
        state, step = FullState(t=t0, X=X0), step_reference
    if scheme == "ambient":
        if R is None and factored:
            R = initial.rank
        if R is None:
            raise ShapeMismatch("the 'ambient' scheme needs a rank R")
        step = functools.partial(step_ambient_dlra, R=R)
    n_atoms = len(state.Y if scheme == "do" else state.X)
    if path.N != n_atoms:
        raise ShapeMismatch("path has %d atoms, state has %d" % (path.N, n_atoms))

    # Steppers return fresh states, so snapshots need no copy.
    traj = Trajectory(
        scheme=scheme, times=[t0], states=[], diag=[], events=[], completed=True
    )
    record = traj.states.append if on_record is None else on_record
    record(state)
    if policy is not None:
        policy.attach(state)

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
        exploded = singular if policy is None else policy.observe(report, state)
        if exploded:
            if policy is None:
                state, event = None, rank_control.truncate(state)[1]
            else:
                state, event = policy.restart(state)
            traj.events.append(event)
            if state is None:
                traj.completed = False
                break
        if not singular and (k % record_stride == 0 or k == n_steps):
            traj.times.append(state.t)
            record(state)
    return traj
