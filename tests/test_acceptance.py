"""Acceptance suite: one test per contract item, one verdict line each.

Each test pins its tolerances inline and reports a single line through
the conftest registry (also printed immediately for -s runs).  The
builtin/seed/step choices were calibrated once and frozen; see the
repository notes for the rationale behind the non-obvious ones.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from conftest import record_acceptance

from dosde import kernels, paths
from dosde.diagnostics import l2_distance, projector_lipschitz_harness
from dosde.integrators import DoState, integrate
from dosde.models import _rng, builtin, default_initial, whiten
from dosde.picard import picard_local_solve
from dosde.rank_control import RestartPolicy


def _report(num, title, ok, detail=""):
    line = "[ACCEPTANCE %02d] %-58s %s%s" % (
        num, title, "PASS" if ok else "FAIL", (" | " + detail) if detail else ""
    )
    print(line)
    record_acceptance(line)


def _tilted_lowrank_basis(model, angle=math.pi / 6, seed=11):
    """Rotate the invariant span toward its complement by ``angle``."""
    U_model = model.basis
    G = _rng(seed).standard_normal((model.d, U_model.shape[0]))
    comp = G - U_model.T @ (U_model @ G)
    Qc = np.linalg.qr(comp)[0]
    return math.cos(angle) * U_model + math.sin(angle) * Qc.T


def test_01_full_rank_exactness():
    ok, detail = False, ""
    try:
        t0 = time.monotonic()
        model = builtin("ou", kappa=1.0, sigma=0.5, d=4)
        init = default_initial(model, N=256, R=4, seed=1)
        path = paths.generate(3, 100, 1e-3, 256, model.m)
        td = integrate(model, init, "do", 0.1, 1e-3, path)
        tr = integrate(model, init, "reference", 0.1, 1e-3, path)
        worst = 0.0
        for sa, sb in zip(td.states, tr.states):
            rel = np.abs(sa.product() - sb.X) / np.maximum(np.abs(sb.X), 1e-30)
            worst = max(worst, float(rel.max()))
        elapsed = time.monotonic() - t0
        assert worst <= 1e-10, worst
        assert elapsed < 5.0, elapsed
        ok, detail = True, "max rel dev %.1e <= 1e-10, %.2fs < 5s" % (worst, elapsed)
    finally:
        _report(1, "full-rank factored run reproduces plain EM", ok, detail)


def test_02_orthonormality_and_gauge_order():
    ok, detail = False, ""
    try:
        t0 = time.monotonic()
        worst_ortho = 0.0
        for name in ("ou", "linear_lowrank", "gbm_clipped", "mode_crossing", "additive_floor"):
            model = builtin(name)
            init = default_initial(model, N=256, R=2, seed=4)
            n = 1000
            path = paths.generate(23, n, 1e-3, 256, model.m)
            traj = integrate(model, init, "do", 1.0, 1e-3, path)
            for s in traj.states:
                R = s.U.shape[0]
                worst_ortho = max(
                    worst_ortho, float(np.linalg.norm(s.U @ s.U.T - np.eye(R)))
                )
        assert worst_ortho <= 1e-10, worst_ortho

        # dt-halving slope of the per-step gauge defect, on the one
        # builtin whose basis actually moves at rank one
        model = builtin("additive_floor")
        from dosde.models import _planted_basis

        U0 = _planted_basis(2, 1, 21)
        Y0 = whiten(_rng(22).standard_normal((512, 1)))
        init = DoState(t=0.0, U=U0, Y=Y0).validate()
        dts = [2e-2, 1e-2, 5e-3, 2.5e-3]
        gmax = []
        for lvl, dt in enumerate(dts):
            n = int(round(1.0 / dt))
            path = paths.generate(7, n, dt, 512, model.m, level=len(dts) - 1 - lvl)
            traj = integrate(model, init, "do", 1.0, dt, path)
            gmax.append(max(row.gauge_defect for row in traj.diag))
        slope = float(np.polyfit(np.log(dts), np.log(gmax), 1)[0])
        elapsed = time.monotonic() - t0
        assert slope >= 1.8, slope
        assert elapsed < 30.0, elapsed
        ok, detail = True, "ortho %.1e <= 1e-10, gauge slope %.3f >= 1.8, %.1fs < 30s" % (
            worst_ortho, slope, elapsed
        )
    finally:
        _report(2, "every step orthonormal; gauge defect is O(dt^2)", ok, detail)


def test_03_factored_and_projector_schemes_agree():
    ok, detail = False, ""
    try:
        t0 = time.monotonic()
        model = builtin("linear_lowrank", lambdas=(-0.5, -2.0), sigma_b=0.5, d=16)
        N = 512
        U0 = _tilted_lowrank_basis(model)
        Y0 = whiten(_rng(12).standard_normal((N, 2)))
        init = DoState(t=0.0, U=U0, Y=Y0).validate()
        sups = []
        dts = [1e-2, 5e-3, 2.5e-3]
        for lvl, dt in enumerate(dts):
            n = int(round(0.5 / dt))
            path = paths.generate(7, n, dt, N, model.m, level=len(dts) - 1 - lvl)
            ta = integrate(model, init, "do", 0.5, dt, path)
            tb = integrate(model, init, "ambient", 0.5, dt, path, R=2)
            sups.append(
                max(l2_distance(a.product(), b.X) for a, b in zip(ta.states, tb.states))
            )
        rates = [math.log2(sups[i] / sups[i + 1]) for i in range(len(sups) - 1)]
        elapsed = time.monotonic() - t0
        assert all(r >= 0.9 for r in rates), rates
        assert elapsed < 60.0, elapsed
        ok, detail = True, "rates %s >= 0.9, %.1fs < 60s" % (
            ["%.2f" % r for r in rates], elapsed
        )
    finally:
        _report(3, "factored and projector schemes converge at first order", ok, detail)


def test_04_rotation_equivariance():
    ok, detail = False, ""
    try:
        model = builtin("ou", kappa=1.0, sigma=0.5, d=4)
        init = default_initial(model, N=256, R=2, seed=3)
        worst = 0.0
        for trial in range(10):
            g = _rng(100 + trial).standard_normal((2, 2))
            Q, Rt = np.linalg.qr(g)
            s = np.sign(np.diag(Rt))
            s[s == 0] = 1.0
            Q = Q * s
            path = paths.generate(50 + trial, 100, 1e-3, 256, model.m)
            # the same run from (U0, Y0) and from (Q U0, Y0 Q^T), common noise
            base = integrate(model, init, "do", 0.1, 1e-3, path)
            rot = integrate(
                model, DoState(t=0.0, U=Q @ init.U, Y=init.Y @ Q.T), "do", 0.1, 1e-3, path
            )
            defect = 0.0
            for sb, sr in zip(base.states, rot.states):
                defect = max(defect, l2_distance(sr.product(), sb.product()))
            worst = max(worst, defect)
            assert defect <= 1e-8, (trial, defect)
        ok, detail = True, "10 trials, worst product defect %.1e <= 1e-8" % worst
    finally:
        _report(4, "coefficient-frame rotation leaves the ensemble invariant", ok, detail)


def test_05_picard_contraction():
    ok, detail = False, ""
    try:
        t0 = time.monotonic()
        model = builtin("ou", kappa=0.25, sigma=0.25, d=4)
        N, R = 256, 1
        init = default_initial(model, N=N, R=R, seed=5)
        rho_sq = float(np.max(np.sum(init.Y**2, axis=1)))
        gamma = kernels.gram(init.Y).inv_frobenius
        delta = kernels.picard_delta(R, math.sqrt(rho_sq), gamma, model.d, model.C_lgb)
        grid = 64
        path = paths.generate(2, grid, delta / grid, N, model.m)
        res = picard_local_solve(model, init.U, init.Y, path, n_iters=7)
        # iterates stay inside the admissible region
        assert all(v <= 3.0 * R for v in res.sup_U_sq), res.sup_U_sq
        assert all(v <= 3.0 * rho_sq + 1.0 for v in res.exp_sup_Y_sq), res.exp_sup_Y_sq
        # halving per sweep for n in {2..6}; exact zeros pass identically
        sd = res.sup_differences
        for n in range(2, 7):
            assert sd[n] <= 0.5 * sd[n - 1], (n, sd)
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0, elapsed
        ok, detail = True, "window %.2e, Delta2..7 max ratio %.1e <= 0.5, %.2fs < 10s" % (
            delta,
            max(
                (sd[n] / sd[n - 1]) for n in range(2, 7) if sd[n - 1] > 0
            ) if any(sd[n - 1] > 0 for n in range(2, 7)) else 0.0,
            elapsed,
        )
    finally:
        _report(5, "local fixed-point sweeps contract inside the window", ok, detail)


def test_06_second_moment_envelope():
    ok, detail = False, ""
    try:
        margins = []
        for name in ("ou", "linear_lowrank", "gbm_clipped", "mode_crossing", "additive_floor"):
            model = builtin(name)
            init = default_initial(model, N=256, R=2, seed=4)
            T, dt = model.horizon, 1e-3
            path = paths.generate(23, int(round(T / dt)), dt, 256, model.m)
            policy = RestartPolicy(model) if name == "mode_crossing" else None
            traj = integrate(model, init, "do", T, dt, path, record_stride=50, policy=policy)
            assert traj.completed, name
            E_Y0 = float(np.mean(np.sum(init.Y**2, axis=1)))
            M_T = kernels.stability_bound_M(T, E_Y0, model.C_lgb)
            max_EY = max(float(np.mean(np.sum(s.Y**2, axis=1))) for s in traj.states)
            max_EX = max(
                float(np.mean(np.sum((s.Y @ s.U) ** 2, axis=1))) for s in traj.states
            )
            assert max_EY <= M_T, (name, max_EY, M_T)
            assert max_EX <= M_T, (name, max_EX, M_T)
            margins.append(max_EY / M_T)
        ok, detail = True, "5 builtins, zero violations, tightest use %.2g of bound" % max(
            margins
        )
    finally:
        _report(6, "second moments stay under the growth envelope", ok, detail)


def test_07_higher_moment_envelopes():
    ok, detail = False, ""
    try:
        model = builtin("additive_floor")
        init = default_initial(model, N=512, R=2, seed=9)
        T, dt = model.horizon, 1e-3
        path = paths.generate(17, int(round(T / dt)), dt, 512, model.m)
        traj = integrate(model, init, "do", T, dt, path, record_stride=100)
        worst_use = 0.0
        for k in (1, 2):
            # E|Y_t|^{2k} at every recorded time
            values = np.array(
                [float(kernels.ensemble_mean(np.sum(s.Y**2, axis=1) ** k)) for s in traj.states]
            )
            bounds = np.array(
                [kernels.moment_bound_2k(k, s.t, values[0], model.C_lgb) for s in traj.states]
            )
            assert np.all(values <= bounds), (k, int(np.sum(values > bounds)))
            worst_use = max(worst_use, float(np.max(values / bounds)))
        ok, detail = True, "k in {1,2}, zero violations, max use %.2g of bound" % worst_use
    finally:
        _report(7, "2k-th moments stay under their envelope curves", ok, detail)


def test_08_time_increment_scaling():
    ok, detail = False, ""
    try:
        t0 = time.monotonic()
        model = builtin("additive_floor")
        N = 4096
        init = default_initial(model, N=N, R=2, seed=9)
        path = paths.generate(13, 1000, 1e-3, N, model.m)
        traj = integrate(model, init, "reference", 1.0, 1e-3, path)
        # slope of log E|X_t - X_{t-h}|^{2k} against log h, the moment at
        # each gap h = 4, 8, ..., 64 record spacings averaged over every t
        X = [s.X for s in traj.states]
        dt = traj.states[1].t - traj.states[0].t
        offsets = [4 * 2**j for j in range(5)]
        moments = []  # per gap, the k = 1 and k = 2 moments
        for off in offsets:
            acc = []
            for i in range(off, len(X)):
                diff_sq = np.sum((X[i] - X[i - off]) ** 2, axis=1)
                acc.append([float(kernels.ensemble_mean(diff_sq**k)) for k in (1, 2)])
            moments.append([float(np.mean(col)) for col in zip(*acc)])
        log_gaps = np.log(np.array([off * dt for off in offsets]))
        slope1, slope2 = (
            float(np.polyfit(log_gaps, np.log(np.array(col)), 1)[0]) for col in zip(*moments)
        )
        elapsed = time.monotonic() - t0
        assert 0.9 <= slope1 <= 1.3, slope1
        assert slope2 >= 1.8, slope2
        assert elapsed < 60.0, elapsed
        ok, detail = True, "slopes k1 %.3f in [0.9,1.3], k2 %.3f >= 1.8, %.1fs < 60s" % (
            slope1, slope2, elapsed
        )
    finally:
        _report(8, "time-increment moments scale with the expected orders", ok, detail)


def test_09_explosion_detection_and_restart():
    ok, detail = False, ""
    try:
        model = builtin("mode_crossing", t_star=1.0, d=4)
        N, dt = 64, 1e-3
        init = default_initial(model, N=N, R=2, seed=0)
        n = int(round(model.horizon / dt))
        path = paths.generate(23, n, dt, N, model.m)
        policy = RestartPolicy(model)
        traj = integrate(model, init, "do", model.horizon, dt, path, policy=policy)
        assert traj.completed and len(traj.events) == 1

        # the policy's rank events are the explosion record
        T_e = traj.events[0].t_event
        assert abs(T_e - 1.0) <= 0.05, T_e

        # at least 5 consecutive inverse-norm levels crossed, at
        # non-decreasing times, all before the event
        inv = [c for c in policy.crossings if c.which == "inv_norm"]
        assert len(inv) >= 5, len(inv)
        head = inv[:5]
        assert [c.n for c in head] == [1, 2, 3, 4, 5]
        assert all(a.t <= b.t for a, b in zip(head, head[1:]))
        assert all(c.t <= T_e for c in head)

        # continuity across the restart: recorded products immediately
        # before and after the event stay within the discarded mass plus
        # a one-step slack
        ev = traj.events[0]
        times = [s.t for s in traj.states]
        i = times.index(ev.t_event)
        jump = l2_distance(traj.states[i].product(), traj.states[i + 1].product())
        bound = math.sqrt(ev.discarded_mass) + 10 * dt
        assert jump <= bound, (jump, bound)
        ok, detail = True, "T_e %.3f (|err| <= 0.05), %d crossings, jump %.1e <= %.1e" % (
            T_e, len(inv), jump, bound
        )
    finally:
        _report(9, "explosion detector, level crossings, restart continuity", ok, detail)


def test_10_noise_floor_keeps_spectrum_up():
    ok, detail = False, ""
    try:
        t0 = time.monotonic()
        model = builtin("additive_floor")
        init = default_initial(model, N=512, R=2, seed=9)
        dt = 1e-3
        path = paths.generate(17, 10000, dt, 512, model.m)
        traj = integrate(model, init, "do", 10.0, dt, path, record_stride=10)
        assert traj.completed and not traj.events
        lam_min = min(row.lambda_min for row in traj.diag)
        E_Y0 = float(np.mean(np.sum(init.Y**2, axis=1)))
        rep0 = kernels.gram(init.Y)
        rho = math.sqrt(float(np.max(np.sum(init.Y**2, axis=1))))
        bounds = kernels.well_posedness_bounds(
            2, model.d, rho, rep0.inv_frobenius, 10.0, E_Y0, model.C_lgb
        )
        floor = kernels.noise_floor_bound(model.sigma_B, model.C_lgb, bounds.M_T,
                                          rep0.eigenvalues[0])
        elapsed = time.monotonic() - t0
        assert floor > 0.0
        assert lam_min >= 0.5 * floor, (lam_min, floor)
        assert elapsed < 60.0, elapsed
        ok, detail = True, "min eig %.3g >= 0.5 * floor %.2g, no events, %.1fs < 60s" % (
            lam_min, floor, elapsed
        )
    finally:
        _report(10, "uniform noise keeps the coefficient spectrum alive", ok, detail)


def test_11_certified_scalar_bounds():
    ok, detail = False, ""
    try:
        grid = np.linspace(0.25, 4.0, 16)
        for g in grid:
            vals = [kernels.eta_radius(r, g) for r in grid]
            assert all(a > b for a, b in zip(vals, vals[1:])), ("rho", g)
        for r in grid:
            vals = [kernels.eta_radius(r, g) for g in grid]
            assert all(a > b for a, b in zip(vals, vals[1:])), ("gamma", r)

        rep = projector_lipschitz_harness(n_trials=1000, N=32, d=8, R=3, seed=0)
        tol = 1.0 + 1e-12
        assert rep.max_ratio_U <= tol, rep.max_ratio_U
        assert rep.max_ratio_V <= tol, rep.max_ratio_V
        assert rep.max_ratio_combined <= tol, rep.max_ratio_combined
        ok, detail = True, "16x16 grid strictly monotone; 1000 trials, max ratio %.3f <= 1" % max(
            rep.max_ratio_U, rep.max_ratio_V, rep.max_ratio_combined
        )
    finally:
        _report(11, "radius monotone on grid; perturbation bounds certified", ok, detail)


def test_12_byte_determinism_across_threads(tmp_path):
    ok, detail = False, ""
    try:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "model.name = ou\n"
            "model.kappa = 1.0\n"
            "model.sigma = 0.5\n"
            "run.dim = 4\n"
            "run.scheme = do\n"
            "run.t_end = 0.05\n"
            "run.dt = 1e-3\n"
            "run.n_atoms = 64\n"
            "run.rank = 2\n"
            "run.seed = 11\n"
            "run.out_dir = unused\n"
        )

        def run(out, threads):
            env = dict(os.environ)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
                env[var] = str(threads)
            proc = subprocess.run(
                [sys.executable, "-m", "dosde", "simulate", str(cfg), "--out", str(out)],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr

        run(tmp_path / "a", 1)
        run(tmp_path / "b", 8)
        run(tmp_path / "c", 1)
        for name in ("trajectory.csv", "diagnostics.csv", "events.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            assert a == (tmp_path / "b" / name).read_bytes(), (name, "1 vs 8 threads")
            assert a == (tmp_path / "c" / name).read_bytes(), (name, "rerun")
        ok, detail = True, "trajectory/diagnostics/events byte-identical at 1 and 8 threads"
    finally:
        _report(12, "byte-identical outputs across reruns and thread counts", ok, detail)
