"""Command-line harness: simulate, compare, picard-demo, lipschitz-harness,
explosion-study, plus a --self-test invariant suite.

Exit codes: 0 success, 2 config error, 3 numerical failure (including a
run that stopped before t_end; its outputs are still written), 4
self-test failure.  All CSV output uses 17 significant digits, so reruns
of the same config are byte-identical; the wall-time and peak-RSS lines
live only in manifest.txt.
"""

import argparse
import os
import sys
import time

from .errors import (
    BadParams,
    DosdeError,
    ParseError,
    UnknownModel,
    ValidationError,
)

BUILD_ID = "dosde-0.1.0"


def _fmt(x):
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    from .config import parse_config

    return parse_config(text)


def _build_model(cfg):
    from .models import builtin

    return builtin(cfg.model_name, d=cfg.dim, **cfg.model_params)


def _trajectory_rows(traj):
    from .integrators import DoState

    rows = []
    for state in traj.states:
        t = state.t
        if isinstance(state, DoState):
            flatU = state.U.ravel()
            for idx in range(flatU.size):
                rows.append((t, "U", idx, flatU[idx]))
            flatY = state.Y.ravel()
            for idx in range(flatY.size):
                rows.append((t, "Y", idx, flatY[idx]))
        else:
            flatX = state.X.ravel()
            for idx in range(flatX.size):
                rows.append((t, "X", idx, flatX[idx]))
    return rows


def _write_run_outputs(out_dir, cfg, traj, wall_time, command):
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(
        os.path.join(out_dir, "trajectory.csv"),
        "t,kind,index,value",
        _trajectory_rows(traj),
    )
    _write_csv(
        os.path.join(out_dir, "diagnostics.csv"),
        "t,gauge_defect,ortho_defect,gram_inv_frobenius,lambda_min",
        [
            (r.t, r.gauge_defect, r.ortho_defect, r.gram_inv_frobenius, r.lambda_min)
            for r in traj.diag
        ],
    )
    _write_csv(
        os.path.join(out_dir, "events.csv"),
        "t,old_rank,new_rank,discarded_mass,inv_norm_at_event",
        [
            (e.t_event, e.old_rank, e.new_rank, e.discarded_mass, e.inv_norm_at_event)
            for e in traj.events
        ],
    )
    _write_manifest(out_dir, cfg, wall_time, command, traj)


def _peak_rss_mb():
    """Peak resident set size of this process so far, in MiB."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20) if sys.platform == "darwin" else peak / 1024  # bytes vs KiB


def _write_manifest(out_dir, cfg, wall_time, command, traj=None):
    import numpy
    import scipy

    from .config import config_hash

    with open(os.path.join(out_dir, "manifest.txt"), "w", encoding="utf-8") as fh:
        fh.write("build = %s\n" % BUILD_ID)
        fh.write("command = %s\n" % command)
        fh.write("config_hash = %s\n" % config_hash(cfg))
        fh.write("seed = %d\n" % cfg.seed)
        fh.write("numpy = %s\n" % numpy.__version__)
        fh.write("scipy = %s\n" % scipy.__version__)
        fh.write("wall_time_s = %.3f\n" % wall_time)
        fh.write("peak_rss_mb = %.1f\n" % _peak_rss_mb())
        if traj is not None:
            fh.write("completed = %s\n" % ("true" if traj.completed else "false"))
            fh.write("t_reached = %s\n" % _fmt(traj.diag[-1].t))


def _exit_status(t_end, *trajs):
    """3, with a message, when any run stopped before t_end; 0 otherwise."""
    for traj in trajs:
        if not traj.completed:
            print(
                "numerical failure: %s run stopped at t=%r before t_end=%r"
                % (traj.scheme, traj.events[-1].t_event, t_end),
                file=sys.stderr,
            )
            return 3
    return 0


def _run_simulation(cfg):
    from . import paths
    from .integrators import integrate
    from .models import default_initial
    from .rank_control import RestartPolicy

    model = _build_model(cfg)
    initial = default_initial(model, cfg.n_atoms, cfg.rank, seed=cfg.seed)
    n_steps = int(round(cfg.t_end / cfg.dt))
    path = paths.generate(cfg.seed, n_steps, cfg.dt, cfg.n_atoms, model.m)
    policy = None
    if cfg.scheme == "do":
        policy = RestartPolicy(
            model,
            n_max=cfg.n_max,
            cap_factor=cfg.gamma_cap_factor,
            sv_tolerance=cfg.sv_tolerance,
        )
    traj = integrate(
        model,
        initial,
        cfg.scheme,
        cfg.t_end,
        cfg.dt,
        path,
        record_stride=cfg.record_stride,
        policy=policy,
        R=cfg.rank,
    )
    return model, traj, policy


def cmd_simulate(cfg, out_dir):
    if cfg.scheme == "picard":
        return cmd_picard_demo(cfg, out_dir)
    start = time.perf_counter()
    _, traj, _ = _run_simulation(cfg)
    _write_run_outputs(out_dir, cfg, traj, time.perf_counter() - start, "simulate")
    return _exit_status(cfg.t_end, traj)


def cmd_compare(cfg, out_dir):
    import numpy as np

    from . import paths
    from .diagnostics import l2_distance
    from .integrators import integrate
    from .models import default_initial

    start = time.perf_counter()
    model = _build_model(cfg)
    initial = default_initial(model, cfg.n_atoms, cfg.rank, seed=cfg.seed)
    levels = cfg.compare_levels
    n0 = int(round(cfg.t_end / cfg.dt))
    # All levels resolve the same finest grid: nested common noise.  It
    # is drawn once, finest level first; each coarser level is its
    # pairwise sum, so at most two levels' increments are held at once.
    top = levels - 1
    path = paths.generate(cfg.seed, n0 << top, cfg.dt / (1 << top), cfg.n_atoms, model.m)
    path.increments  # draw it once for both schemes and the next level
    sup_errors = [0.0] * levels
    trajs = [None] * levels
    for lvl in reversed(range(levels)):
        if lvl < top:
            path = path.coarsened()
        dt_l = cfg.dt / (1 << lvl)
        traj_a = integrate(model, initial, cfg.scheme, cfg.t_end, dt_l, path, R=cfg.rank)
        traj_b = integrate(
            model, initial, cfg.compare_scheme_b, cfg.t_end, dt_l, path, R=cfg.rank
        )
        trajs[lvl] = (traj_a, traj_b)
        for sa, sb in zip(traj_a.states, traj_b.states):
            sup_errors[lvl] = max(sup_errors[lvl], l2_distance(sa.product(), sb.product()))
    rows = []
    for lvl, sup in enumerate(sup_errors):
        rate = (
            float(np.log2(sup_errors[lvl - 1] / sup)) if lvl > 0 and sup > 0 else float("nan")
        )
        rows.append((lvl, cfg.dt / (1 << lvl), sup, rate))
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, "error_report.csv"), "level,dt,sup_error,rate_vs_prev", rows)
    _write_manifest(out_dir, cfg, time.perf_counter() - start, "compare")
    return _exit_status(cfg.t_end, *(traj for pair in trajs for traj in pair))


def cmd_picard_demo(cfg, out_dir):
    import math

    from . import kernels, paths
    from .models import default_initial
    from .picard import picard_local_solve

    start = time.perf_counter()
    model = _build_model(cfg)
    initial = default_initial(model, cfg.n_atoms, cfg.rank, seed=cfg.seed)
    rep = kernels.gram(initial.Y)
    rho = math.sqrt(kernels.mean_sq_norm(initial.Y))
    delta = kernels.picard_delta(cfg.rank, rho, rep.inv_frobenius, cfg.dim, model.C_lgb)
    grid = cfg.picard_grid
    path = paths.generate(cfg.seed, grid, delta / grid, cfg.n_atoms, model.m)
    result = picard_local_solve(model, initial.U, initial.Y, path, n_iters=cfg.picard_iters)
    rows = []
    for i, dlt in enumerate(result.sup_differences, start=1):
        prev = result.sup_differences[i - 2] if i >= 2 else float("nan")
        ratio = dlt / prev if i >= 2 and prev > 0 else float("nan")
        rows.append((i, dlt, ratio, result.sup_U_sq[i], result.exp_sup_Y_sq[i]))
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(
        os.path.join(out_dir, "picard.csv"),
        "iter,sup_difference,ratio_vs_prev,sup_U_sq,exp_sup_Y_sq",
        rows,
    )
    _write_manifest(out_dir, cfg, time.perf_counter() - start, "picard-demo")
    return 0


def cmd_lipschitz_harness(cfg, out_dir):
    from .diagnostics import projector_lipschitz_harness

    start = time.perf_counter()
    report = projector_lipschitz_harness(
        n_trials=cfg.harness_trials,
        N=cfg.harness_atoms,
        d=cfg.harness_dim,
        R=cfg.harness_rank,
        seed=cfg.seed,
    )
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(
        os.path.join(out_dir, "harness.csv"),
        "n_trials,max_ratio_U,max_ratio_V,max_ratio_combined",
        [(report.n_trials, report.max_ratio_U, report.max_ratio_V, report.max_ratio_combined)],
    )
    _write_manifest(out_dir, cfg, time.perf_counter() - start, "lipschitz-harness")
    if max(report.max_ratio_U, report.max_ratio_V, report.max_ratio_combined) > 1.0 + 1e-12:
        print("numerical failure: projector perturbation bound exceeded", file=sys.stderr)
        return 3
    return 0


def cmd_explosion_study(cfg, out_dir):
    from .rank_control import detect_explosion

    start = time.perf_counter()
    _, traj, policy = _run_simulation(cfg)
    exploded, t_e = detect_explosion(traj.diag, policy.gamma_cap if policy else float("inf"))
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(
        os.path.join(out_dir, "explosion.csv"),
        "exploded,T_e_estimate",
        [(int(exploded), t_e if t_e is not None else float("nan"))],
    )
    crossings = policy.crossings if policy else []
    _write_csv(
        os.path.join(out_dir, "crossings.csv"),
        "n,t,which,delta_n",
        [(c.n, c.t, c.which, c.delta_n) for c in crossings],
    )
    _write_run_outputs(out_dir, cfg, traj, time.perf_counter() - start, "explosion-study")
    return _exit_status(cfg.t_end, traj)


def _self_test():
    """Fast invariant suite; returns 0 or 4."""
    import math
    import tempfile

    import numpy as np

    checks = []

    def check(name, ok):
        checks.append((name, ok))
        return ok

    from . import kernels, paths
    from .integrators import integrate
    from .models import builtin, default_initial

    rep = kernels.gram(np.array([[1.0, 0.0], [0.0, 1.0]]))
    check("gram identity example", np.allclose(rep.gram, 0.5 * np.eye(2), atol=1e-15)
          and rep.inverse is not None
          and abs(rep.inv_frobenius - 2.0 * math.sqrt(2.0)) < 1e-12)
    rep2 = kernels.gram(np.array([[1.0, 1.0], [1.0, 1.0]]))
    check("gram singular example", rep2.inverse is None and rep2.rank == 1)
    check(
        "eta closed forms",
        abs(kernels.eta_radius(1.0, 1.0) - (math.sqrt(1.5) - 1.0)) < 1e-15
        and abs(kernels.eta_radius(2.0, 0.5) - (math.sqrt(5.0) - 2.0)) < 1e-15,
    )
    expected_delta = (2.5 - 2.0 * math.sqrt(1.5)) / 1664.0
    check(
        "contraction window example",
        abs(kernels.picard_delta(1, 1.0, 1.0, 1, 1.0) - expected_delta) < 1e-18,
    )
    check(
        "growth envelope examples",
        abs(kernels.stability_bound_M(0.0, 1.0, 1.0) - 3.0) < 1e-15
        and abs(kernels.stability_bound_M(1.0, 1.0, 1.0) - 9.0 * math.exp(6.0)) < 1e-10,
    )
    fine = paths.generate(7, 8, 0.25, 8, 2, level=0)
    coarse = paths.generate(7, 4, 0.5, 8, 2, level=1)
    agg = fine.increments[0::2] + fine.increments[1::2]
    check("path refinement consistency", np.array_equal(agg, coarse.increments))

    model = builtin("ou", kappa=1.0, sigma=1.0, d=3)
    init = default_initial(model, 32, 3, seed=1)
    path = paths.generate(3, 20, 0.01, 32, 3)
    do_traj = integrate(model, init, "do", 0.2, 0.01, path)
    ref_traj = integrate(model, init, "reference", 0.2, 0.01, path)
    dev = 0.0
    for sd, sr in zip(do_traj.states, ref_traj.states):
        xd = sd.product()
        dev = max(dev, float(np.max(np.abs(xd - sr.X) / np.maximum(np.abs(sr.X), 1e-30))))
    check("full-rank factored run matches reference", dev <= 1e-10)
    worst_ortho = max(
        float(np.linalg.norm(s.U @ s.U.T - np.eye(s.U.shape[0]))) for s in do_traj.states
    )
    check("basis orthonormality", worst_ortho <= 1e-10)

    from .config import parse_config, serialize

    cfg = parse_config(
        "model.name = ou\nmodel.kappa = 1.5\nrun.scheme = do\nrun.t_end = 0.1\n"
        "run.dt = 0.01\nrun.n_atoms = 16\nrun.rank = 2\nrun.dim = 2\n"
    )
    check("config round-trip", parse_config(serialize(cfg)) == cfg)

    with tempfile.TemporaryDirectory() as tmp:
        out_a = os.path.join(tmp, "a")
        out_b = os.path.join(tmp, "b")
        cmd_simulate(cfg, out_a)
        cmd_simulate(cfg, out_b)
        same = all(
            open(os.path.join(out_a, f), "rb").read() == open(os.path.join(out_b, f), "rb").read()
            for f in ("trajectory.csv", "diagnostics.csv", "events.csv")
        )
        check("rerun determinism", same)

    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print("self-test %-40s %s" % (name, "ok" if ok else "FAIL"))
    if failed:
        print("self-test failed: %s" % ", ".join(failed), file=sys.stderr)
        return 4
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "picard-demo": cmd_picard_demo,
    "lipschitz-harness": cmd_lipschitz_harness,
    "explosion-study": cmd_explosion_study,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="dosde",
        description="Monte-Carlo engine for dynamically orthogonal low-rank SDE ensembles",
    )
    parser.add_argument("--self-test", action="store_true", help="run the invariant suite and exit")
    parser.add_argument("command", nargs="?", choices=sorted(_COMMANDS), help="subcommand")
    parser.add_argument("config", nargs="?", help="path to a run config file")
    parser.add_argument("--out", help="output directory (overrides run.out_dir)")
    args = parser.parse_args(argv)

    if args.self_test:
        try:
            return _self_test()
        except DosdeError as err:
            print("self-test failed: %s" % err, file=sys.stderr)
            return 4
    if args.command is None or args.config is None:
        parser.print_usage(sys.stderr)
        print("error: a command and a config file are required", file=sys.stderr)
        return 2
    try:
        cfg = _load_config(args.config)
        out_dir = args.out or cfg.out_dir
        return _COMMANDS[args.command](cfg, out_dir)
    except (ParseError, ValidationError, UnknownModel, BadParams) as err:
        print("config error: %s" % err, file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print("config error: %s" % err, file=sys.stderr)
        return 2
    except DosdeError as err:
        print("numerical failure: %s" % err, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
