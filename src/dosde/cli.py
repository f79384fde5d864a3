"""Command-line harness: simulate, compare, picard-demo, lipschitz-harness,
explosion-study, plus a --self-test invariant suite.

The library modules are imported once, at module level, and called
through the module (``integrators.integrate``, ``models.builtin``), so
rebinding a module attribute, as a tracer does, reaches every call.
``_setup`` builds the model and initial datum of every command that
runs one.
Each ``cmd_*`` takes the config alone and returns (exit code, tables,
model, run).  ``_execute`` times it, and only then writes every output:
the tables, a run's trajectory, diagnostics and events, and manifest.txt
last.  A command that raises leaves no output directory.

Exit codes: 0 success, 2 config error (also sizes that cannot be
allocated, a MemoryError, a Brownian grid ``paths.check_grid`` refuses, and an
output directory that cannot be made, an OSError), 3 numerical failure
(including a run that stopped before t_end; its outputs are still
written), 4 self-test failure.  All CSV
output uses 17 significant digits, so reruns of the same config are
byte-identical; the wall-time and peak-RSS lines live only in
manifest.txt.
"""

import argparse
import ctypes
import filecmp
import math
import os
import resource
import sys
import tempfile
import time
from itertools import chain

import numpy as np

from . import config, diagnostics, integrators, kernels, models, paths, picard, rank_control
from .errors import BadParams, DosdeError, ParseError, ValidationError

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


def _setup(cfg):
    """The config's model and its documented initial datum."""
    model = models.builtin(cfg.model_name, d=cfg.dim, **cfg.model_params)
    return model, models.default_initial(model, cfg.n_atoms, cfg.rank, seed=cfg.seed)


# Trajectory rows formatted by one ``%`` each: long enough to amortise
# the call, short enough that a block's text stays small.
_CSV_BLOCK_ROWS = 4096


def _write_trajectory(path, traj):
    """trajectory.csv, one recorded array at a time: a factored state
    writes U then Y, a full state X, each flattened row-major."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,kind,index,value\n")
        for state in traj.states:
            if isinstance(state, integrators.DoState):
                arrays = (("U", state.U), ("Y", state.Y))
            else:
                arrays = (("X", state.X),)
            for kind, a in arrays:
                row = "%.17g,%s,%%d,%%.17g\n" % (state.t, kind)
                values = a.ravel()
                for start in range(0, len(values), _CSV_BLOCK_ROWS):
                    part = values[start:start + _CSV_BLOCK_ROWS].tolist()
                    pairs = zip(range(start, start + len(part)), part)
                    fh.write(row * len(part) % tuple(chain.from_iterable(pairs)))


def _peak_rss_mb():
    """Peak resident set size of this process so far, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20) if sys.platform == "darwin" else peak / 1024  # bytes vs KiB


def _blas_info():
    """(CPU kernel name, thread count) of the OpenBLAS that numpy loaded,
    read through its exported getters; "unknown" for other BLAS builds.
    Output bits may differ between OpenBLAS kernels, never thread counts."""
    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
        core = lib.scipy_openblas_get_corename64_
        threads = lib.scipy_openblas_get_num_threads64_
    except (ImportError, OSError, AttributeError):
        return "unknown", "unknown"
    core.argtypes, core.restype = [], ctypes.c_char_p
    threads.argtypes, threads.restype = [], ctypes.c_int
    return core().decode(), str(threads())


def _log_simd():
    """numpy's dispatch target for float64 ``log`` ("unknown" before
    numpy 2).  The last bits of tail normals follow it."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return "unknown"
    info = opt_func_info(func_name="^log$", signature="float64")
    return info.get("log", {}).get("dd", {}).get("current", "unknown")


def _write_manifest(out_dir, cfg, wall_time, command, traj, model):
    with open(os.path.join(out_dir, "manifest.txt"), "w", encoding="utf-8") as fh:
        fh.write("build = %s\n" % BUILD_ID)
        fh.write("command = %s\n" % command)
        fh.write("config_hash = %s\n" % config.config_hash(cfg))
        fh.write("seed = %d\n" % cfg.seed)
        fh.write("numpy = %s\n" % np.__version__)
        fh.write("blas_core = %s\nblas_threads = %s\n" % _blas_info())
        fh.write("log_simd = %s\n" % _log_simd())
        fh.write("wall_time_s = %.3f\n" % wall_time)
        fh.write("peak_rss_mb = %.1f\n" % _peak_rss_mb())
        if model is not None:
            fh.write("diffusion = %s\n" % ("diagonal" if model.diagonal_noise else "constant"))
            fh.write("n_atoms = %d\ndim = %d\nrank = %d\nchannels = %d\n"
                     % (cfg.n_atoms, model.d, cfg.rank, model.m))
        if traj is not None:
            fh.write("completed = %s\n" % ("true" if traj.completed else "false"))
            fh.write("t_reached = %s\n" % _fmt(traj.diag[-1].t))
            fh.write("steps = %d\n" % round(traj.diag[-1].t / cfg.dt))
            fh.write("rank_events = %d\n" % len(traj.events))


def _exit_status(t_end, *trajs):
    """3, naming the time reached, when any run stopped before t_end; 0 otherwise."""
    for traj in trajs:
        if not traj.completed:
            print(
                "numerical failure: %s run stopped at t=%r before t_end=%r"
                % (traj.scheme, traj.diag[-1].t, t_end),
                file=sys.stderr,
            )
            return 3
    return 0


def _run_simulation(cfg):
    model, initial = _setup(cfg)
    n_steps = integrators.grid_steps(cfg.t_end, cfg.dt)
    path = paths.generate(cfg.seed, n_steps, cfg.dt, cfg.n_atoms, model.m)
    policy = None
    if cfg.scheme == "do":
        policy = rank_control.RestartPolicy(
            model,
            n_max=cfg.n_max,
            cap_factor=cfg.gamma_cap_factor,
            sv_tolerance=cfg.sv_tolerance,
        )
    traj = integrators.integrate(
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


def cmd_simulate(cfg):
    model, traj, _ = _run_simulation(cfg)
    return _exit_status(cfg.t_end, traj), [], model, traj


class _ComparedPair:
    """Both compared schemes on one level's grid, advanced a window at a
    time by one ``integrate`` call each.

    Only the current states are kept between windows.  A window's
    records pair up in order, and a longer run's extra records go
    unpaired.  ``sup`` is the sup over paired records of their L2
    distance, and ``scale`` the sup of the first scheme's ensemble L2
    norm there.  A run that halted is not advanced again; ``halted``
    holds its trajectory, for ``_exit_status``.
    """

    def __init__(self, cfg, model, initial, dt):
        self.cfg, self.model, self.dt = cfg, model, dt
        self.states = [initial, initial]
        self.halted = []
        self.sup = self.scale = 0.0

    def advance(self, t_end, path):
        schemes = (self.cfg.scheme, self.cfg.compare_scheme_b)
        records = [self._run(i, scheme, t_end, path) for i, scheme in enumerate(schemes)]
        for sa, sb in zip(*records):
            xa = sa.product()
            self.sup = max(self.sup, diagnostics.l2_distance(xa, sb.product()))
            self.scale = max(self.scale, math.sqrt(kernels.mean_sq_norm(xa)))

    def _run(self, i, scheme, t_end, path):
        """Advance scheme ``i`` to ``t_end`` and return the window's new records."""
        start = self.states[i]
        if start is None:
            return []
        run = integrators.integrate(self.model, start, scheme, t_end, self.dt, path,
                                    R=self.cfg.rank)
        self.states[i] = run.states[-1] if run.completed else None
        if not run.completed:
            self.halted.append(run)
        # A resumed window's first record is the last one of the window
        # before, already seen.
        return run.states[1:] if start.t > 0 else run.states


# A sup error within this many machine epsilons of the ensemble's L2 norm
# is round-off: the two schemes agree, and no rate is read from it.
_ROUNDOFF_EPS = 2**7


def cmd_compare(cfg):
    """Strong error of the first scheme against the second at
    ``compare.levels`` halvings of dt, on one nested Brownian path.

    Every level resolves the same finest grid (common noise).
    ``paths.lockstep`` draws that grid's normals once, in windows of
    whole coarsest steps, and each window advances every level's two
    runs by one ``integrate`` call each.  Memory holds one window, its
    records and the current states, whatever t_end.
    """
    model, initial = _setup(cfg)
    levels = cfg.compare_levels
    n0 = integrators.grid_steps(cfg.t_end, cfg.dt)
    pairs = [_ComparedPair(cfg, model, initial, cfg.dt / (1 << lvl)) for lvl in range(levels)]
    # A window also bounds the records it holds, d values per atom and scheme.
    windows = paths.lockstep(cfg.seed, n0, cfg.dt, cfg.n_atoms, model.m, levels, width=model.d)
    for stop, ladder in windows:
        # The last window ends at t_end itself, which integrate checks
        # against the grid.
        t_stop = cfg.t_end if stop == n0 else stop * cfg.dt
        for pair, level_path in zip(pairs, ladder):
            pair.advance(t_stop, level_path)
    resolved = [pair.sup > _ROUNDOFF_EPS * np.finfo(float).eps * pair.scale for pair in pairs]
    rows = []
    for lvl, pair in enumerate(pairs):
        rate = float("nan")
        if lvl > 0 and resolved[lvl - 1] and resolved[lvl]:
            rate = float(np.log2(pairs[lvl - 1].sup / pair.sup))
        rows.append((lvl, pair.dt, pair.sup, rate))
    code = _exit_status(cfg.t_end, *(run for pair in pairs for run in pair.halted))
    return code, [("error_report.csv", "level,dt,sup_error,rate_vs_prev", rows)], model, None


def cmd_picard_demo(cfg):
    model, initial = _setup(cfg)
    rep = kernels.gram(initial.Y)
    rho = math.sqrt(kernels.mean_sq_norm(initial.Y))
    delta = kernels.picard_delta(cfg.rank, rho, rep.inv_frobenius, cfg.dim, model.C_lgb)
    grid = cfg.picard_grid
    path = paths.generate(cfg.seed, grid, delta / grid, cfg.n_atoms, model.m)
    result = picard.picard_local_solve(model, initial.U, initial.Y, path, n_iters=cfg.picard_iters)
    rows = []
    for i, dlt in enumerate(result.sup_differences, start=1):
        prev = result.sup_differences[i - 2] if i >= 2 else float("nan")
        ratio = dlt / prev if i >= 2 and prev > 0 else float("nan")
        rows.append((i, dlt, ratio, result.sup_U_sq[i], result.exp_sup_Y_sq[i]))
    header = "iter,sup_difference,ratio_vs_prev,sup_U_sq,exp_sup_Y_sq"
    return 0, [("picard.csv", header, rows)], model, None


def cmd_lipschitz_harness(cfg):
    report = diagnostics.projector_lipschitz_harness(
        n_trials=cfg.harness_trials,
        N=cfg.harness_atoms,
        d=cfg.harness_dim,
        R=cfg.harness_rank,
        seed=cfg.seed,
    )
    ratios = (report.max_ratio_U, report.max_ratio_V, report.max_ratio_combined)
    table = ("harness.csv", "n_trials,max_ratio_U,max_ratio_V,max_ratio_combined",
             [(report.n_trials, *ratios)])
    if max(ratios) > 1.0 + 1e-12:
        print("numerical failure: projector perturbation bound exceeded", file=sys.stderr)
        return 3, [table], None, None
    return 0, [table], None, None


def cmd_explosion_study(cfg):
    model, traj, policy = _run_simulation(cfg)
    # The rank events are the explosion record; the first is T_e.
    t_e = traj.events[0].t_event if traj.events else float("nan")
    crossings = policy.crossings if policy else []
    tables = [
        ("explosion.csv", "exploded,T_e_estimate", [(int(bool(traj.events)), t_e)]),
        ("crossings.csv", "n,t,which,delta_n",
         [(c.n, c.t, c.which, c.delta_n) for c in crossings]),
    ]
    return _exit_status(cfg.t_end, traj), tables, model, traj


def _self_test():
    """Fast invariant suite on this install's numpy and BLAS: the engine's
    runs and the CLI's wiring (closed forms are tier-1's); returns 0 or 4."""
    checks = []

    def check(name, ok):
        checks.append((name, ok))
        return ok

    model = models.builtin("ou", kappa=1.0, sigma=1.0, d=3)
    init = models.default_initial(model, 32, 3, seed=1)
    path = paths.generate(3, 20, 0.01, 32, 3)
    do_traj = integrators.integrate(model, init, "do", 0.2, 0.01, path)
    ref_traj = integrators.integrate(model, init, "reference", 0.2, 0.01, path)
    dev = 0.0
    for sd, sr in zip(do_traj.states, ref_traj.states):
        xd = sd.product()
        dev = max(dev, float(np.max(np.abs(xd - sr.X) / np.maximum(np.abs(sr.X), 1e-30))))
    check("full-rank factored run matches reference", dev <= 1e-10)
    worst_ortho = max(
        float(np.linalg.norm(s.U @ s.U.T - np.eye(s.U.shape[0]))) for s in do_traj.states
    )
    check("basis orthonormality", worst_ortho <= 1e-10)
    half = integrators.integrate(model, init, "do", 0.1, 0.01, path)
    rest = integrators.integrate(model, half.states[-1], "do", 0.2, 0.01, path)
    split = half.states + rest.states[1:]
    check("split run equals unbroken run", len(split) == len(do_traj.states) and all(
        a.t == b.t and a.U.tobytes() == b.U.tobytes() and a.Y.tobytes() == b.Y.tobytes()
        for a, b in zip(split, do_traj.states)
    ))

    cfg = config.parse_config(
        "model.name = ou\nmodel.kappa = 1.5\nrun.scheme = do\nrun.t_end = 0.1\n"
        "run.dt = 0.01\nrun.n_atoms = 16\nrun.rank = 2\nrun.dim = 2\n"
    )
    check("config round-trip", config.parse_config(config.serialize(cfg)) == cfg)

    with tempfile.TemporaryDirectory() as tmp:
        out_a = os.path.join(tmp, "a")
        out_b = os.path.join(tmp, "b")
        _execute("simulate", cfg, out_a)
        _execute("simulate", cfg, out_b)
        same = all(filecmp.cmp(os.path.join(out_a, f), os.path.join(out_b, f), shallow=False)
                   for f in ("trajectory.csv", "diagnostics.csv", "events.csv"))
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


def _execute(command, cfg, out_dir):
    """Run one command, write its outputs to ``out_dir`` and return its
    exit code.  The command is timed alone; the directory is made only
    once it has returned, and manifest.txt is written last."""
    start = time.perf_counter()
    code, tables, model, run = _COMMANDS[command](cfg)
    wall_time = time.perf_counter() - start
    os.makedirs(out_dir, exist_ok=True)
    if run is not None:
        _write_trajectory(os.path.join(out_dir, "trajectory.csv"), run)
        tables += [
            ("diagnostics.csv", "t,gauge_defect,ortho_defect,gram_inv_frobenius,lambda_min",
             [(r.t, r.gauge_defect, r.ortho_defect, r.gram_inv_frobenius, r.lambda_min)
              for r in run.diag]),
            ("events.csv", "t,old_rank,new_rank,discarded_mass,inv_norm_at_event",
             [(e.t_event, e.old_rank, e.new_rank, e.discarded_mass, e.inv_norm_at_event)
              for e in run.events]),
        ]
    for name, header, rows in tables:
        _write_csv(os.path.join(out_dir, name), header, rows)
    _write_manifest(out_dir, cfg, wall_time, command, run, model)
    return code


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
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = config.parse_config(fh.read())
        return _execute(args.command, cfg, args.out or cfg.out_dir)
    except (ParseError, ValidationError, BadParams, OSError, MemoryError) as err:
        print("config error: %s" % err, file=sys.stderr)
        return 2
    except DosdeError as err:
        print("numerical failure: %s" % err, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
