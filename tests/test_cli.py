"""End-to-end CLI checks through real subprocesses."""

import csv
import os
import subprocess
import sys

import numpy
import pytest
import scipy

BASE = """
model.name = ou
model.kappa = 1.0
model.sigma = 0.5
run.dim = 4
run.scheme = do
run.t_end = 0.05
run.dt = 1e-3
run.n_atoms = 32
run.rank = 2
run.seed = 11
run.record_stride = 10
run.out_dir = {out}
"""


def _run(*args, env=None):
    cmd = [sys.executable, "-m", "dosde", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def _write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_simulate_outputs(tmp_path):
    out = tmp_path / "out"
    cfg = _write(tmp_path, BASE.format(out=out))
    proc = _run("simulate", cfg)
    assert proc.returncode == 0, proc.stderr
    for name in ("trajectory.csv", "diagnostics.csv", "events.csv", "manifest.txt"):
        assert (out / name).exists(), name
    diag = _rows(out / "diagnostics.csv")
    assert len(diag) == 50
    assert set(diag[0]) == {"t", "gauge_defect", "ortho_defect", "gram_inv_frobenius", "lambda_min"}
    traj = _rows(out / "trajectory.csv")
    assert set(traj[0]) == {"t", "kind", "index", "value"}
    # factored runs store the factors; full-state runs would store X
    kinds = {r["kind"] for r in traj}
    assert kinds == {"U", "Y"}
    manifest = (out / "manifest.txt").read_text()
    for key in ("build = ", "command = simulate", "config_hash = ", "seed = 11", "wall_time_s = "):
        assert key in manifest, key
    assert "numpy = %s\n" % numpy.__version__ in manifest
    assert "scipy = %s\n" % scipy.__version__ in manifest
    fields = _manifest(out / "manifest.txt")
    # the CPU kernel does not depend on the thread count, so this process
    # loads the same one as the run did
    from dosde.cli import _blas_info

    assert fields["blas_core"] == _blas_info()[0]
    if fields["blas_core"] == "unknown":
        assert fields["blas_threads"] == "unknown"
    else:
        assert fields["blas_core"].isalnum()
        assert int(fields["blas_threads"]) >= 1
    assert 0.0 < float(fields["peak_rss_mb"]) < 1 << 20
    assert fields["completed"] == "true"
    assert float(fields["t_reached"]) == pytest.approx(0.05, rel=1e-12)
    shape = {key: fields[key] for key in
             ("diffusion", "n_atoms", "dim", "rank", "channels", "steps", "rank_events")}
    assert shape == {"diffusion": "constant", "n_atoms": "32", "dim": "4", "rank": "2",
                     "channels": "4", "steps": "50", "rank_events": "0"}


def _manifest(path):
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split(" = ", 1) for line in fh)


def test_manifest_reports_a_shortened_run(tmp_path):
    # Without a restart policy the factored run halts at the planted
    # collinearity t_star = 1, short of t_end = 1.2.
    from dosde import cli, paths
    from dosde.config import parse_config
    from dosde.integrators import integrate
    from dosde.models import builtin, default_initial

    cfg = parse_config(
        "model.name = mode_crossing\nmodel.t_star = 1.0\nrun.dim = 4\nrun.rank = 2\n"
        "run.n_atoms = 64\nrun.dt = 0.01\nrun.t_end = 1.2\n"
    )
    model = builtin("mode_crossing", t_star=1.0, d=4)
    init = default_initial(model, 64, 2, seed=0)
    traj = integrate(model, init, "do", 1.2, 1e-2, paths.generate(0, 120, 1e-2, 64, model.m))
    assert not traj.completed
    cli._write_run_outputs(str(tmp_path), cfg, traj, 0.0, "simulate", model)
    fields = _manifest(tmp_path / "manifest.txt")
    assert fields["completed"] == "false"
    assert float(fields["t_reached"]) == pytest.approx(1.0, rel=1e-12)
    assert fields["steps"] == "100" and fields["rank_events"] == "1"


def test_manifest_names_a_diagonal_diffusion(tmp_path):
    from dosde import cli
    from dosde.config import parse_config

    cfg = parse_config(
        "model.name = gbm_clipped\nrun.scheme = reference\nrun.dim = 3\nrun.rank = 3\n"
        "run.n_atoms = 8\nrun.dt = 0.01\nrun.t_end = 0.05\n"
    )
    assert cli.cmd_simulate(cfg, str(tmp_path)) == 0
    fields = _manifest(tmp_path / "manifest.txt")
    assert fields["diffusion"] == "diagonal"
    assert (fields["n_atoms"], fields["dim"], fields["channels"]) == ("8", "3", "3")
    assert (fields["steps"], fields["rank_events"]) == ("5", "0")


def test_simulate_out_flag_overrides(tmp_path):
    cfg = _write(tmp_path, BASE.format(out=tmp_path / "ignored"))
    target = tmp_path / "elsewhere"
    proc = _run("simulate", cfg, "--out", str(target))
    assert proc.returncode == 0
    assert (target / "manifest.txt").exists()
    assert not (tmp_path / "ignored").exists()


def test_config_error_exit_code(tmp_path):
    cfg = _write(tmp_path, "model.name = ou\nrun.bogus = 1\n")
    proc = _run("simulate", cfg)
    assert proc.returncode == 2
    assert "config error" in proc.stderr


def test_missing_file_exit_code(tmp_path):
    proc = _run("simulate", str(tmp_path / "nope.cfg"))
    assert proc.returncode == 2


def test_missing_arguments_exit_code():
    proc = _run()
    assert proc.returncode == 2


def test_numerical_failure_exit_code(tmp_path):
    # rank-2 ambient stepping dies when the planted ensemble collapses
    text = """
model.name = mode_crossing
model.t_star = 1.0
run.dim = 4
run.scheme = ambient
run.t_end = 1.2
run.dt = 1e-3
run.n_atoms = 32
run.rank = 2
run.seed = 3
run.out_dir = {out}
""".format(out=tmp_path / "out")
    cfg = _write(tmp_path, text)
    proc = _run("simulate", cfg)
    assert proc.returncode == 3
    assert "numerical failure" in proc.stderr


def test_rank_one_cap_crossing_restarts_and_completes(tmp_path):
    # A low cap makes the inverse-Gram norm cross it at rank 1 with the
    # Gram still invertible: the run re-factors at rank 1 and goes on.
    text = """
model.name = ou
model.sigma = 0.3
run.dim = 16
run.scheme = do
run.t_end = 1
run.dt = 0.01
run.n_atoms = 256
run.rank = 4
run.seed = 0
run.record_stride = 10
monitor.gamma_cap_factor = 1.3
run.out_dir = {out}
""".format(out=tmp_path / "out")
    proc = _run("simulate", _write(tmp_path, text))
    assert proc.returncode == 0, proc.stderr
    events = _rows(tmp_path / "out" / "events.csv")
    assert [(e["old_rank"], e["new_rank"]) for e in events][:3] == [("4", "3"), ("3", "2"), ("2", "1")]
    assert any(e["old_rank"] == e["new_rank"] == "1" for e in events)
    traj = _rows(tmp_path / "out" / "trajectory.csv")
    assert float(traj[-1]["t"]) == 1.0


def test_compare_reports_levels(tmp_path):
    text = """
model.name = linear_lowrank
run.dim = 8
run.scheme = do
compare.scheme_b = ambient
compare.levels = 2
run.t_end = 0.05
run.dt = 5e-3
run.n_atoms = 32
run.rank = 2
run.seed = 7
run.out_dir = {out}
""".format(out=tmp_path / "out")
    cfg = _write(tmp_path, text)
    proc = _run("compare", cfg)
    assert proc.returncode == 0, proc.stderr
    rows = _rows(tmp_path / "out" / "error_report.csv")
    assert len(rows) == 2
    assert set(rows[0]) == {"level", "dt", "sup_error", "rate_vs_prev"}
    assert float(rows[0]["dt"]) == 5e-3
    assert float(rows[1]["dt"]) == 2.5e-3


def test_compare_shortened_run_exits_3(tmp_path):
    # the factored run halts at the planted collinearity t_star = 1, so
    # the comparison is not a complete result even though it is written
    text = """
model.name = mode_crossing
model.t_star = 1.0
run.dim = 4
run.scheme = do
compare.scheme_b = reference
compare.levels = 2
run.t_end = 1.2
run.dt = 1e-2
run.n_atoms = 64
run.rank = 2
run.seed = 0
run.out_dir = {out}
""".format(out=tmp_path / "out")
    cfg = _write(tmp_path, text)
    proc = _run("compare", cfg)
    assert proc.returncode == 3
    assert "numerical failure: do run stopped at t=1.0 before t_end=1.2" in proc.stderr
    assert len(_rows(tmp_path / "out" / "error_report.csv")) == 2


_BLAS_THREADS = """
import ctypes

import dosde  # must load before numpy for DOSDE_THREADS to apply

with open("/proc/self/maps", encoding="utf-8") as fh:
    libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
for lib in libs:
    handle = ctypes.CDLL(lib)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(handle, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            print(fn())
            raise SystemExit(0)
print("none")
"""


def test_dosde_threads_sets_blas_threads_in_effect():
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("needs /proc/self/maps to find the loaded BLAS")
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    env["DOSDE_THREADS"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", _BLAS_THREADS], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.strip() == "none":
        pytest.skip("no OpenBLAS loaded")
    assert proc.stdout.strip() == "1"


def test_picard_demo_outputs(tmp_path):
    text = """
model.name = ou
model.kappa = 0.25
model.sigma = 0.25
run.dim = 4
run.scheme = picard
run.t_end = 1.0
run.dt = 1e-3
run.n_atoms = 32
run.rank = 1
run.seed = 5
run.out_dir = {out}
picard.n_iters = 5
picard.grid = 16
""".format(out=tmp_path / "out")
    cfg = _write(tmp_path, text)
    proc = _run("picard-demo", cfg)
    assert proc.returncode == 0, proc.stderr
    rows = _rows(tmp_path / "out" / "picard.csv")
    assert len(rows) == 5
    sups = [float(r["sup_difference"]) for r in rows]
    assert all(b <= 0.5 * a for a, b in zip(sups, sups[1:]))
    # every command reports its peak RSS; only integrating runs report completion
    fields = _manifest(tmp_path / "out" / "manifest.txt")
    assert float(fields["peak_rss_mb"]) > 0.0 and "completed" not in fields


def test_lipschitz_harness_outputs(tmp_path):
    text = BASE.format(out=tmp_path / "out") + "harness.n_trials = 20\n"
    cfg = _write(tmp_path, text)
    proc = _run("lipschitz-harness", cfg)
    assert proc.returncode == 0, proc.stderr
    rows = _rows(tmp_path / "out" / "harness.csv")
    assert len(rows) == 1
    assert float(rows[0]["max_ratio_combined"]) <= 1.0 + 1e-12
    assert int(rows[0]["n_trials"]) == 20


def test_explosion_study_outputs(tmp_path):
    text = """
model.name = mode_crossing
model.t_star = 1.0
run.dim = 4
run.scheme = do
run.t_end = 1.2
run.dt = 1e-3
run.n_atoms = 32
run.rank = 2
run.seed = 3
run.record_stride = 100
run.out_dir = {out}
""".format(out=tmp_path / "out")
    cfg = _write(tmp_path, text)
    proc = _run("explosion-study", cfg)
    assert proc.returncode == 0, proc.stderr
    exp = _rows(tmp_path / "out" / "explosion.csv")
    assert exp[0]["exploded"] == "1"
    assert float(exp[0]["T_e_estimate"]) == pytest.approx(1.0, abs=0.05)
    crossings = _rows(tmp_path / "out" / "crossings.csv")
    assert len(crossings) >= 5
    ts = [float(r["t"]) for r in crossings if r["which"] == "inv_norm"]
    assert ts == sorted(ts)
    events = _rows(tmp_path / "out" / "events.csv")
    assert len(events) == 1
    assert events[0]["old_rank"] == "2" and events[0]["new_rank"] == "1"
    fields = _manifest(tmp_path / "out" / "manifest.txt")
    assert fields["completed"] == "true"
    assert float(fields["t_reached"]) == pytest.approx(1.2, rel=1e-12)
    assert float(fields["peak_rss_mb"]) > 0.0
    assert (fields["steps"], fields["rank_events"]) == ("1200", "1")


def test_self_test_passes():
    proc = _run("--self-test")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout
