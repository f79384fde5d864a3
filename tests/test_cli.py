"""End-to-end CLI checks through real subprocesses."""

import csv
import dataclasses
import hashlib
import math
import os
import subprocess
import sys

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert "scipy" not in manifest
    fields = _manifest(out / "manifest.txt")
    # the CPU kernel does not depend on the thread count, so this process
    # loads the same one as the run did
    from dosde.cli import _blas_info, _log_simd

    assert fields["blas_core"] == _blas_info()[0]
    # so is numpy's SIMD target for log
    assert fields["log_simd"] == _log_simd() and fields["log_simd"]
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
    cli._write_manifest(str(tmp_path), cfg, 0.0, "simulate", traj, model)
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
    assert cli._execute("simulate", cfg, str(tmp_path)) == 0
    fields = _manifest(tmp_path / "manifest.txt")
    assert fields["diffusion"] == "diagonal"
    assert (fields["n_atoms"], fields["dim"], fields["channels"]) == ("8", "3", "3")
    assert (fields["steps"], fields["rank_events"]) == ("5", "0")


def test_trajectory_writer_holds_one_block_of_values(tmp_path):
    # A 2048 x 32 state is 0.5 MiB; as one Python list it would be 2 MiB.
    import tracemalloc

    from dosde import cli
    from dosde.integrators import FullState, Trajectory

    X = numpy.random.default_rng(0).standard_normal((2048, 32))
    traj = Trajectory("reference", [FullState(t=0.0, X=X)], [], [], True)
    tracemalloc.start()
    try:
        cli._write_trajectory(str(tmp_path / "trajectory.csv"), traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with open(tmp_path / "trajectory.csv") as fh:
        assert sum(1 for _ in fh) == 1 + X.size


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
    # the scheme raised, so the run has no outputs to write
    assert not (tmp_path / "out").exists()


# A low cap that the inverse-Gram norm crosses again after every restart,
# down to rank 1, where the Gram is still invertible.
CAP_RUN = """
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
"""


def test_rank_one_cap_crossing_restarts_and_completes(tmp_path):
    # A low cap makes the inverse-Gram norm cross it at rank 1 with the
    # Gram still invertible: the run re-factors at rank 1 and goes on.
    text = CAP_RUN.format(out=tmp_path / "out")
    proc = _run("simulate", _write(tmp_path, text))
    assert proc.returncode == 0, proc.stderr
    events = _rows(tmp_path / "out" / "events.csv")
    assert [(e["old_rank"], e["new_rank"]) for e in events][:3] == [("4", "3"), ("3", "2"), ("2", "1")]
    assert any(e["old_rank"] == e["new_rank"] == "1" for e in events)
    traj = _rows(tmp_path / "out" / "trajectory.csv")
    assert float(traj[-1]["t"]) == 1.0


def test_explosion_study_dates_the_first_rank_event(tmp_path):
    # Each restart raises the cap to 1.3 x the new segment's base norm;
    # T_e is the first event, not a rescan of the whole run against the
    # last segment's cap (which no step reaches).
    out = tmp_path / "out"
    proc = _run("explosion-study", _write(tmp_path, CAP_RUN.format(out=out)))
    assert proc.returncode == 0, proc.stderr
    events = _rows(out / "events.csv")
    assert len(events) == 6
    exp = _rows(out / "explosion.csv")
    assert exp == [{"exploded": "1", "T_e_estimate": events[0]["t"]}]
    assert float(events[0]["t"]) == pytest.approx(0.15, abs=1e-12)


def test_explosion_study_without_rank_events_reports_none(tmp_path):
    # The reference stepper has no coefficient Gram: its NaN inverse norm
    # is no blow-up.
    text = BASE.format(out=tmp_path / "out").replace("run.scheme = do", "run.scheme = reference")
    proc = _run("explosion-study", _write(tmp_path, text))
    assert proc.returncode == 0, proc.stderr
    assert _rows(tmp_path / "out" / "explosion.csv") == [
        {"exploded": "0", "T_e_estimate": "nan"}
    ]


def test_compare_rejects_the_picard_scheme(tmp_path):
    text = BASE.format(out=tmp_path / "out") + "compare.scheme_b = picard\n"
    proc = _run("compare", _write(tmp_path, text))
    assert proc.returncode == 2
    assert "config error" in proc.stderr and "compare.scheme_b" in proc.stderr


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


@pytest.mark.parametrize("model, agree", [("gbm_clipped", True), ("additive_floor", False)])
def test_compare_gives_a_rate_only_above_round_off(tmp_path, model, agree):
    # gbm_clipped's drift is linear, so the do basis never moves and do
    # and ambient agree to round-off: a sup error of a few ulps says
    # nothing about a rate (it read -0.59 here before).  additive_floor's
    # schemes differ by O(dt), and the rate is about 1.
    text = """
model.name = {model}
run.dim = 8
run.scheme = do
compare.scheme_b = ambient
compare.levels = 2
run.t_end = 0.3
run.dt = 0.01
run.n_atoms = 257
run.rank = 3
run.seed = 3
""".format(model=model)
    from dosde import cli

    out = tmp_path / "out"
    assert cli.main(["compare", _write(tmp_path, text), "--out", str(out)]) == 0
    rows = _rows(out / "error_report.csv")
    assert [float(r["sup_error"]) < 1e-14 for r in rows] == [agree, agree]
    assert math.isnan(float(rows[0]["rate_vs_prev"]))
    rate = float(rows[1]["rate_vs_prev"])
    assert math.isnan(rate) if agree else 0.9 < rate < 1.1


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


_LOADED_SCIPY = """
import sys

import dosde

status = dosde.cli.main(["simulate", sys.argv[1]])
print(status, sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_a_run_loads_no_scipy(tmp_path):
    # No module of dosde imports scipy; the normals come from numpy.
    cfg = _write(tmp_path, BASE.format(out=tmp_path / "out"))
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_SCIPY, cfg], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[-2] == "0 []"
    assert (tmp_path / "out" / "trajectory.csv").exists()


def test_picard_demo_outputs(tmp_path):
    text = """
model.name = ou
model.kappa = 0.25
model.sigma = 0.25
run.dim = 4
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


SELF_TEST_CHECKS = [
    "full-rank factored run matches reference",
    "basis orthonormality",
    "split run equals unbroken run",
    "config round-trip",
    "rerun determinism",
]

# Closed forms that tier-1 pins (test_kernels, test_paths); the self-test
# runs only what can differ between installs.
TIER1_CLOSED_FORMS = [
    "gram identity example",
    "gram singular example",
    "eta closed forms",
    "contraction window example",
    "growth envelope examples",
    "path refinement consistency",
]


def test_self_test_passes():
    proc = _run("--self-test")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout
    assert proc.stdout.splitlines() == [
        "self-test %-40s ok" % name for name in SELF_TEST_CHECKS
    ]


def test_a_failing_self_test_check_exits_4_and_names_it(monkeypatch, capsys):
    from dosde import cli, config

    serialize = config.serialize
    monkeypatch.setattr(
        config, "serialize", lambda cfg: serialize(dataclasses.replace(cfg, seed=cfg.seed + 1))
    )
    assert cli.main(["--self-test"]) == 4
    captured = capsys.readouterr()
    assert "self-test %-40s FAIL\n" % "config round-trip" in captured.out
    assert captured.out.count("FAIL") == 1
    assert "self-test failed: config round-trip\n" in captured.err
    assert not any(name in captured.out for name in TIER1_CLOSED_FORMS)


def test_a_harness_over_its_bound_exits_3(tmp_path, monkeypatch, capsys):
    from dosde import cli, diagnostics

    report = diagnostics.LipschitzHarnessReport(0.5, 1.5, 0.75, n_trials=2)
    monkeypatch.setattr(diagnostics, "projector_lipschitz_harness", lambda **kw: report)
    out = tmp_path / "out"
    cfg = _write(tmp_path, BASE.format(out=out))
    assert cli.main(["lipschitz-harness", cfg]) == 3
    assert "projector perturbation bound exceeded" in capsys.readouterr().err
    assert _rows(out / "harness.csv") == [{"n_trials": "2", "max_ratio_U": "0.5",
                                           "max_ratio_V": "1.5", "max_ratio_combined": "0.75"}]


# Small configs, one per command and scheme family.  Their digests pin
# every output but manifest.txt (which holds times and versions); a
# refactor must leave them unchanged.
_GOLDEN_RUNS = {
    "simulate-do-ou": ("simulate", """
model.name = ou
model.sigma = 0.5
run.dim = 4
run.scheme = do
run.t_end = 0.05
run.dt = 1e-3
run.n_atoms = 32
run.rank = 2
run.seed = 11
run.record_stride = 10
"""),
    "simulate-reference-gbm_clipped": ("simulate", """
model.name = gbm_clipped
run.dim = 5
run.scheme = reference
run.t_end = 0.1
run.dt = 0.01
run.n_atoms = 64
run.rank = 2
run.seed = 1
run.record_stride = 5
"""),
    "simulate-ambient-additive_floor": ("simulate", """
model.name = additive_floor
run.dim = 6
run.scheme = ambient
run.t_end = 0.1
run.dt = 0.01
run.n_atoms = 64
run.rank = 3
run.seed = 2
run.record_stride = 5
"""),
    "compare-do-ambient": ("compare", """
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
"""),
    # do and ambient differ by O(dt) here: the rates are near 1, so this
    # digest pins a convergence result, and three levels coarsen twice.
    "compare-do-ambient-additive_floor": ("compare", """
model.name = additive_floor
run.dim = 6
run.scheme = do
compare.scheme_b = ambient
compare.levels = 3
run.t_end = 0.1
run.dt = 0.01
run.n_atoms = 64
run.rank = 3
run.seed = 4
"""),
    # One level-0 step is 64 finest steps of 1024 atoms x 16 channels,
    # 2^20 normals, far more than a chunk: each window is one level-0 step.
    "compare-do-ambient-several-chunks-per-step": ("compare", """
model.name = additive_floor
run.dim = 16
run.scheme = do
compare.scheme_b = ambient
compare.levels = 7
run.t_end = 0.03
run.dt = 0.01
run.n_atoms = 1024
run.rank = 3
run.seed = 6
"""),
    # test_compare_shortened_run_exits_3's config: do halts at t_star = 1
    # on both levels, and reference runs on to t_end unpaired.
    "compare-do-reference-mode_crossing-halts": ("compare", """
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
"""),
    "explosion-study-mode_crossing": ("explosion-study", """
model.name = mode_crossing
model.t_star = 1.0
run.dim = 4
run.scheme = do
run.t_end = 1.2
run.dt = 0.01
run.n_atoms = 64
run.rank = 2
run.seed = 3
run.record_stride = 10
"""),
    "picard-demo": ("picard-demo", """
model.name = ou
model.kappa = 0.25
model.sigma = 0.25
run.dim = 4
run.n_atoms = 32
run.rank = 1
run.seed = 5
picard.n_iters = 5
picard.grid = 16
"""),
    "lipschitz-harness": ("lipschitz-harness", """
model.name = ou
run.dim = 4
run.seed = 2
harness.n_trials = 20
"""),
    # 2 * 1024 + 100 atoms at d = 64: the factored step walks two whole
    # blocks of 1024 atoms and a remainder.
    "simulate-do-ou-several-blocks": ("simulate", """
model.name = ou
model.sigma = 0.5
run.dim = 64
run.scheme = do
run.t_end = 0.03
run.dt = 0.01
run.n_atoms = 2148
run.rank = 4
run.seed = 12
run.record_stride = 3
"""),
    # 2348 atoms at d = 32: every panel walks a block of 2048 atoms and
    # a remainder.
    "picard-demo-several-blocks": ("picard-demo", """
model.name = ou
model.kappa = 0.25
model.sigma = 0.25
run.dim = 32
run.n_atoms = 2348
run.rank = 2
run.seed = 13
picard.n_iters = 3
picard.grid = 4
"""),
}

# These digests were recorded on OpenBLAS's SkylakeX kernel and numpy's
# X86_V4 log; another kernel may round a BLAS product differently, and
# another log target the last bit of a tail normal (see README,
# Determinism).
_GOLDEN_KERNEL = "SkylakeX"
_GOLDEN_LOG_SIMD = "X86_V4"
_GOLDEN_EXIT = {"compare-do-reference-mode_crossing-halts": 3}
_GOLDEN_DIGESTS = {
    "compare-do-ambient": {
        "error_report.csv":
            "6d44b9709004ca5eb563eeb6145292919f2b75602d34e941be4ef8d40f5fa0e9",
    },
    "compare-do-ambient-additive_floor": {
        "error_report.csv":
            "b533565db0c06ca427a6501a4cc9c48a1ade371d33473399b88d8801d92da76e",
    },
    "compare-do-ambient-several-chunks-per-step": {
        "error_report.csv":
            "4f146ddde8d072df7fc715e4ed933cdbb131407e937b3ea35653c49c5f099ef9",
    },
    "compare-do-reference-mode_crossing-halts": {
        "error_report.csv":
            "2aafbb0b1527271d57f9aa78ee89f4d2c2eb244cc164bbe22d5d2ee937f4c503",
    },
    "explosion-study-mode_crossing": {
        "crossings.csv":
            "3568069840d958c6963b665efeba73c4c03654f34dfacf759b1a0cde235ed105",
        "diagnostics.csv":
            "f409891ee2ca3136f467478356d273a745027d703ca9b7ee3f7c16da51184aac",
        "events.csv":
            "235ea26f6647ae2ea1712f73474a922365373cd95140d9ea5328f5d9e39c8cf6",
        "explosion.csv":
            "7a52ed2d355095a86ec94fe9f2432beeb586a9a4b7a0840c93aeaaf48281bc59",
        "trajectory.csv":
            "132ad3055eaf987ea857181dccfabc70144e930454e99551e0ae3e9435afc695",
    },
    "lipschitz-harness": {
        "harness.csv":
            "c89bdf316c8c54e249eb72a88e3c4f0fb7e6b920efac8234658389ad9a6dc6b1",
    },
    "picard-demo": {
        "picard.csv":
            "e95aa7de0877742329c9ee9eba63b3f6337c861303cef235a3a8b2e58aac9478",
    },
    "picard-demo-several-blocks": {
        "picard.csv":
            "12f2ca8be452f908cf83a4036dfc1287ef39d7d88554e6e0e7519b742344b14f",
    },
    "simulate-ambient-additive_floor": {
        "diagnostics.csv":
            "dc99ee43d7095b507f795e3e3fb90867832f15e2afbf1b6561e26eb0d985739b",
        "events.csv":
            "c92fdddabe1920dcf57935adf13c41660cd728bd587a804260bc7a92984aaed7",
        "trajectory.csv":
            "062205fa37e49a2f984cbd8efeb7c6986730fd4aa653f6547bdfffef1eabcb45",
    },
    "simulate-do-ou": {
        "diagnostics.csv":
            "f996680a332f606deee314594e48bd0bda1e79ae67add541e4856ae90f1eb18c",
        "events.csv":
            "c92fdddabe1920dcf57935adf13c41660cd728bd587a804260bc7a92984aaed7",
        "trajectory.csv":
            "db485653d805efe040fc84aa8822dfe09d2471b4a286f1acae7de8daef928801",
    },
    # Recorded after the block walk: a U^T on the 100-atom remainder
    # block moved 2 of trajectory.csv's 17,696 values, by at most 7.6e-16
    # relative (diagnostics.csv and events.csv kept the whole-array
    # step's bytes).
    "simulate-do-ou-several-blocks": {
        "diagnostics.csv":
            "c80386c35509b26372e9b6332e935ff397a1afbaa29ce58e98a8209d0db418b9",
        "events.csv":
            "c92fdddabe1920dcf57935adf13c41660cd728bd587a804260bc7a92984aaed7",
        "trajectory.csv":
            "8a79339db1d6e21064b1ec1c353a3cf0ead89418f3a5f69b3deaf58b0788e24f",
    },
    "simulate-reference-gbm_clipped": {
        "diagnostics.csv":
            "88becab81a604341415df38e1bbcd7404ea09710fca9fcdca74c5c84afce40b3",
        "events.csv":
            "c92fdddabe1920dcf57935adf13c41660cd728bd587a804260bc7a92984aaed7",
        "trajectory.csv":
            "9b4e2b51e632618a691cf807a1fa61970b6e8cc40a60bac0d72ff12369518f34",
    },
}


def _golden_digests(name, tmp_path):
    """Run a golden config in-process; the SHA-256 of each output but
    manifest.txt, after checking the run's exit code."""
    from dosde import cli

    if (cli._blas_info()[0], cli._log_simd()) != (_GOLDEN_KERNEL, _GOLDEN_LOG_SIMD):
        pytest.skip("output digests were recorded on OpenBLAS %s with numpy's %s log"
                    % (_GOLDEN_KERNEL, _GOLDEN_LOG_SIMD))
    command, text = _GOLDEN_RUNS[name]
    out = tmp_path / "out"
    code = cli.main([command, _write(tmp_path, text), "--out", str(out)])
    assert code == _GOLDEN_EXIT.get(name, 0)
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in out.iterdir()
        if f.name != "manifest.txt"
    }


@pytest.mark.parametrize("name", sorted(_GOLDEN_RUNS))
def test_cli_outputs_match_golden_digests(name, tmp_path):
    assert _golden_digests(name, tmp_path) == _GOLDEN_DIGESTS[name]


@pytest.mark.parametrize("name, chunk", [
    # windows of 10 level-0 steps: do's halt at t = 1.0 is a window's start
    ("compare-do-reference-mode_crossing-halts", 20 * 64),
    # windows of one level-0 step, however small the chunk
    ("compare-do-ambient-several-chunks-per-step", 1000),
    ("compare-do-ambient-additive_floor", 4 * 64 * 6),
])
def test_compare_windows_leave_the_golden_digests(name, chunk, tmp_path, monkeypatch, capsys):
    from dosde import paths

    monkeypatch.setattr(paths, "_CHUNK_ELEMENTS", chunk)
    assert _golden_digests(name, tmp_path) == _GOLDEN_DIGESTS[name]
    if name.endswith("halts"):
        assert capsys.readouterr().err == (
            "numerical failure: do run stopped at t=1.0 before t_end=1.2\n")


_COMPARE_FOR_MEMORY = {
    # The finest path dominates: it grows from 1.3 MB to 5.2 MB.
    "additive_floor": ("""
model.name = additive_floor
run.dim = 16
run.scheme = do
compare.scheme_b = ambient
compare.levels = 3
run.t_end = {t_end!r}
run.dt = 0.01
run.n_atoms = 256
run.rank = 3
run.seed = 1
""", 8 * 256 * 16),
    # One channel against 64 dimensions: the first scheme's recorded
    # states, 32 KB a step, dominate the path's 512 bytes, and a window
    # sized by the path alone held a whole run's records here.
    "mode_crossing": ("""
model.name = mode_crossing
model.t_star = 4.0
run.dim = 64
run.scheme = reference
compare.scheme_b = do
compare.levels = 2
run.t_end = {t_end!r}
run.dt = 0.01
run.n_atoms = 64
run.rank = 2
run.seed = 1
""", 8 * 64 * 64),
}


@pytest.mark.parametrize("name", sorted(_COMPARE_FOR_MEMORY))
def test_compare_memory_does_not_grow_with_t_end(name, tmp_path, monkeypatch):
    # A small chunk budget (windows of two or four level-0 steps) stands
    # in for the default one.  Neither the finest path nor the first
    # scheme's recorded states are held whole.
    import tracemalloc

    from dosde import cli, paths

    text, chunk = _COMPARE_FOR_MEMORY[name]
    monkeypatch.setattr(paths, "_CHUNK_ELEMENTS", chunk)
    peaks = []
    for t_end in (0.1, 0.1, 0.4):  # the first run imports what compare needs
        cfg = _write(tmp_path, text.format(t_end=t_end))
        tracemalloc.start()
        try:
            assert cli.main(["compare", cfg, "--out", str(tmp_path / "out")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[2] - peaks[1]) < 0.1 * peaks[1]


def test_compare_at_the_factored_benchmark_config_stays_small(tmp_path):
    # The factored benchmark workload's compare: a window holds both
    # schemes' records, and only halted runs are kept past it.
    import tracemalloc

    from dosde import cli

    cfg = _write(tmp_path, """
model.name = additive_floor
run.scheme = do
compare.scheme_b = ambient
compare.levels = 3
run.n_atoms = 1024
run.dim = 32
run.rank = 4
run.dt = 0.01
run.t_end = 0.15
run.seed = 0
""")
    for _ in range(2):  # the first run imports what compare needs
        tracemalloc.start()
        try:
            assert cli.main(["compare", cfg, "--out", str(tmp_path / "out")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 6 << 20


def test_compare_rejects_a_t_end_off_the_grid(tmp_path, capsys):
    from dosde import cli

    command, text = _GOLDEN_RUNS["compare-do-ambient-additive_floor"]
    text = text.replace("run.t_end = 0.1\n", "run.t_end = 0.105\n")
    out = tmp_path / "out"
    assert cli.main([command, _write(tmp_path, text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: run.t_end: t_end=0.105 is not a multiple of dt=0.01" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "picard-demo", "lipschitz-harness",
                                     "explosion-study"])
def test_every_command_rejects_a_t_end_off_the_grid(command, tmp_path, capsys):
    # As compare above: a config error, found before anything runs.
    from dosde import cli

    text = BASE.format(out="unused").replace("run.t_end = 0.05\nrun.dt = 1e-3\n",
                                             "run.t_end = 0.1\nrun.dt = 0.03\n")
    out = tmp_path / "out"
    assert cli.main([command, _write(tmp_path, text), "--out", str(out)]) == 2
    assert "run.t_end: t_end=0.1 is not a multiple of dt=0.03" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("chunk", [1 << 18, 1000])
def test_compare_steps_every_level_inside_integrate(chunk, tmp_path, monkeypatch):
    # A wrapper like the benchmark's completion guard: every call reaches
    # its own t_end, and the atom steps add up to both schemes on every
    # level, 2 N sum_l n0 2^l.
    from dosde import cli, integrators, paths

    monkeypatch.setattr(paths, "_CHUNK_ELEMENTS", chunk)
    integrate = integrators.integrate
    counted = {"atom_steps": 0, "calls": 0}

    def guarded(model, initial, scheme, t_end, dt, path, *args, **kwargs):
        traj = integrate(model, initial, scheme, t_end, dt, path, *args, **kwargs)
        assert traj.completed and abs(traj.times[-1] - t_end) <= 1e-9 * t_end
        counted["atom_steps"] += path.N * len(traj.diag)
        counted["calls"] += 1
        return traj

    monkeypatch.setattr(integrators, "integrate", guarded)
    command, text = _GOLDEN_RUNS["compare-do-ambient-additive_floor"]
    assert cli.main([command, _write(tmp_path, text), "--out", str(tmp_path / "out")]) == 0
    n0, N, levels = 10, 64, 3
    assert counted["atom_steps"] == 2 * N * sum(n0 << lvl for lvl in range(levels))
    assert counted["calls"] % (2 * levels) == 0


@pytest.mark.parametrize("name, fine_steps", [
    ("compare-do-ambient-additive_floor", 40),
    ("picard-demo", 16),
])
def test_each_fine_normal_is_drawn_once(name, fine_steps, tmp_path, monkeypatch):
    # Small chunks split both compare's finest path and Picard's
    # streamed one into several draws; together they cover each
    # fine step once: compare's coarser levels and Picard's later
    # iterates draw nothing.
    from dosde import cli, paths

    drawn = []
    draw = paths._draw_normals

    def counting(seed, first_step, out, scale):
        drawn.extend(range(first_step, first_step + len(out)))
        return draw(seed, first_step, out, scale)

    monkeypatch.setattr(paths, "_draw_normals", counting)
    monkeypatch.setattr(paths, "_CHUNK_ELEMENTS", 1000)
    command, text = _GOLDEN_RUNS[name]
    assert cli.main([command, _write(tmp_path, text), "--out", str(tmp_path / "out")]) == 0
    assert sorted(drawn) == list(range(fine_steps))


@pytest.mark.parametrize("name, generated", [
    ("simulate-do-ou", 1),
    ("compare-do-ambient-additive_floor", 1),  # three levels, one generate
    ("explosion-study-mode_crossing", 1),  # restarts once at t_star
    ("picard-demo", 1),
])
def test_every_path_that_exists_is_drawn(name, generated, tmp_path, monkeypatch):
    # Counted as the benchmark's tracer counts, (n_steps << level) N m per
    # path that paths.generate returns, the normals equal those drawn:
    # parsing a config builds no path, and a lockstep ladder is one
    # generated path plus held ones that never draw.
    import sys

    from dosde import cli, config, paths

    counted, drawn = [], []
    generate, draw = paths.generate, paths._draw_normals

    def counting_generate(*args, **kwargs):
        path = generate(*args, **kwargs)
        counted.append((path.n_steps << path.level) * path.N * path.m)
        return path

    def counting_draw(seed, first_step, out, scale):
        drawn.append(out.size)
        return draw(seed, first_step, out, scale)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("dosde"):
            for attr, value in list(vars(module).items()):
                if value is generate:
                    monkeypatch.setattr(module, attr, counting_generate)
    monkeypatch.setattr(paths, "_draw_normals", counting_draw)
    command, text = _GOLDEN_RUNS[name]
    config.parse_config(text)
    assert counted == [] and drawn == []
    assert cli.main([command, _write(tmp_path, text), "--out", str(tmp_path / "out")]) == 0
    assert len(counted) == generated
    assert sum(counted) == sum(drawn) > 0


@pytest.mark.parametrize("model", [
    "model.name = ou\nmodel.kappa = nan\n",
    "model.name = gbm_clipped\nmodel.clip = nan\n",
    "model.name = gbm_clipped\nmodel.mu = inf\n",
    "model.name = linear_lowrank\nmodel.lambdas = [nan, -1.0]\n",
])
def test_a_non_finite_model_parameter_is_a_config_error(model, tmp_path, capsys):
    from dosde import cli

    text = model + "run.dim = 4\nrun.rank = 2\nrun.n_atoms = 8\nrun.t_end = 0.1\nrun.dt = 0.05\n"
    assert cli.main(["simulate", _write(tmp_path, text), "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "compare", "picard-demo", "explosion-study"])
def test_a_rank_above_the_atom_count_is_a_config_error(command, tmp_path, capsys):
    from dosde import cli

    text = ("model.name = ou\nrun.dim = 4\nrun.rank = 3\nrun.n_atoms = 2\n"
            "run.t_end = 0.1\nrun.dt = 0.05\n")
    assert cli.main([command, _write(tmp_path, text), "--out", str(tmp_path / "out")]) == 2
    assert "need at least R atoms" in capsys.readouterr().err


@pytest.mark.parametrize("harness", ["harness.n_atoms = 2\n", "harness.dim = 2\n"])
def test_a_harness_rank_above_its_sizes_is_a_config_error(harness, tmp_path, capsys):
    from dosde import cli

    text = "model.name = ou\nharness.rank = 3\nharness.n_trials = 2\n" + harness
    out = str(tmp_path / "out")
    assert cli.main(["lipschitz-harness", _write(tmp_path, text), "--out", out]) == 2
    assert "harness.rank" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "compare", "picard-demo", "explosion-study"])
def test_an_atom_count_that_cannot_be_allocated_is_a_config_error(command, tmp_path, capsys):
    # 10^11 atoms fail at the first allocation (the initial datum), so
    # nothing large is touched.
    from dosde import cli

    text = ("model.name = ou\nrun.dim = 4\nrun.rank = 2\nrun.n_atoms = 100000000000\n"
            "run.t_end = 0.1\nrun.dt = 0.05\n")
    assert cli.main([command, _write(tmp_path, text), "--out", str(tmp_path / "out")]) == 2
    assert "config error: Unable to allocate" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "compare", "picard-demo", "explosion-study"])
@pytest.mark.parametrize("n_atoms", [10**18, 3 * 10**18])
def test_an_atom_count_too_large_for_one_array_is_a_config_error(
        command, n_atoms, tmp_path, monkeypatch, capsys):
    # One step of 10^18 atoms x 4 dims is 3.2e19 bytes, past what one
    # array can hold, though its 4e18 normals can be indexed; at 3 10^18
    # atoms they cannot.  Either way the atom count is named.
    from dosde import cli, paths

    def no_draw(*args):
        raise AssertionError("a normal was drawn")

    monkeypatch.setattr(paths, "_draw_normals", no_draw)
    text = ("model.name = ou\nrun.dim = 4\nrun.rank = 2\nrun.n_atoms = %d\n"
            "run.t_end = 1.0\nrun.dt = 0.5\ncompare.levels = 1\npicard.grid = 2\n" % n_atoms)
    out = tmp_path / "out"
    assert cli.main([command, _write(tmp_path, text), "--out", str(out)]) == 2
    assert "config error: run.n_atoms: " in capsys.readouterr().err
    assert not out.exists()


_SMALL_GRID = "run.t_end = 0.1\nrun.dt = 0.05\n"


@pytest.mark.parametrize("command, key, grid", [
    ("compare", "compare.levels", _SMALL_GRID + "compare.levels = 62\n"),
    ("simulate", "run.dt", "run.t_end = 1\nrun.dt = 1e-300\n"),
    ("explosion-study", "run.dt", "run.t_end = 1\nrun.dt = 1e-300\n"),
    ("picard-demo", "picard.grid", _SMALL_GRID + "picard.grid = 4611686018427387904\n"),
], ids=["compare-levels", "simulate-dt", "explosion-study-dt", "picard-demo-grid"])
def test_a_brownian_grid_that_cannot_be_indexed_is_a_config_error(
        command, key, grid, tmp_path, monkeypatch, capsys):
    # More than 2^63 normals at 8 atoms x 4 dims: refused, naming the
    # key, before a normal is drawn.
    from dosde import cli, paths

    def no_draw(*args):
        raise AssertionError("a normal was drawn")

    monkeypatch.setattr(paths, "_draw_normals", no_draw)
    text = "model.name = ou\nrun.dim = 4\nrun.rank = 2\nrun.n_atoms = 8\n" + grid
    out = tmp_path / "out"
    assert cli.main([command, _write(tmp_path, text), "--out", str(out)]) == 2
    assert "config error: %s: " % key in capsys.readouterr().err
    assert not out.exists()


# Exit code and stderr prefix of every error a command may raise.  A new
# error class fails the test below until it is given its row here.
_CONFIG_ERROR = (2, "config error: ")
_NUMERICAL_FAILURE = (3, "numerical failure: ")
_EXIT_CODES = {
    "ParseError": _CONFIG_ERROR,
    "ValidationError": _CONFIG_ERROR,
    "BadParams": _CONFIG_ERROR,
    "OSError": _CONFIG_ERROR,
    "MemoryError": _CONFIG_ERROR,
    "InvalidEnsemble": _NUMERICAL_FAILURE,
    "ShapeMismatch": _NUMERICAL_FAILURE,
    "InvalidBoundInput": _NUMERICAL_FAILURE,
    "SingularGram": _NUMERICAL_FAILURE,
    "NonFiniteState": _NUMERICAL_FAILURE,
    "RankDeficient": _NUMERICAL_FAILURE,
}


def test_every_error_class_has_its_exit_code(tmp_path, monkeypatch, capsys):
    from dosde import cli
    from dosde.errors import DosdeError

    classes, todo = [], [DosdeError]
    while todo:
        found = todo.pop().__subclasses__()
        classes += found
        todo += found
    out = tmp_path / "out"
    cfg = _write(tmp_path, BASE.format(out=out))
    for cls in classes + [OSError, MemoryError]:
        assert cls.__name__ in _EXIT_CODES, "%s has no exit code" % cls.__name__

        def stub(cfg, cls=cls):
            raise cls("stubbed")

        monkeypatch.setitem(cli._COMMANDS, "simulate", stub)
        code, prefix = _EXIT_CODES[cls.__name__]
        assert cli.main(["simulate", cfg]) == code, cls.__name__
        assert capsys.readouterr().err == prefix + "stubbed\n"
    assert not out.exists()


# Half the draws are admissible for every builtin parameter.
_FUZZ_PARAMS = st.one_of(
    st.sampled_from([0.5, 2.0]),
    st.sampled_from([-1.0, 0.0, math.nan, math.inf, -math.inf]),
)


@st.composite
def _tiny_configs(draw):
    """A command and a config of at most 5 atoms, dims and ranks, two
    steps, whose model parameters may be negative, zero or non-finite;
    or, oversize, 10^11 to 10^12 atoms, which fail at the first
    allocation (no size in between, which would really allocate).  The
    third item says whether the output target lies under a regular file,
    and the fourth whether compare's finest grid or Picard's has more
    than 2^63 normals, too many to index."""
    from dosde import cli
    from dosde.models import PARAM_NAMES

    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    name = draw(st.sampled_from(sorted(PARAM_NAMES)))
    lines = ["model.name = %s" % name]
    for key in PARAM_NAMES[name]:
        if key == "d" or not draw(st.booleans()):
            continue
        if key in ("lambdas", "sigma_b") and draw(st.booleans()):
            values = draw(st.lists(_FUZZ_PARAMS, min_size=1, max_size=3))
            lines.append("model.%s = [%s]" % (key, ", ".join(map(repr, values))))
        else:
            lines.append("model.%s = %r" % (key, draw(_FUZZ_PARAMS)))
    sizes = st.integers(min_value=1, max_value=5)
    keys = ["run.n_atoms", "run.rank", "run.dim"]
    # Every command validates the harness sizes; only the harness is
    # given fuzzed ones, so the other commands mostly run.
    if command == "lipschitz-harness":
        keys += ["harness.n_atoms", "harness.rank", "harness.dim"]
    oversize = draw(st.integers(0, 9)) == 0
    for key in keys:
        size = draw(sizes)
        if key == "run.n_atoms" and oversize:
            size = draw(st.integers(10**11, 10**12))
        lines.append("%s = %d" % (key, size))
    dt = draw(st.sampled_from([0.05] * 6 + [-0.05, math.nan]))
    levels = draw(st.integers(min_value=1, max_value=2))
    grid = draw(st.integers(min_value=1, max_value=4))
    oversize_grid = draw(st.integers(0, 9)) == 0
    if oversize_grid and draw(st.booleans()):
        levels = draw(st.integers(min_value=63, max_value=10**30))
    elif oversize_grid:
        grid = draw(st.integers(min_value=2**63, max_value=2**100))
    lines += [
        "run.scheme = %s" % draw(st.sampled_from(["do", "reference", "ambient"])),
        "compare.scheme_b = %s" % draw(st.sampled_from(["do", "reference", "ambient"])),
        "run.dt = %r" % dt,
        "run.t_end = %r" % (2 * dt),
        "compare.levels = %d" % levels,
        "picard.grid = %d" % grid,
        "picard.n_iters = %d" % draw(st.integers(min_value=1, max_value=3)),
        "harness.n_trials = %d" % draw(st.integers(min_value=1, max_value=2)),
    ]
    return command, "\n".join(lines) + "\n", draw(st.booleans()), oversize_grid


@given(_tiny_configs())
@settings(max_examples=300, deadline=None)
def test_every_command_exits_with_a_documented_code(case):
    # 0 success, 2 config error, 3 numerical failure: no other code and
    # no traceback, whatever the sizes and parameters.  An output
    # directory that cannot be made, and a Brownian grid too large to
    # index, are config errors.
    import tempfile

    from dosde import cli

    command, text, under_file, oversize_grid = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(text)
        out = os.path.join(tmp, "out")
        if under_file:
            open(out, "w").close()
            out = os.path.join(out, "run")
        expected = (2,) if under_file or oversize_grid else (0, 2, 3)
        assert cli.main([command, cfg, "--out", out]) in expected
