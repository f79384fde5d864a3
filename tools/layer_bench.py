"""Layer micro-benchmark: time dosde's layers one by one and write JSON.

Usage, from the root of a checkout::

    python tools/layer_bench.py OUT.json

It times, in this process and with the BLAS thread count the
environment gives it:

- ``environment``: python, numpy and BLAS versions, the OpenBLAS kernel
  and thread count, numpy's float64 ``log`` target, CPU counts, whether
  Python writes bytecode caches (``sys.flags.dont_write_bytecode``: when
  set, every fresh process compiles ``src/dosde`` again), and a gemm
  probe (median of a 4096x8 @ 8x64 product after one ``np.linalg.qr``),
  which reads tens of times its usual value in a process whose BLAS is
  stuck slow;
- ``steps``: best and median time of one ``do``, ``ambient`` and
  ``reference`` step on ``ou`` (sigma = 0.3, m = d) at three (N, d, R);
- ``mean_outer`` and ``mean_outer_walk``: the atom-axis reductions;
- ``draw_normals``: ns per normal of ``paths._draw_normals``;
- ``write_trajectory``: ns per value of ``cli._write_trajectory`` on
  one full state;
- ``setup``: the parts of a fresh process's start-up that the
  benchmark's ``setup_s`` times: ``import numpy``, ``import dosde``
  after numpy, and for each benchmark workload the config parse,
  ``models.builtin`` and ``models.default_initial`` of its commands,
  each over 5 fresh interpreters that inherit this environment.

Each timing is a best and a median over its repetitions, and every
measuring function takes its shape and repetition count, so a test can
run them small.  The numbers depend on the host: compare runs of one
host only.
"""

import functools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
sys.path.insert(0, os.path.join(ROOT, "benchmarks"))

from dosde import cli, integrators, kernels, models, paths  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, config_text  # noqa: E402

STEP_SHAPES = ((256, 4, 2), (1024, 32, 4), (4096, 64, 8))
STEP_DT = 1e-3


def _timings(run, reps):
    """Seconds of each of ``reps`` calls of ``run()``."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return times


def _summary(times, unit, per=1):
    """Best and median of ``times`` in seconds, converted by ``unit``
    (seconds per reported unit) and divided by ``per`` work items."""
    return {"best": min(times) / unit / per, "median": statistics.median(times) / unit / per,
            "reps": len(times)}


def environment(gemm_reps=100):
    """Versions, CPU counts and the gemm probe, whose median is in ms."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core, threads = cli._blas_info()
    rng = np.random.default_rng(0)
    A, B = rng.standard_normal((4096, 8)), rng.standard_normal((8, 64))
    np.linalg.qr(rng.standard_normal((64, 8)))
    probe = _timings(lambda: A @ B, gemm_reps)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_core": core,
        "blas_threads": threads,
        "log_simd": cli._log_simd(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
        "gemm_4096x8x64_after_qr_median_ms": statistics.median(probe) * 1e3,
        "gemm_reps": gemm_reps,
    }


def step_times(scheme, N, d, R, steps):
    """ms per step of ``scheme`` on ``ou`` (sigma = 0.3, m = d), walking
    ``steps`` steps of dt = 1e-3 from the default initial datum; each
    step's increment is drawn before its timer starts."""
    model = models.builtin("ou", d=d, sigma=0.3)
    initial = models.default_initial(model, N, R, seed=0)
    path = paths.generate(0, steps, STEP_DT, N, model.m)
    if scheme == "do":
        state, step = initial, integrators.step_do
    else:
        state = integrators.FullState(t=0.0, X=initial.product())
        step = integrators.step_reference
    if scheme == "ambient":
        step = functools.partial(integrators.step_ambient_dlra, R=R)
    times = []
    for k in range(steps):
        dW = path.increment(k)
        start = time.perf_counter()
        state, _ = step(model, state, dW, STEP_DT)
        times.append(time.perf_counter() - start)
    return {"scheme": scheme, "N": N, "d": d, "R": R, **_summary(times, 1e-3), "unit": "ms"}


def mean_outer_time(N, p, q, reps):
    """ms per ``kernels.mean_outer`` of an N x p and an N x q ensemble."""
    rng = np.random.default_rng(0)
    A, B = rng.standard_normal((N, p)), rng.standard_normal((N, q))
    times = _timings(lambda: kernels.mean_outer(A, B), reps)
    return {"N": N, "p": p, "q": q, **_summary(times, 1e-3), "unit": "ms"}


def mean_outer_walk_time(N, p, q, reps):
    """ms per ``kernels.mean_outer_walk`` of an N x p ensemble against
    an N x q one served block by block."""
    rng = np.random.default_rng(0)
    A, B = rng.standard_normal((N, p)), rng.standard_normal((N, q))
    times = _timings(lambda: kernels.mean_outer_walk(A, q, lambda rows: B[rows]), reps)
    return {"N": N, "p": p, "q": q, **_summary(times, 1e-3), "unit": "ms"}


def draw_normals_time(n, reps):
    """ns per normal of ``paths._draw_normals`` filling one step of n
    normals."""
    out = np.empty((1, n, 1))
    times = _timings(lambda: paths._draw_normals(0, 0, out, 0.1), reps)
    return {"normals": n, **_summary(times, 1e-9, per=n), "unit": "ns/normal"}


def write_trajectory_time(N, d, reps):
    """ns per value of ``cli._write_trajectory`` on one N x d full state."""
    X = np.random.default_rng(0).standard_normal((N, d))
    traj = integrators.Trajectory(scheme="reference",
                                  states=[integrators.FullState(t=0.0, X=X)],
                                  diag=[], events=[], completed=True)
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "trajectory.csv")
        times = _timings(lambda: cli._write_trajectory(out, traj), reps)
    return {"N": N, "d": d, **_summary(times, 1e-9, per=N * d), "unit": "ns/value"}


# Run in a fresh interpreter: argv[1] is the src directory, argv[2] a
# JSON map of workload name to its commands' config texts; prints the
# seconds of each part.  Each workload part times what the benchmark's
# setup probe times after the import: parse, build, draw the datum.
_SETUP_CHILD = """
import json, sys, time
start = time.perf_counter()
import numpy
numpy_s = time.perf_counter() - start
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
from dosde.config import parse_config
from dosde.models import builtin, default_initial
seconds = {"import_numpy": numpy_s, "import_dosde": time.perf_counter() - start}
for name, texts in json.loads(sys.argv[2]).items():
    start = time.perf_counter()
    for text in texts:
        cfg = parse_config(text)
        model = builtin(cfg.model_name, d=cfg.dim, **cfg.model_params)
        default_initial(model, cfg.n_atoms, cfg.rank, seed=cfg.seed)
    seconds["default_initial." + name] = time.perf_counter() - start
print(json.dumps(seconds))
"""


def setup_times(workloads, runs):
    """ms of each start-up part over ``runs`` fresh interpreters:
    ``import_numpy``, ``import_dosde`` (numpy already loaded) and
    ``default_initial.<workload>`` (config parse, ``models.builtin`` and
    ``models.default_initial`` of each command at the default seed) for
    each entry of ``workloads`` (name to its list of (command, config
    keys), as in benchmarks/workloads.py)."""
    texts = json.dumps({name: [config_text(params, DEFAULT_SEED) for _, params in commands]
                        for name, commands in workloads.items()})
    runs_s = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD, SRC, texts],
                              capture_output=True, text=True, check=True)
        runs_s.append(json.loads(proc.stdout))
    return [{"part": part, **_summary([r[part] for r in runs_s], 1e-3), "unit": "ms"}
            for part in runs_s[0]]


def measure():
    """Every section at its documented shapes."""
    return {
        "environment": environment(),
        "steps": [step_times(scheme, N, d, R, 300)
                  for N, d, R in STEP_SHAPES for scheme in ("do", "ambient", "reference")],
        "mean_outer": [mean_outer_time(4096, 8, 64, 100), mean_outer_time(1024, 32, 32, 100)],
        "mean_outer_walk": [mean_outer_walk_time(4096, 8, 64, 100)],
        "draw_normals": [draw_normals_time(1 << 16, 30), draw_normals_time(1 << 20, 10)],
        "write_trajectory": [write_trajectory_time(2048, 32, 5)],
        "setup": setup_times(WORKLOADS, 5),
    }


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python tools/layer_bench.py OUT.json", file=sys.stderr)
        return 2
    result = measure()
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
