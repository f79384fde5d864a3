"""dosde benchmark: time one workload of the `dosde` CLI end to end, or per layer.

    python3 benchmarks/run.py --workload factored --seed 0 --seconds 50 --trace 0

Run from anywhere inside a checkout that holds ``src/dosde``; the
program is imported from that source tree, nothing is installed.

With ``--trace 0`` it reports the end-to-end metrics: ``wall_s`` (median
wall time of the workload's commands over the warm repetitions),
``atom_steps_per_s``,
``peak_rss_mb`` of the worker and ``setup_s`` (median of SETUP_PROBES
fresh processes).  With ``--trace 1`` it reports the per-layer metrics
of tracing.LAYER_METRICS instead, from spans recorded around dosde's
public functions, and writes the spans under .bench_out/.

Every command's outputs are checked (see checks.py).  A failed command
is counted in ``failed``; ``failed / attempted`` is the failed fraction.
The last line of standard output is the JSON result; the lines before
it give the environment and a readable table.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import LAYER_METRICS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# BLAS threads for every process the benchmark starts, capped by the CPUs
# it may use.  Pinned in the environment before numpy loads.
BLAS_THREADS = 2
SETUP_PROBES = 5
# Whole-run limit for the worker; the benchmark must end within 180 s.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "atom_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env.pop("DOSDE_THREADS", None)  # the benchmark pins threads itself
    return env


def run_worker(args, env, timeout):
    """Run worker.py with ``args``; returns its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")] + args,
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError("worker %s failed with exit code %d:\n%s"
                         % (" ".join(args), proc.returncode, proc.stderr[-4000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace):
    """Returns (raw worker result, metrics dict of {name: value})."""
    start = time.monotonic()
    env = worker_env()
    common = ["--workload", workload, "--seed", str(seed)]
    setup = None
    if not trace:
        setup = [run_worker(common + ["--setup-probe"], env, 60)["setup_s"]
                 for _ in range(SETUP_PROBES)]
    raw = run_worker(
        common + ["--seconds", str(seconds), "--trace", str(int(trace))],
        env, DEADLINE_S - (time.monotonic() - start),
    )
    if trace:
        return raw, raw["layers"]
    wall = statistics.median(raw["wall_s"])
    return raw, {
        "wall_s": wall,
        "atom_steps_per_s": raw["atom_steps"] / wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dosde", "cli.py")):
        print("error: no dosde source tree at %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    try:
        raw, values = measure(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired) as err:
        print("error: %s" % err, file=sys.stderr)
        return 1

    units = {k: v[0] for k, v in LAYER_METRICS.items()} if args.trace else END_TO_END_UNITS
    print("environment %s" % json.dumps(raw["environment"], sort_keys=True))
    if args.trace:
        print("spans written to %s" % os.path.relpath(raw["spans_file"], ROOT))
    for problem in raw["problems"]:
        print("problem: %s" % problem, file=sys.stderr)
    print("%-40s %s" % ("failed_fraction", raw["failed"] / raw["attempted"]))
    for name, unit in units.items():
        print("%-40s %.6g %s" % (name, values[name], unit))
    print(json.dumps({
        "correct": raw["failed"] == 0 and not raw["problems"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
