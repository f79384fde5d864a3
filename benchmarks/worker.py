"""One benchmark worker: a fresh process that runs one workload in-process.

run.py starts it with the BLAS thread count already pinned in its
environment, so numpy loads with that count.  The worker imports dosde
from the checkout's ``src`` and calls ``dosde.cli.main`` for each of
the workload's commands, over and over for the measurement window.
Repetition 0 is checked against the invariants (and, for the default
seed, the reference values); every later repetition must be byte-identical
to it.  With ``--trace 1`` repetitions alternate untraced and traced.

It prints one JSON object as its last line; run.py turns it into the
benchmark's result.  ``--setup-probe`` instead times what a fresh
process needs before it can integrate: importing dosde (numpy, scipy),
``config.parse_config``, ``models.builtin`` and ``models.default_initial``.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import time

from tracing import EXACT_COUNTERS, Tracer, layer_metrics, patch
from workloads import DEFAULT_SEED, WORKLOADS, config_text

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_FILE = os.path.join(HERE, "reference_values.json")

MIN_REPEATS = 3
# Stop starting repetitions once the next one could end past this many
# seconds, so the whole benchmark stays well inside its time limit.
HARD_CAP_S = 120.0


def _import_dosde():
    sys.path.insert(0, SRC)
    import dosde

    where = os.path.dirname(os.path.abspath(dosde.__file__))
    if where != os.path.join(SRC, "dosde"):
        raise SystemExit("dosde was imported from %s, not from %s" % (where, SRC))
    return dosde


def setup_probe(workload, seed):
    start = time.perf_counter()
    _import_dosde()
    from dosde.config import parse_config
    from dosde.models import builtin, default_initial

    for _, params in WORKLOADS[workload]:
        cfg = parse_config(config_text(params, seed))
        model = builtin(cfg.model_name, d=cfg.dim, **cfg.model_params)
        default_initial(model, cfg.n_atoms, cfg.rank, seed=cfg.seed)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


class Guard:
    """Wraps ``integrate`` and ``picard_local_solve`` for the completion guard.

    A run that stops short (``completed=False``, or a last recorded time
    other than t_end) is a problem; completed work is counted as atom
    steps (atoms x steps, or atoms x grid points x sweeps for Picard).
    """

    def __init__(self, dosde):
        self.problems = []
        self.atom_steps = 0
        self._restore = [
            patch(dosde, "integrators", "integrate", self._wrap_integrate),
            patch(dosde, "picard", "picard_local_solve", self._wrap_picard),
        ]

    def _wrap_integrate(self, integrate):
        def wrapper(model, initial, scheme, t_end, dt, path, *args, **kwargs):
            traj = integrate(model, initial, scheme, t_end, dt, path, *args, **kwargs)
            if not traj.completed:
                self.problems.append("%s run stopped at t=%r before t_end=%r"
                                     % (scheme, traj.times[-1], t_end))
            elif abs(traj.times[-1] - t_end) > 1e-9 * t_end:
                self.problems.append("%s run recorded t=%r last, not t_end=%r"
                                     % (scheme, traj.times[-1], t_end))
            self.atom_steps += path.N * len(traj.diag)
            return traj

        return wrapper

    def _wrap_picard(self, solve):
        def wrapper(model, U0, Y0, path, *args, **kwargs):
            result = solve(model, U0, Y0, path, *args, **kwargs)
            self.atom_steps += path.N * path.n_steps * len(result.sup_differences)
            return result

        return wrapper

    def close(self):
        while self._restore:
            self._restore.pop()()


class Session:
    """Runs one workload's commands repeatedly and checks every output."""

    def __init__(self, dosde, commands, seed, out_root, reference=None):
        """``commands``: [(cli command, params)]; ``reference``: their
        reference summaries, or None to skip that check."""
        self.dosde = dosde
        self.commands = commands
        self.reference = reference
        self.out_root = out_root
        self.guard = Guard(dosde)
        self.configs = []
        os.makedirs(out_root, exist_ok=True)
        for i, (_, params) in enumerate(self.commands):
            path = os.path.join(out_root, "cmd%d.cfg" % i)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(config_text(params, seed))
            self.configs.append(path)
        self.first_digests = None
        self.first_ok = None
        self.summaries = []
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def repeat(self, index, tracer=None):
        """Run every command once; returns (wall seconds, atom steps)."""
        import checks  # imports numpy, which the set-up probe must time itself

        wall = 0.0
        atom_steps_before = self.guard.atom_steps
        output_bytes = 0
        digests, verdicts = [], []
        for i, (command, params) in enumerate(self.commands):
            out_dir = os.path.join(self.out_root, "rep%d-cmd%d" % (index, i))
            argv = [command, self.configs[i], "--out", out_dir]
            problems_before = len(self.guard.problems)
            start = time.perf_counter()
            if tracer is None:
                rc = self.dosde.cli.main(argv)
            else:
                rc = tracer.span("cli", self.dosde.cli.main, argv)
            wall += time.perf_counter() - start

            problems = self.guard.problems[problems_before:]
            if rc != 0:
                problems.append("%s exited with %r" % (command, rc))
            if os.path.isdir(out_dir):
                d, n = checks.digest(out_dir)
                output_bytes += n
                if self.first_digests is None:
                    problems += checks.invariants(command, params, out_dir)
                    self.summaries.append(checks.summarize(params, out_dir))
                    if self.reference is not None:
                        problems += checks.compare_to_reference(
                            self.summaries[-1], self.reference[i])
                shutil.rmtree(out_dir)
            else:
                d = None
                problems.append("%s wrote no output directory" % command)
            digests.append(d)
            verdicts.append(not problems)
            self.problems += ["rep %d %s: %s" % (index, command, p) for p in problems]

        if self.first_digests is None:
            self.first_digests, self.first_ok = digests, verdicts
        for i, (d, ok) in enumerate(zip(digests, verdicts)):
            self.attempted += 1
            if d != self.first_digests[i]:
                self.problems.append("rep %d %s: outputs differ from rep 0"
                                     % (index, self.commands[i][0]))
                ok = False
            if not (ok and self.first_ok[i]):
                self.failed += 1
        if tracer is not None:
            tracer.counts["cli.output_bytes"] += output_bytes
        return wall, self.guard.atom_steps - atom_steps_before

    def close(self):
        self.guard.close()


def _blas_threads_in_effect():
    """OpenBLAS's own thread count, read through ctypes; None if not found."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed):
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
        "blas_threads_pinned": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_in_effect": _blas_threads_in_effect(),
    }


def traced_repeat(session, tracer, index):
    """``session.repeat`` with fresh spans recorded in ``tracer``."""
    tracer.reset()
    tracer.install()
    try:
        return session.repeat(index, tracer)
    finally:
        tracer.uninstall()


def _median_layers(per_rep):
    """Median over traced repetitions; exact counters are the same in each."""
    return {k: per_rep[0][k] if k in EXACT_COUNTERS else statistics.median(rep[k] for rep in per_rep)
            for k in per_rep[0]}


def run(workload, seed, seconds, trace, out_root, record_reference=False):
    """Measure one workload; returns the raw result dict."""
    import resource

    dosde = _import_dosde()
    reference = None
    if seed == DEFAULT_SEED and not record_reference:
        with open(REFERENCE_FILE, encoding="utf-8") as fh:
            reference = json.load(fh)[workload]
    session = Session(dosde, WORKLOADS[workload], seed, out_root, reference)
    tracer = Tracer(dosde) if trace else None
    untraced, traced, layers, spans = [], [], [], []
    atom_steps = None
    start = time.perf_counter()
    index = 0
    while True:
        use_trace = tracer is not None and index % 2 == 1
        if use_trace:
            wall, steps = traced_repeat(session, tracer, index)
            traced.append(wall)
            layers.append(layer_metrics(tracer.spans, tracer.counts))
            spans.append(tracer.spans)
        else:
            wall, steps = session.repeat(index)
            untraced.append(wall)
        if atom_steps is None:
            atom_steps = steps
        elif steps != atom_steps:
            session.problems.append("rep %d did %d atom steps, rep 0 did %d"
                                    % (index, steps, atom_steps))
        index += 1
        elapsed = time.perf_counter() - start
        if index >= MIN_REPEATS and elapsed >= seconds:
            break
        if index >= 2 and elapsed + wall > HARD_CAP_S:
            break

    session.close()
    # Rep 0 is the worker's first to allocate the large arrays and runs
    # cold; wall times are taken from the warm repetitions.
    warm = untraced[1:] or untraced
    result = {
        "wall_s": warm,
        "atom_steps": atom_steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(seed),
    }
    if tracer is not None:
        for rep in layers[1:]:
            for name in EXACT_COUNTERS:
                if rep[name] != layers[0][name]:
                    session.problems.append("counter %s changed between traced runs" % name)
        result["layers"] = _median_layers(layers)
        result["layers"]["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(warm) - 1.0
        )
        spans_file = os.path.join(out_root, "spans-seed%d.json" % seed)
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "seed": seed, "repetitions": spans}, fh)
        result["spans_file"] = spans_file
    result.update(attempted=session.attempted, failed=session.failed,
                  problems=session.problems)
    if record_reference:
        reference = {}
        if os.path.exists(REFERENCE_FILE):
            with open(REFERENCE_FILE, encoding="utf-8") as fh:
                reference = json.load(fh)
        reference[workload] = session.summaries
        with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-root", help="scratch directory (default .bench_out/<workload>)")
    parser.add_argument("--setup-probe", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.record_reference and args.seed != DEFAULT_SEED:
        parser.error("reference values are recorded for seed %d only" % DEFAULT_SEED)
    out_root = args.out_root or os.path.join(ROOT, ".bench_out", args.workload)
    result = run(args.workload, args.seed, args.seconds, args.trace, out_root,
                 args.record_reference)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
