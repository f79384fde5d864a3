"""Correctness checks on the files one `dosde` command wrote.

Three kinds of check, all made outside the timed region:

- ``digest``: SHA-256 of every output except manifest.txt (its wall-time
  line is outside the determinism contract), so reruns and traced runs
  can be compared byte for byte;
- ``invariants``: what must hold for any seed -- the run reached t_end,
  row counts match the configured grid, values are finite, the basis
  is orthonormal, the explosion is found at t_star, Picard contracts;
- ``summarize`` / ``compare_to_reference``: a few values per output
  file against checked-in values for the default seed, within
  REFERENCE_RTOL relative (REFERENCE_ATOL absolute near zero).

trajectory.csv can be tens of MB, so it is only read from its end and
counted in chunks; the checks must not raise the worker's peak RSS.
"""

import hashlib
import math
import os

import numpy as np

REFERENCE_RTOL = 1e-8
REFERENCE_ATOL = 1e-14
ORTHO_TOL = 1e-10
_CHUNK = 1 << 20


def output_files(out_dir):
    """Deterministic outputs of one command, sorted by name."""
    return sorted(f for f in os.listdir(out_dir) if f != "manifest.txt")


def digest(out_dir):
    """({file: sha256 hex}, total bytes) of the deterministic outputs."""
    digests, total = {}, 0
    for name in output_files(out_dir):
        h = hashlib.sha256()
        with open(os.path.join(out_dir, name), "rb") as fh:
            for block in iter(lambda: fh.read(_CHUNK), b""):
                h.update(block)
                total += len(block)
        digests[name] = h.hexdigest()
    return digests, total


def _value(text):
    try:
        return float(text)
    except ValueError:
        return text  # a label column, e.g. crossings.csv "which"


def _read_csv(path):
    """Data rows of a small CSV file, header dropped."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return [[_value(v) for v in line.split(",")] for line in lines[1:]]


def _count_rows(path):
    n = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(_CHUNK), b""):
            n += block.count(b"\n")
    return n - 1  # header


def _final_snapshot(path):
    """(t, {kind: values}) of the last snapshot in trajectory.csv."""
    size = os.path.getsize(path)
    chunk = _CHUNK
    with open(path, "rb") as fh:
        while True:
            start = max(0, size - chunk)
            fh.seek(start)
            lines = fh.read().splitlines()
            if start > 0:
                lines = lines[1:]  # cut mid-line
            key = lines[-1].split(b",", 1)[0] + b","
            if start == 0 or not lines[0].startswith(key):
                break
            chunk *= 2
    values = {}
    for line in lines:
        if line.startswith(key):
            _, kind, _, value = line.split(b",")
            values.setdefault(kind.decode(), []).append(float(value))
    return float(key[:-1]), {k: np.array(v) for k, v in values.items()}


def _final_state(path, n_atoms, dim):
    """Last recorded t, product state X (N x d), and the basis U or None."""
    t, snap = _final_snapshot(path)
    if "X" in snap:
        return t, snap["X"].reshape(n_atoms, dim), None
    U = snap["U"].reshape(-1, dim)
    Y = snap["Y"].reshape(n_atoms, -1)
    return t, Y @ U, U


def _record_count(n_steps, stride):
    return 1 + sum(1 for k in range(1, n_steps + 1) if k % stride == 0 or k == n_steps)


def summarize(params, out_dir):
    """Values compared against the reference: {file: [values]}, NaN as None.

    trajectory.csv gives [rows, last t, E|X_T|^2, sum of X_T]; another
    file gives its row count, then all values when it has at most 64
    rows, else its last row.
    """
    out = {}
    for name in output_files(out_dir):
        path = os.path.join(out_dir, name)
        if name == "trajectory.csv":
            t, X, _ = _final_state(path, params["run.n_atoms"], params["run.dim"])
            values = [_count_rows(path), t, float(np.mean(np.sum(X * X, axis=1))),
                      float(np.sum(X))]
        else:
            rows = _read_csv(path)
            kept = rows if len(rows) <= 64 else rows[-1:]
            values = [len(rows)] + [v for row in kept for v in row]
        out[name] = [None if isinstance(v, float) and math.isnan(v) else v for v in values]
    return out


def compare_to_reference(summary, expected):
    """Problems found comparing a summary with its reference values."""
    problems = []
    if sorted(summary) != sorted(expected):
        return ["output files %s, reference has %s" % (sorted(summary), sorted(expected))]
    for name, want in expected.items():
        got = summary[name]
        if len(got) != len(want):
            problems.append("%s: %d values, reference has %d" % (name, len(got), len(want)))
            continue
        for i, (g, w) in enumerate(zip(got, want)):
            if g == w:  # also None (NaN), labels and infinities
                continue
            same = (isinstance(w, (int, float)) and isinstance(g, (int, float))
                    and abs(g - w) <= REFERENCE_RTOL * abs(w) + REFERENCE_ATOL)
            if not same:
                problems.append("%s: value %d is %r, reference %r" % (name, i, g, w))
    return problems


def invariants(command, params, out_dir):
    """Problems with one command's outputs that any seed must avoid."""
    check = _INVARIANTS[command]
    try:
        return check(params, out_dir)
    except (OSError, ValueError, TypeError, KeyError, IndexError) as err:
        return ["%s outputs unreadable: %r" % (command, err)]


def _grid(params):
    dt = params.get("run.dt", 1e-3)
    t_end = params.get("run.t_end", 1.0)
    return dt, t_end, int(round(t_end / dt))


def _run_invariants(params, out_dir):
    problems = []
    dt, t_end, n_steps = _grid(params)
    N, d = params["run.n_atoms"], params["run.dim"]
    events = _read_csv(os.path.join(out_dir, "events.csv"))
    for e in events:
        if not e[2] < e[1]:
            problems.append("rank event at t=%r did not lower the rank" % e[0])

    traj = os.path.join(out_dir, "trajectory.csv")
    t, X, U = _final_state(traj, N, d)
    if abs(t - t_end) > 1e-9 * t_end:
        problems.append("trajectory ends at t=%r, not t_end=%r" % (t, t_end))
    if not np.isfinite(X).all():
        problems.append("final state is not finite")
    if U is not None:
        defect = float(np.linalg.norm(U @ U.T - np.eye(U.shape[0])))
        if defect > ORTHO_TOL:
            problems.append("final basis rows not orthonormal (defect %g)" % defect)
    if not events:
        snapshots = _record_count(n_steps, params.get("run.record_stride", 1))
        R = params["run.rank"]
        per = N * d if params["run.scheme"] == "reference" else R * d + N * R
        rows = _count_rows(traj)
        if rows != snapshots * per:
            problems.append("trajectory.csv has %d rows, expected %d" % (rows, snapshots * per))

    diag = _read_csv(os.path.join(out_dir, "diagnostics.csv"))
    if not n_steps <= len(diag) <= n_steps + len(events):
        problems.append("diagnostics.csv has %d rows for %d steps" % (len(diag), n_steps))
    elif abs(diag[-1][0] - t_end) > 1e-9 * t_end:
        problems.append("diagnostics end at t=%r, not t_end=%r" % (diag[-1][0], t_end))
    return problems


def _explosion_invariants(params, out_dir):
    problems = _run_invariants(params, out_dir)
    dt, _, _ = _grid(params)
    t_star = params["model.t_star"]
    rows = _read_csv(os.path.join(out_dir, "explosion.csv"))
    exploded, t_e = rows[0]
    if exploded != 1 or not abs(t_e - t_star) <= dt:
        problems.append("explosion not found at t_star=%r: %r" % (t_star, rows[0]))
    events = _read_csv(os.path.join(out_dir, "events.csv"))
    crossings = _read_csv(os.path.join(out_dir, "crossings.csv"))
    if not events or not crossings:
        problems.append("no rank event or no level crossing recorded")
    return problems


def _compare_invariants(params, out_dir):
    problems = []
    dt, _, _ = _grid(params)
    rows = _read_csv(os.path.join(out_dir, "error_report.csv"))
    if len(rows) != params["compare.levels"]:
        problems.append("error_report.csv has %d levels" % len(rows))
    for level, dt_l, sup, _ in rows:
        if abs(dt_l - dt / 2 ** level) > 1e-12 * dt:
            problems.append("level %d has dt=%r" % (level, dt_l))
        if not (math.isfinite(sup) and sup > 0):
            problems.append("level %d sup_error is %r" % (level, sup))
    return problems


def _picard_invariants(params, out_dir):
    problems = []
    rows = _read_csv(os.path.join(out_dir, "picard.csv"))
    if len(rows) != params["picard.n_iters"]:
        problems.append("picard.csv has %d sweeps" % len(rows))
    diffs = [row[1] for row in rows]
    if not all(math.isfinite(v) and v >= 0 for v in diffs):
        problems.append("sup differences not finite: %r" % diffs)
    elif any(b > a for a, b in zip(diffs, diffs[1:])):
        problems.append("Picard sweeps do not contract: %r" % diffs)
    return problems


_INVARIANTS = {
    "simulate": _run_invariants,
    "explosion-study": _explosion_invariants,
    "compare": _compare_invariants,
    "picard-demo": _picard_invariants,
}
