"""Tests of the benchmark's tracing, counters and completion guard.

They run small copies of the workloads in-process (same commands and
models, fewer atoms and dimensions), so they take seconds:

    python3 -m pytest benchmarks/tests
"""

import json
import math
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import dosde  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _small(params):
    out = dict(params, **{"run.n_atoms": 64, "run.dim": 8})
    out["run.rank"] = min(params.get("run.rank", 2), 4)
    if "picard.grid" in params:
        out["picard.grid"] = 16
    return out


def _traced_once(commands, tmp_path, name):
    session = worker.Session(dosde, commands, 0, str(tmp_path / name))
    tracer = tracing.Tracer(dosde)
    try:
        worker.traced_repeat(session, tracer, 0)
    finally:
        session.close()
    assert session.problems == []
    return tracer


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counters_repeat_and_self_times_sum_to_command(workload, tmp_path):
    commands = [(cmd, _small(params)) for cmd, params in WORKLOADS[workload]]
    first = _traced_once(commands, tmp_path, "a")
    second = _traced_once(commands, tmp_path, "b")

    a = tracing.layer_metrics(first.spans, first.counts)
    b = tracing.layer_metrics(second.spans, second.counts)
    for name in tracing.EXACT_COUNTERS:
        assert a[name] == b[name], name
    assert a["integrators.steps"] > 0 or a["picard.sweeps"] > 0
    assert a["cli.output_bytes"] > 0

    # Every span hangs under a command span, and the self times of a
    # command's tree add up to the command span itself.
    spans = first.spans
    roots = [i for i, s in enumerate(spans) if s[3] == -1]
    assert [spans[i][0] for i in roots] == ["cli"] * len(commands)
    root_of = []
    for i, (_, _, _, parent) in enumerate(spans):
        root_of.append(i if parent == -1 else root_of[parent])
    own = tracing.self_times(spans)
    for r in roots:
        tree = sum(s for s, root in zip(own, root_of) if root == r)
        assert math.isclose(tree, spans[r][2] - spans[r][1], rel_tol=1e-9, abs_tol=1e-12)


def test_shortened_run_is_a_failure(tmp_path):
    # The factored run halts at the planted collinearity t_star = 1 and
    # `compare` still exits 0; the guard must count it as failed.
    commands = [("compare", {
        "model.name": "mode_crossing", "model.t_star": 1.0,
        "run.scheme": "do", "compare.scheme_b": "reference", "compare.levels": 1,
        "run.n_atoms": 64, "run.dim": 4, "run.rank": 2,
        "run.dt": 0.01, "run.t_end": 1.2,
    })]
    session = worker.Session(dosde, commands, 0, str(tmp_path / "out"))
    try:
        session.repeat(0)
    finally:
        session.close()
    assert session.failed == 1
    assert any("stopped at t=1.0" in p for p in session.problems)


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == (
        tracing.LAYER_METRICS
    )
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
