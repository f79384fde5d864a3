"""The layer micro-benchmark's measuring functions, run at tiny shapes."""

import importlib.util
import math
import os
import sys

import pytest

_TOOL = os.path.join(os.path.dirname(__file__), "..", "tools", "layer_bench.py")


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("layer_bench", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _positive(record, keys):
    for key in keys:
        assert isinstance(record[key], float) and math.isfinite(record[key])
        assert record[key] > 0, key


def test_environment_block(bench):
    env = bench.environment(gemm_reps=3)
    assert {"python", "numpy", "blas_name", "blas_version", "blas_core", "blas_threads",
            "log_simd", "cpu_count", "cpus_usable"} <= set(env)
    assert env["dont_write_bytecode"] is bool(sys.flags.dont_write_bytecode)
    assert env["cpu_count"] >= 1 and env["cpus_usable"] >= 1 and env["gemm_reps"] == 3
    _positive(env, ["gemm_4096x8x64_after_qr_median_ms"])


@pytest.mark.parametrize("scheme", ["do", "ambient", "reference"])
def test_step_times(bench, scheme):
    record = bench.step_times(scheme, 16, 3, 2, 3)
    assert (record["scheme"], record["N"], record["d"], record["R"]) == (scheme, 16, 3, 2)
    assert record["reps"] == 3 and record["unit"] == "ms"
    _positive(record, ["best", "median"])
    assert record["best"] <= record["median"]


@pytest.mark.parametrize("measure, args, unit", [
    ("mean_outer_time", (16, 2, 3), "ms"),
    ("mean_outer_walk_time", (16, 2, 3), "ms"),
    ("draw_normals_time", (64,), "ns/normal"),
    ("write_trajectory_time", (4, 3), "ns/value"),
])
def test_layer_timings(bench, measure, args, unit):
    record = getattr(bench, measure)(*args, 3)
    assert record["reps"] == 3 and record["unit"] == unit
    _positive(record, ["best", "median"])


def test_setup_times(bench):
    tiny = {"mc": [("simulate", {"model.name": "mode_crossing", "run.n_atoms": 8, "run.dim": 3,
                                 "run.rank": 2})],
            "two": [("simulate", {"model.name": "ou", "run.n_atoms": 8, "run.dim": 3,
                                  "run.rank": 2, "model.kappa": 0.5}),
                    ("compare", {"model.name": "gbm_clipped", "run.n_atoms": 4, "run.dim": 2,
                                 "run.rank": 2})]}
    records = bench.setup_times(tiny, 2)
    assert [r["part"] for r in records] == ["import_numpy", "import_dosde",
                                            "default_initial.mc", "default_initial.two"]
    for record in records:
        assert record["reps"] == 2 and record["unit"] == "ms"
        _positive(record, ["best", "median"])
        assert record["best"] <= record["median"]
