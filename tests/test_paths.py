"""Counter-based Brownian increments: determinism, refinement, statistics,
and the streamed path (bounded chunks, the same bits as the whole tensor)."""

import hashlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from dosde import paths
from dosde.errors import InvalidEnsemble, OverflowingDims
from dosde.integrators import integrate
from dosde.models import builtin, default_initial


def test_shapes_and_dtype():
    p = paths.generate(1, 10, 0.25, 8, 3)
    assert p.increments.shape == (10, 8, 3)
    assert p.increments.dtype == np.float64
    assert p.n_steps == 10 and p.N == 8 and p.m == 3 and p.dt == 0.25


def test_same_key_same_bytes():
    a = paths.generate(42, 16, 0.5, 32, 2)
    b = paths.generate(42, 16, 0.5, 32, 2)
    assert np.array_equal(a.increments, b.increments)


def test_different_seeds_differ():
    a = paths.generate(1, 4, 0.1, 16, 1)
    b = paths.generate(2, 4, 0.1, 16, 1)
    assert not np.array_equal(a.increments, b.increments)


def test_steps_are_independent_counters():
    # Also holds for non-contiguous requests: the first 4 steps of a
    # longer path coincide with a shorter one.
    long = paths.generate(9, 12, 0.1, 8, 2)
    short = paths.generate(9, 4, 0.1, 8, 2)
    assert np.array_equal(long.increments[:4], short.increments)


def test_dyadic_refinement_is_consistent():
    # Coarse increments equal the pairwise sums of the next-finer level,
    # bit for bit, so a dt-halving study reuses one notional path.
    coarse = paths.generate(7, 8, 0.2, 16, 2, level=1)
    fine = paths.generate(7, 16, 0.1, 16, 2, level=0)
    summed = fine.increments[0::2] + fine.increments[1::2]
    assert np.array_equal(coarse.increments, summed)


def test_two_level_refinement():
    top = paths.generate(7, 4, 0.4, 8, 1, level=2)
    mid = paths.generate(7, 8, 0.2, 8, 1, level=1)
    assert np.array_equal(top.increments, mid.increments[0::2] + mid.increments[1::2])


def test_variance_scales_with_dt():
    p = paths.generate(3, 200, 0.01, 512, 2)
    z = p.increments / math.sqrt(0.01)
    assert abs(float(z.mean())) < 0.01
    assert abs(float(z.var()) - 1.0) < 0.01
    # extreme quantiles present but sane for a Gaussian sample
    assert 4.0 < float(np.abs(z).max()) < 8.0


def test_budget_guard():
    # generate draws nothing; the cap guards materialising the tensor.
    with pytest.raises(OverflowingDims):
        paths.generate(0, 1 << 20, 1e-3, 1 << 10, 1 << 10).increments


def test_rejects_bad_arguments():
    with pytest.raises(Exception):
        paths.generate(0, -1, 1e-3, 4, 1)
    with pytest.raises(Exception):
        paths.generate(0, 4, 0.0, 4, 1)


def test_dump_roundtrip(tmp_path):
    p = paths.generate(5, 6, 0.125, 4, 2)
    out = tmp_path / "w.bin"
    p.dump(out)
    back = np.fromfile(out, dtype="<f8").reshape(6, 4, 2)
    assert np.array_equal(back, p.increments)


def _whole_tensor(seed, n_steps, dt, N, m, level):
    """The whole-tensor generator: every fine step drawn, then coarsened."""
    n_fine = n_steps << level
    out = np.empty((n_fine, N, m))
    for s in range(n_fine):
        raw = paths.philox(seed, s).random_raw(N * m)
        u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        out[s] = ndtri(u).reshape(N, m)
    out *= math.sqrt(dt / (1 << level))
    for _ in range(level):
        out = out[0::2] + out[1::2]
    return out


@st.composite
def _streamed_cases(draw):
    n_steps = draw(st.integers(min_value=1, max_value=12))
    N = draw(st.integers(min_value=1, max_value=9))
    m = draw(st.integers(min_value=1, max_value=4))
    level = draw(st.integers(min_value=0, max_value=3))
    # Chunk budgets from below one step to more than the whole path.
    chunk = draw(st.integers(min_value=1, max_value=2 * (n_steps * N * m << level)))
    order = draw(st.one_of(st.just(list(range(n_steps))), st.permutations(range(n_steps))))
    seed = draw(st.integers(min_value=0, max_value=2**64 - 1))
    return seed, n_steps, N, m, level, chunk, order


@given(_streamed_cases(), st.sampled_from([1.0, 0.25, 1e-3, 0.3]))
@settings(max_examples=80, deadline=None)
def test_streamed_increments_match_the_whole_tensor(case, dt):
    seed, n_steps, N, m, level, chunk, order = case
    oracle = _whole_tensor(seed, n_steps, dt, N, m, level)
    with mock.patch.object(paths, "_CHUNK_ELEMENTS", chunk):
        path = paths.generate(seed, n_steps, dt, N, m, level=level)
        for k in order:
            dW = path.increment(k)
            assert dW.shape == (N, m) and not dW.flags.writeable
            assert dW.tobytes() == oracle[k].tobytes(), k
        assert path.increments.tobytes() == oracle.tobytes()
        # Once materialised, increment(k) reads the kept tensor.
        assert path.increment(n_steps - 1).tobytes() == oracle[-1].tobytes()
        fresh = paths.generate(seed, n_steps, dt, N, m, level=level)
        assert fresh.increments.tobytes() == oracle.tobytes()


def test_increment_rejects_steps_outside_the_path():
    path = paths.generate(0, 3, 0.1, 2, 1)
    for k in (-1, 3):
        with pytest.raises(IndexError):
            path.increment(k)


def test_coarsened_equals_the_next_level():
    fine = paths.generate(5, 12, 0.05, 9, 3, level=1)
    coarse = fine.coarsened()
    direct = paths.generate(5, 6, 0.1, 9, 3, level=2)
    assert (coarse.n_steps, coarse.dt, coarse.level) == (6, 0.1, 2)
    assert coarse.increments.tobytes() == direct.increments.tobytes()
    assert coarse.increment(5).tobytes() == direct.increment(5).tobytes()
    with pytest.raises(InvalidEnsemble):
        paths.generate(5, 3, 0.05, 9, 3).coarsened()


# SHA-256 of ``increments`` recorded with the whole-tensor generator.
# The last two shapes cross chunk boundaries at the default budget.
_GOLDEN = {
    (0, 5, 0.01, 7, 3, 0): "5ce64778a7cd6d3295e034121893d68b1e92452236eb1345d72178203faa6c28",
    (11, 9, 0.125, 33, 4, 0): "0870857b2d3314a6e8c4f16fa87716e5a3eb5074c48855e473b1eead5082c538",
    (2**64 - 1, 3, 1.0, 1, 1, 0): "9f1fc48e79961ce5b4b8b22e37da67cfe7aa1d40a6d873861dd780806df6d1a9",
    (3, 6, 0.5, 16, 2, 2): "a02dad5448b31356d291ae4565c533d09070f553901bd506f8200d7aad2e2b7f",
    (12345, 5, 1e-3, 65, 5, 2): "f372104d7d1e39990d116766d9a1c955a52b77e90b66f6b6e90acb885c71e36d",
    (7, 17, 1e-3, 4096, 32, 0): "2c2c567353a0785e28ea369f98a996d7c1dfde55ac9e4aeec4d781b4ae7e1cf9",
    (9, 10, 1e-2, 1024, 64, 2): "9840282b274ff6400503409fba910f42f60070605d4476629296fcbb6e958898",
}


@pytest.mark.parametrize("key", list(_GOLDEN), ids=lambda k: "x".join(map(str, k[1:])))
def test_increments_match_golden_bits(key):
    assert hashlib.sha256(paths.generate(*key).increments.tobytes()).hexdigest() == _GOLDEN[key]
    path = paths.generate(*key)
    streamed = hashlib.sha256()
    for k in range(path.n_steps):
        streamed.update(path.increment(k).tobytes())
    assert streamed.hexdigest() == _GOLDEN[key]


def test_integrate_streams_past_the_materialisation_cap():
    # The whole tensor (2^20 steps x 16 atoms x 16 channels) is twice
    # MAX_ELEMENTS; a 10-step run only draws the chunks it reaches.
    model = builtin("ou", kappa=1.0, sigma=0.5, d=16)
    init = default_initial(model, 16, 2, seed=0)
    long = paths.generate(4, 1 << 20, 1e-2, 16, model.m)
    with pytest.raises(OverflowingDims):
        long.increments
    traj = integrate(model, init, "do", 0.1, 1e-2, long)
    short = integrate(model, init, "do", 0.1, 1e-2, paths.generate(4, 10, 1e-2, 16, model.m))
    assert traj.completed and len(traj.diag) == 10
    for a, b in zip(traj.states, short.states, strict=True):
        assert a.t == b.t and a.U.tobytes() == b.U.tobytes() and a.Y.tobytes() == b.Y.tobytes()


def _peak_bytes_of_do_run(n_steps, N, model, init):
    tracemalloc.start()
    try:
        path = paths.generate(6, n_steps, 1e-3, N, model.m)
        traj = integrate(model, init, "do", n_steps * 1e-3, 1e-3, path, record_stride=n_steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.completed
    return peak


def test_do_run_memory_does_not_grow_with_steps(monkeypatch):
    # A small chunk budget (two steps here) stands in for the default one,
    # so the test stays small while a whole tensor would dominate the peak.
    N = 256
    model = builtin("ou", kappa=1.0, sigma=0.5, d=8)
    monkeypatch.setattr(paths, "_CHUNK_ELEMENTS", 2 * N * model.m, raising=False)
    init = default_initial(model, N, 2, seed=1)
    short = _peak_bytes_of_do_run(20, N, model, init)
    long = _peak_bytes_of_do_run(200, N, model, init)
    whole_tensor_bytes = 200 * N * model.m * 8
    assert long - short < whole_tensor_bytes / 8
