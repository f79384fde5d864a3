"""Counter-based Brownian increments: determinism, refinement, statistics,
and the streamed path (bounded windows, the same bits as the whole tensor)."""

import hashlib
import math
import statistics
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dosde import paths
from dosde.cli import _log_simd
from dosde.errors import InvalidEnsemble
from dosde.integrators import integrate
from dosde.models import builtin, default_initial


def _streamed(path):
    """Every step of ``path``, read in order through ``increment``; each
    is copied before the next read can refill the window it views."""
    return np.stack([path.increment(k).copy() for k in range(path.n_steps)])


def test_shapes_and_dtype():
    p = paths.generate(1, 10, 0.25, 8, 3)
    assert p.increment(9).shape == (8, 3)
    assert p.increment(9).dtype == np.float64
    assert p.n_steps == 10 and p.N == 8 and p.m == 3 and p.dt == 0.25


def test_same_key_same_bytes():
    a = paths.generate(42, 16, 0.5, 32, 2)
    b = paths.generate(42, 16, 0.5, 32, 2)
    assert np.array_equal(_streamed(a), _streamed(b))


def test_different_seeds_differ():
    a = paths.generate(1, 4, 0.1, 16, 1)
    b = paths.generate(2, 4, 0.1, 16, 1)
    assert not np.array_equal(_streamed(a), _streamed(b))


def test_steps_are_independent_counters():
    # Also holds for non-contiguous requests: the first 4 steps of a
    # longer path coincide with a shorter one.
    long = paths.generate(9, 12, 0.1, 8, 2)
    short = paths.generate(9, 4, 0.1, 8, 2)
    assert np.array_equal(_streamed(long)[:4], _streamed(short))


def test_dyadic_refinement_is_consistent():
    # Coarse increments equal the pairwise sums of the next-finer level,
    # bit for bit, so a dt-halving study reuses one notional path.
    coarse = paths.generate(7, 8, 0.2, 16, 2, level=1)
    fine = _streamed(paths.generate(7, 16, 0.1, 16, 2, level=0))
    assert np.array_equal(_streamed(coarse), fine[0::2] + fine[1::2])


def test_two_level_refinement():
    top = paths.generate(7, 4, 0.4, 8, 1, level=2)
    mid = _streamed(paths.generate(7, 8, 0.2, 8, 1, level=1))
    assert np.array_equal(_streamed(top), mid[0::2] + mid[1::2])


def test_variance_scales_with_dt():
    p = paths.generate(3, 200, 0.01, 512, 2)
    z = _streamed(p) / math.sqrt(0.01)
    assert abs(float(z.mean())) < 0.01
    assert abs(float(z.var()) - 1.0) < 0.01
    # extreme quantiles present but sane for a Gaussian sample
    assert 4.0 < float(np.abs(z).max()) < 8.0


def test_rejects_bad_arguments():
    with pytest.raises(Exception):
        paths.generate(0, -1, 1e-3, 4, 1)
    with pytest.raises(Exception):
        paths.generate(0, 4, 0.0, 4, 1)


@pytest.mark.parametrize("N, m, level, needle", [
    (0, 1, 0, "N and m must be positive integers"),
    (4.0, 1, 0, "N and m must be positive integers"),
    (4, 0, 0, "N and m must be positive integers"),
    (4, 1, -1, "level must be a non-negative integer"),
])
def test_rejects_bad_sizes_and_levels(N, m, level, needle):
    with pytest.raises(InvalidEnsemble, match=needle):
        paths.generate(0, 4, 1e-3, N, m, level=level)


def _uniforms(seed, step, n):
    """The first ``n`` uniforms of a fine step's stream, from its raw words."""
    raw = paths.philox(seed, step).random_raw(n)
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def _whole_tensor(seed, n_steps, dt, N, m, level):
    """The whole-tensor generator: every fine step drawn, then coarsened."""
    n_fine = n_steps << level
    out = np.empty((n_fine, N, m))
    for s in range(n_fine):
        out[s] = paths.inverse_normal_cdf(_uniforms(seed, s, N * m)).reshape(N, m)
    out *= math.sqrt(dt / (1 << level))
    for _ in range(level):
        out = out[0::2] + out[1::2]
    return out


def _ulps(x, ref):
    return np.abs(x - ref) / np.spacing(np.abs(ref))


def test_inverse_normal_cdf_matches_statistics():
    # Central entries are the stdlib's bits.  A tail entry is too wherever
    # np.log and math.log agree on min(u, 1 - u); where they differ in the
    # last bit (np.log follows numpy's SIMD target), it is within 4 ulp.
    u = _uniforms(3, 0, 1 << 16)
    x = paths.inverse_normal_cdf(u.copy())
    ref = np.array([statistics.NormalDist().inv_cdf(v) for v in u.tolist()])
    central = np.abs(u - 0.5) <= 0.425
    assert 0.8 < central.mean() < 0.9
    assert x[central].tobytes() == ref[central].tobytes()
    p = np.minimum(u, 1.0 - u)[~central]
    same_log = np.log(p) == np.array([math.log(v) for v in p.tolist()])
    tail, tail_ref = x[~central], ref[~central]
    assert tail[same_log].tobytes() == tail_ref[same_log].tobytes()
    assert _ulps(tail, tail_ref).max() <= 4


def test_inverse_normal_cdf_is_within_8_ulp_of_ndtri():
    ndtri = pytest.importorskip("scipy.special").ndtri
    e25 = math.exp(-25.0)  # the far tail starts at min(u, 1 - u) < e^-25
    k = np.arange(-8.0, 9.0)
    special = np.concatenate([
        [2.0**-54, 1.0 - 2.0**-53],
        e25 * (1.0 + k * 2.0**-52),
        1.0 - e25 + k * 2.0**-53,
        np.nextafter(0.075, [0.0, 1.0]), [0.075],
        np.nextafter(0.925, [0.0, 1.0]), [0.925],
    ])
    u = np.concatenate([_uniforms(5, 0, 1 << 20), special])
    x = paths.inverse_normal_cdf(u.copy())
    assert _ulps(x, ndtri(u)).max() <= 8
    # The branch edges straddle both branches; the central ones are the
    # stdlib's bits.
    edges_u, edges_x = u[-6:], x[-6:]
    central = np.abs(edges_u - 0.5) <= 0.425
    assert central.any() and not central.all()
    ref = np.array([statistics.NormalDist().inv_cdf(v) for v in edges_u.tolist()])
    assert edges_x[central].tobytes() == ref[central].tobytes()


def test_inverse_normal_cdf_reads_one_as_the_largest_double_below_it():
    # The top raw word gives u = 1: (2^53 - 1) + 1/2 rounds to even, 2^53.
    assert (float(2**53 - 1) + 0.5) * 2.0**-53 == 1.0
    x = paths.inverse_normal_cdf(np.array([1.0, 1.0 - 2.0**-53, 2.0**-54]))
    assert x[0] == x[1] and 8.2 < x[0] < 8.3 and x[2] < -8.29


@st.composite
def _streamed_cases(draw):
    n_steps = draw(st.integers(min_value=1, max_value=12))
    N = draw(st.integers(min_value=1, max_value=9))
    m = draw(st.integers(min_value=1, max_value=4))
    level = draw(st.integers(min_value=0, max_value=3))
    # Chunk budgets from below one step to more than the whole path;
    # transform blocks from one draw to several steps.
    chunk = draw(st.integers(min_value=1, max_value=2 * (n_steps * N * m << level)))
    block = draw(st.integers(min_value=1, max_value=64))
    order = draw(st.one_of(st.just(list(range(n_steps))), st.permutations(range(n_steps))))
    seed = draw(st.integers(min_value=0, max_value=2**64 - 1))
    return seed, n_steps, N, m, level, (chunk, block), order


@given(_streamed_cases(), st.sampled_from([1.0, 0.25, 1e-3, 0.3]))
@settings(max_examples=80, deadline=None)
def test_streamed_increments_match_the_whole_tensor(case, dt):
    seed, n_steps, N, m, level, (chunk, block), order = case
    oracle = _whole_tensor(seed, n_steps, dt, N, m, level)
    with (
        mock.patch.object(paths, "_CHUNK_ELEMENTS", chunk),
        mock.patch.object(paths, "_BLOCK", block),
    ):
        path = paths.generate(seed, n_steps, dt, N, m, level=level)
        for k in order:
            dW = path.increment(k)
            assert dW.shape == (N, m) and not dW.flags.writeable
            assert dW.tobytes() == oracle[k].tobytes(), k
        fresh = paths.generate(seed, n_steps, dt, N, m, level=level)
        assert _streamed(fresh).tobytes() == oracle.tobytes()


def test_increment_rejects_steps_outside_the_path():
    path = paths.generate(0, 3, 0.1, 2, 1)
    for k in (-1, 3):
        with pytest.raises(IndexError):
            path.increment(k)


def test_coarsened_equals_the_next_level():
    # One pass or several: coarsen's pair sums are the next levels' bits.
    fine = _streamed(paths.generate(5, 24, 0.025, 9, 3))
    for passes in (1, 2, 3):
        coarse = paths.coarsen(fine, np.empty((24 >> passes, 9, 3)))
        direct = paths.generate(5, 24 >> passes, 0.025 * (1 << passes), 9, 3, level=passes)
        assert coarse.tobytes() == _streamed(direct).tobytes()
    half = _streamed(paths.generate(5, 12, 0.05, 9, 3, level=1))
    coarse = paths.coarsen(half, np.empty((6, 9, 3)))
    assert coarse.tobytes() == _streamed(paths.generate(5, 6, 0.1, 9, 3, level=2)).tobytes()


@pytest.mark.parametrize("n_steps", [2, 6, 24, 40])
def test_coarsened_ladder_equals_each_level(n_steps, monkeypatch):
    # Windows of two level-0 steps (8 finest steps) at most; every rung
    # of every window holds its own level's bits, and only them.
    N, m, levels = 5, 2, 3
    monkeypatch.setattr(paths, "_CHUNK_ELEMENTS", 9 * N * m)
    direct = [paths.generate(8, n_steps << lvl, 0.01 / (1 << lvl), N, m, level=2 - lvl)
              for lvl in range(levels)]
    start = 0
    for stop, ladder in paths.lockstep(8, n_steps, 0.01, N, m, levels):
        assert 0 < stop - start <= 2
        for lvl, (held, path) in enumerate(zip(ladder, direct)):
            assert (held.n_steps, held.dt, held.level) == (path.n_steps, path.dt, path.level)
            for k in range(start << lvl, stop << lvl):
                assert held.increment(k).tobytes() == path.increment(k).tobytes()
            for k in (start << lvl) - 1, stop << lvl:
                if 0 <= k < held.n_steps:
                    with pytest.raises(IndexError):
                        held.increment(k)
        start = stop
    assert start == n_steps


def test_a_held_path_refuses_outside_steps_and_keeps_its_window(monkeypatch):
    # Windows of two level-0 steps.  Asked twice for a step outside its
    # window, a held path refuses twice, and its window keeps its bits.
    N, m, levels = 3, 2, 2
    monkeypatch.setattr(paths, "_CHUNK_ELEMENTS", (2 * N * m) << (levels - 1))
    oracle = [_whole_tensor(5, 6 << lvl, 0.1 / (1 << lvl), N, m, levels - 1 - lvl)
              for lvl in range(levels)]
    start = 0
    for stop, ladder in paths.lockstep(5, 6, 0.1, N, m, levels):
        assert stop - start == 2
        for lvl, held in enumerate(ladder):
            outside = {k for k in ((start << lvl) - 1, stop << lvl, (6 << lvl) - 1)
                       if 0 <= k < held.n_steps and not start << lvl <= k < stop << lvl}
            for k in sorted(outside):
                for _ in range(2):
                    with pytest.raises(IndexError):
                        held.increment(k)
            for k in range(start << lvl, stop << lvl):
                assert held.increment(k).tobytes() == oracle[lvl][k].tobytes(), (lvl, k)
        start = stop


def test_an_interrupted_fill_leaves_no_stale_window(monkeypatch):
    # Two steps per chunk: step 2's fill is cut off, and the retry draws
    # it again rather than serving the buffer's old steps.
    N, m = 4, 2
    monkeypatch.setattr(paths, "_CHUNK_ELEMENTS", 2 * N * m)
    oracle = _whole_tensor(3, 6, 0.1, N, m, 0)
    path = paths.generate(3, 6, 0.1, N, m)
    assert path.increment(0).tobytes() == oracle[0].tobytes()
    draw = paths._draw_normals

    def interrupted(seed, first_step, out, scale):
        raise KeyboardInterrupt

    monkeypatch.setattr(paths, "_draw_normals", interrupted)
    with pytest.raises(KeyboardInterrupt):
        path.increment(2)
    monkeypatch.setattr(paths, "_draw_normals", draw)
    for k in (2, 3, 0, 5):
        assert path.increment(k).tobytes() == oracle[k].tobytes(), k


def test_coarsened_allocates_no_second_tensor():
    # One pass adds into ``out`` through numpy's fixed-size ufunc buffers.
    fine = _streamed(paths.generate(9, 256, 0.01, 256, 8))
    out = np.empty((128, 256, 8))
    tracemalloc.start()
    try:
        paths.coarsen(fine, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < fine.nbytes / 16  # a separate coarse tensor is fine.nbytes / 2


@pytest.mark.parametrize("levels, chunk, width, span", [
    (1, 1 << 18, None, 7), (3, 40, None, 1), (4, 7, None, 1), (3, 1000, None, 7),
    (3, 200, None, 7), (3, 200, 1, 7), (3, 200, 8, 2), (2, 200, 8, 4),
])
def test_lockstep_draws_each_finest_normal_once(levels, chunk, width, span, monkeypatch):
    # A window is chunk // (N max(m, width) 2^(levels - 1)) level-0 steps,
    # at least one, and the last window takes what is left.
    drawn = []
    draw = paths._draw_normals

    def counting(seed, first_step, out, scale):
        drawn.extend(range(first_step, first_step + len(out)))
        return draw(seed, first_step, out, scale)

    monkeypatch.setattr(paths, "_draw_normals", counting)
    monkeypatch.setattr(paths, "_CHUNK_ELEMENTS", chunk)
    stops = [stop for stop, _ in paths.lockstep(2, 7, 0.1, 3, 2, levels, width=width)]
    assert stops == list(range(span, 7, span)) + [7]
    assert drawn == list(range(7 << (levels - 1)))


# SHA-256 of the (n_steps, N, m) increments, recorded with the
# whole-tensor generator.
# The last two shapes cross chunk boundaries at the default budget.
# Tail normals go through np.log, so the digests hold for numpy's
# float64 log dispatch target they were recorded on.
_GOLDEN_LOG_SIMD = "X86_V4"
_GOLDEN = {
    (0, 5, 0.01, 7, 3, 0): "1fb748262b0ed326c6c8caf829f3f1e407227e540564731cbb1640a7c185ab6d",
    (11, 9, 0.125, 33, 4, 0): "d08a2b46a861907bb6f9dbb82eea2b0dc5e6907a8d383320cbc16c51280a8834",
    (2**64 - 1, 3, 1.0, 1, 1, 0): "38bef4fbcb35559abc04ed0debb5675fac51663b4947e9639538308a01561ded",
    (3, 6, 0.5, 16, 2, 2): "543267c3cccc0ae139a5b4044650cfa2c98fb0d0a7d375c0da705156cdeef2fd",
    (12345, 5, 1e-3, 65, 5, 2): "5f227840801c202daf37e8f558aaccef41433508d890620ce544712beadc0a31",
    (7, 17, 1e-3, 4096, 32, 0): "71477e6bc6210e603eb10844217da01f7f51c68de9939a53ddb6d42a07f44a60",
    (9, 10, 1e-2, 1024, 64, 2): "4e25c4cf328a54ff3eae9ea3da7a065ef1751b7ab9ef83d63fcc62ac240b7f94",
}


@pytest.mark.parametrize("key", list(_GOLDEN), ids=lambda k: "x".join(map(str, k[1:])))
def test_increments_match_golden_bits(key):
    streamed = _streamed(paths.generate(*key)).tobytes()
    assert streamed == _whole_tensor(*key).tobytes()
    if _log_simd() != _GOLDEN_LOG_SIMD:
        pytest.skip("path digests were recorded with numpy's %s log" % _GOLDEN_LOG_SIMD)
    assert hashlib.sha256(streamed).hexdigest() == _GOLDEN[key]


# SHA-256 of the level-0 increments whose uniform is central
# (|u - 1/2| <= 0.425), in row-major order.  The central rational and
# the sqrt(dt) scale are IEEE adds, multiplies and divides, so these
# hold on every machine.  The last shape crosses chunk boundaries.
_GOLDEN_CENTRAL = {
    (0, 5, 0.01, 7, 3, 0): "273d31e78fd84bd422623744cb6e5816908b733c61d03d7ec3c6a31b2a4326ca",
    (11, 9, 0.125, 33, 4, 0): "82a51b299cbab2b194f1225f7496e7a8fef7e64f8b91302755f0c4ea7ca541c6",
    (2**64 - 1, 3, 1.0, 1, 1, 0): "38bef4fbcb35559abc04ed0debb5675fac51663b4947e9639538308a01561ded",
    (7, 17, 1e-3, 4096, 32, 0): "f51a3feab7eb751b28edd07311a9d1d67adf4876e90ec6f8f984da62e4aac23e",
}


@pytest.mark.parametrize("key", list(_GOLDEN_CENTRAL), ids=lambda k: "x".join(map(str, k[1:])))
def test_central_increments_match_golden_bits(key):
    seed, n_steps, _, N, m, _ = key
    u = np.stack([_uniforms(seed, s, N * m) for s in range(n_steps)])
    central = np.abs(u - 0.5) <= 0.425
    x = _streamed(paths.generate(*key)).reshape(n_steps, N * m)
    assert hashlib.sha256(x[central].tobytes()).hexdigest() == _GOLDEN_CENTRAL[key]


def test_integrate_streams_past_the_materialisation_cap():
    # The whole tensor (2^20 steps x 16 atoms x 16 channels) would take
    # 2 GiB; a 10-step run only draws the chunk it reaches, with the bits
    # of a path sized to the run.
    model = builtin("ou", kappa=1.0, sigma=0.5, d=16)
    init = default_initial(model, 16, 2, seed=0)
    long = paths.generate(4, 1 << 20, 1e-2, 16, model.m)
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
