"""Unit tests for the ensemble linear algebra and the closed-form bounds.

Frozen expected values below were computed by hand (or with an
independent sympy/mpmath session) before the implementation existed;
they pin the formulas, not the code.
"""

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import hadamard_columns, same_bits, spectral_ensembles
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dosde import kernels
from dosde.cli import _blas_info
from dosde.diagnostics import l2_distance
from dosde.errors import (
    InvalidBoundInput,
    InvalidEnsemble,
    ShapeMismatch,
    SingularGram,
)


# ---------------------------------------------------------------- reductions


def test_pairwise_sum_matches_numpy():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1023, 3))
    got = kernels.pairwise_sum(x)
    assert np.allclose(got, np.sum(x, axis=0), rtol=1e-12, atol=1e-12)


def test_pairwise_sum_exact_on_integers():
    x = np.arange(37.0)
    assert kernels.pairwise_sum(x) == 666.0


def test_pairwise_sum_single_row():
    x = np.array([[2.0, 3.0]])
    assert np.array_equal(kernels.pairwise_sum(x), x[0])


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=30, deadline=None)
def test_pairwise_sum_close_to_numpy_any_length(n, seed):
    x = np.random.default_rng(seed).standard_normal(n)
    assert math.isclose(
        float(kernels.pairwise_sum(x)), float(np.sum(x)), rel_tol=1e-10, abs_tol=1e-10
    )


def test_ensemble_mean_uniform_weights():
    y = np.array([1.0, 2.0, 3.0, 6.0])
    assert kernels.ensemble_mean(y) == 3.0


def test_mean_outer_hand_example():
    A = np.array([[1.0, 0.0], [0.0, 1.0]])  # two atoms, two coords
    B = np.array([[2.0], [4.0]])
    # E[A B^T] = (1/2) sum_i a_i b_i^T = [[1], [2]]
    assert np.array_equal(kernels.mean_outer(A, B), np.array([[1.0], [2.0]]))


def _old_pairwise_sum(values, axis=0):
    """The whole-array pairwise tree that ``pairwise_sum`` must match."""
    a = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    while a.shape[0] > 1:
        n = a.shape[0]
        m = n // 2
        s = a[0 : 2 * m : 2] + a[1 : 2 * m : 2]
        if n % 2:
            s = np.concatenate([s, a[n - 1 : n]], axis=0)
        a = s
    return a[0]


def _sha(x):
    return hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()


def _integer_ensemble(n, k, mult, mod):
    # integer arithmetic and one IEEE division: the same inputs everywhere
    return (((np.arange(n * k) * mult) % mod) / float(mod) - 0.5).reshape(n, k)


# SHA-256 of mean_outer(A, B), mean_outer(A, A) and the pairwise sum of the
# N x p x q product tensor.  The pairwise sums are plain IEEE adds and hold
# on any machine.  The mean_outer digests were recorded with 256-atom BLAS
# leaves on OpenBLAS's SkylakeX kernel; other kernels (Haswell among them)
# may round a leaf product differently, so they are checked only there.
_GOLDEN_KERNEL = "SkylakeX"
_GOLDEN = {
    (4096, 8, 64): (
        "8b2f787bfcb57d7ae85b0f3345c02fcc88e85fc28dec865e76486e74ae2cab85",
        "c016384311f10f5ab196d1caef7fc20064919bc90eac7865a4a67c7bff6dee52",
        "ea19d1eea4caa807912d2ee47547cf87fbc8048a047ca9b3d08e69a2f5ea2b4f",
    ),
    (1024, 32, 32): (
        "61f7c9f123d81504a23c02e2c4cb180feda7c73971482393c294e1acd0809138",
        "9b99b1af71ea59ce3e32e55e5cc6d56cb624b248d918baec823b0603b8d7c95f",
        "3095293adb615db515e7d2c8235551b9a00029c9b545f82e1c97776863f43838",
    ),
    (2049, 8, 64): (
        "073762353fa718afdda9df24d5245ebaea2211430f967b933ccc4eb43ea02399",
        "4361853891892cb160a7fb4d1681b032bb02f49dd98bd23e246267901b26416b",
        "3b62231070bb26683d0913b02cd87e277bd39a521b3c58113e87fce9ad6286e3",
    ),
    (37, 3, 5): (
        "6e5a0701f247fc5692c0790b9a43b014d6b9d0c104ce215c99de8e6e2bbb4fb4",
        "260063836bdafacdf017b4ff19dc5e772350e83d6f7de5af6d8bec06c51fb1fa",
        "8ac054ddbc3b8d4552f7d40b890669423bffb9e011a98b5382687e15fed33c56",
    ),
    (1, 3, 3): (
        "a487bfe24e1fd63ef16a2eb76f8753cef509999dca88ecda308b2326ae30eca0",
        "ab2c70c765495d2abe47d9d53e3d3119160169c2ef5af26661e44963163b832e",
        "a487bfe24e1fd63ef16a2eb76f8753cef509999dca88ecda308b2326ae30eca0",
    ),
}


@pytest.mark.parametrize("shape", sorted(_GOLDEN), ids=lambda s: "x".join(map(str, s)))
def test_reductions_match_golden_bits(shape):
    N, p, q = shape
    A = _integer_ensemble(N, p, 7919, 1009)
    B = _integer_ensemble(N, q, 104729, 1013)
    outer, gram, tree = _GOLDEN[shape]
    assert _sha(kernels.pairwise_sum(A[:, :, None] * B[:, None, :])) == tree
    # The atom axis moved last and back: a strided view sums to the same bits.
    product = A.T[:, None, :] * B.T[None, :, :]
    assert _sha(kernels.pairwise_sum(np.moveaxis(product, 2, 0))) == tree
    if _blas_info()[0] != _GOLDEN_KERNEL:
        pytest.skip("mean_outer digests were recorded on OpenBLAS %s" % _GOLDEN_KERNEL)
    assert _sha(kernels.mean_outer(A, B)) == outer
    assert _sha(kernels.mean_outer(A, A)) == gram


# Atom counts around powers of two (tree tails) and multiples of the
# 256-atom leaf.
_ATOM_COUNTS = st.one_of(
    st.integers(min_value=1, max_value=4100),
    st.builds(
        lambda k, off: 2**k + off, st.integers(min_value=0, max_value=12), st.sampled_from([-1, 0, 1])
    ).filter(lambda n: n >= 1),
)


@given(
    _ATOM_COUNTS,
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=60, deadline=None)
def test_pairwise_sum_matches_the_whole_tree(n, p, q, seed):
    rng = np.random.default_rng(seed)
    product = rng.standard_normal((n, p, q))
    for axis in (0, 1):
        got = kernels.pairwise_sum(np.moveaxis(product, axis, 0))
        assert got.tobytes() == _old_pairwise_sum(product, axis=axis).tobytes()


def _split(x):
    """Veltkamp split x = hi + lo, each half at most 26 significant bits, so
    a product of halves is exact in double precision."""
    c = 134217729.0 * x  # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _exact_sums(A, B):
    """Correctly rounded sum_i A[i, j] B[i, k] for every (j, k): fsum of the
    four exact half products."""
    (ah, al), (bh, bl) = _split(A), _split(B)
    parts = [x[:, :, None] * y[:, None, :] for x in (ah, al) for y in (bh, bl)]
    stacked = np.concatenate(parts, axis=0)
    return np.array(
        [[math.fsum(stacked[:, j, k]) for k in range(B.shape[1])] for j in range(A.shape[1])]
    )


@given(
    _ATOM_COUNTS,
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=40, deadline=None)
def test_mean_outer_within_the_summation_bound(n, p, q, seed):
    # Higham (SISC 1993): a leaf of L products is summed within L u, the
    # pairwise tree over ceil(n / L) leaves adds ceil(log2(leaves)) u, and
    # the division by n one more u, each relative to sum_i |a_i b_i|.
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, p)) * rng.uniform(0.1, 10.0, size=p)
    B = rng.standard_normal((n, q)) + rng.uniform(-3.0, 3.0, size=q)
    L = kernels._LEAF
    depth = math.ceil(math.log2(-(-n // L)))
    bound = (L + depth + 1) * (np.finfo(float).eps / 2) * (np.abs(A).T @ np.abs(B)) / n
    err = np.abs(kernels.mean_outer(A, B) - _exact_sums(A, B) / n)
    assert np.all(err <= bound)


@given(
    _ATOM_COUNTS,
    st.integers(min_value=1, max_value=16),
    st.sampled_from(["C", "F", "strided"]),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=40, deadline=None)
def test_mean_outer_of_one_ensemble_is_exactly_symmetric(n, p, layout, seed):
    Y = np.random.default_rng(seed).standard_normal((n, 2 * p))
    Y = np.asfortranarray(Y[:, :p]) if layout == "F" else Y[:, ::2] if layout == "strided" else Y[:, :p].copy()
    C = kernels.mean_outer(Y, Y)
    assert np.array_equal(C, C.T)
    # the bits depend on the values, not on the memory layout
    Yc = np.ascontiguousarray(Y)
    assert C.tobytes() == kernels.mean_outer(Yc, Yc).tobytes()


_THREAD_PROBE = """
import hashlib

import numpy as np

from dosde import kernels
from dosde.cli import _blas_info

digest = hashlib.sha256()
for n, p, q in ((1, 3, 3), (37, 3, 5), (255, 1, 1), (257, 4, 1), (1000, 7, 9),
                (2049, 8, 64), (4097, 64, 64)):
    rng = np.random.default_rng(n * p * q)
    A, B = rng.standard_normal((n, p)), rng.standard_normal((n, q))
    digest.update(kernels.mean_outer(A, B).tobytes())
    digest.update(kernels.mean_outer(A, A).tobytes())
print(_blas_info()[1], digest.hexdigest())
"""


def test_mean_outer_bits_do_not_depend_on_blas_threads():
    results = {}
    for threads in (1, 2, 4):
        env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        proc = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        results[threads] = proc.stdout.split()
    assert len({digest for _, digest in results.values()}) == 1, results
    if results[1][0] != "unknown":
        # the variable took effect: one thread, then more where there are CPUs
        assert results[1][0] == "1"
        if len(os.sched_getaffinity(0)) > 1:
            assert int(results[2][0]) == 2


def test_mean_outer_allocates_no_product_tensor():
    N, p, q = 4096, 64, 64
    A = _integer_ensemble(N, p, 7919, 1009)
    B = _integer_ensemble(N, q, 104729, 1013)
    tensor_bytes = N * p * q * 8
    tracemalloc.start()
    try:
        kernels.mean_outer(A, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < tensor_bytes / 8


def test_as_ensemble_rejects_bad_input():
    with pytest.raises(InvalidEnsemble):
        kernels.as_ensemble(np.zeros(4))
    with pytest.raises(InvalidEnsemble):
        kernels.as_ensemble(np.array([[1.0, np.nan]]))
    with pytest.raises(InvalidEnsemble, match="non-empty"):
        kernels.as_ensemble(np.zeros((0, 2)))


def test_reductions_reject_an_empty_or_mismatched_atom_axis():
    with pytest.raises(InvalidEnsemble, match="empty axis"):
        kernels.pairwise_sum(np.zeros((0, 3)))
    with pytest.raises(InvalidEnsemble, match="empty axis"):
        kernels.mean_outer(np.zeros((0, 2)), np.zeros((0, 3)))
    with pytest.raises(ShapeMismatch, match="atom counts differ: 4 vs 5"):
        kernels.mean_outer(np.zeros((4, 2)), np.zeros((5, 2)))


@pytest.mark.parametrize("reduce, args", [
    (kernels.mean_outer, (np.ones((4, 2)), np.ones(4))),
    (kernels.mean_outer, (np.ones((4, 2, 2)), np.ones((4, 2)))),
    (kernels.ensemble_mean, (2.0,)),
    (kernels.pairwise_sum, (2.0,)),
    (kernels.mean_sq_norm, (np.ones(4),)),
    (l2_distance, (1.0, 2.0)),
    (l2_distance, (np.ones((2, 2, 2)), np.zeros((2, 2, 2)))),
], ids=["mean_outer-1d", "mean_outer-3d", "ensemble_mean-0d", "pairwise_sum-0d",
        "mean_sq_norm-1d", "l2_distance-0d", "l2_distance-3d"])
def test_atom_axis_reductions_reject_a_wrong_ndim(reduce, args):
    with pytest.raises(InvalidEnsemble):
        reduce(*args)


# ---------------------------------------------------------------- gram


def test_gram_identity_pair():
    # Two atoms at the canonical basis vectors: C = 0.5 I.
    Y = np.array([[1.0, 0.0], [0.0, 1.0]])
    rep = kernels.gram(Y)
    assert np.array_equal(rep.gram, 0.5 * np.eye(2))
    assert np.allclose(rep.eigenvalues, [0.5, 0.5])
    assert kernels.leading_modes(rep, kernels.EPS_RANK)[2] == 2
    # ||C^-1||_F = ||2 I||_F = 2 sqrt(2), frozen
    assert math.isclose(rep.inv_frobenius, 2.8284271247461903, rel_tol=1e-15)
    assert np.allclose(rep.inverse, 2.0 * np.eye(2))


def test_gram_singular_has_no_inverse():
    Y = np.array([[1.0, 0.0], [1.0, 0.0], [-2.0, 0.0]])
    rep = kernels.gram(Y)
    assert rep.inverse is None
    assert kernels.leading_modes(rep, kernels.EPS_RANK)[2] == 1
    assert rep.inv_frobenius == math.inf
    assert rep.lambda_min == 0.0


def test_gram_inverse_is_an_inverse():
    rng = np.random.default_rng(3)
    Y = rng.standard_normal((64, 4))
    rep = kernels.gram(Y)
    assert np.allclose(rep.gram @ rep.inverse, np.eye(4), atol=1e-10)
    # eigenvalues ascending
    assert np.all(np.diff(rep.eigenvalues) >= 0)


def test_gram_threshold_is_relative():
    # Uniform tiny scale must stay invertible: the cut is relative to trace.
    Y = 1e-12 * np.random.default_rng(4).standard_normal((32, 3))
    rep = kernels.gram(Y)
    assert rep.inverse is not None
    assert kernels.leading_modes(rep, kernels.EPS_RANK)[2] == 3


# ---------------------------------------------------------------- projectors


def test_projector_row_reproduces_span():
    rng = np.random.default_rng(5)
    U = np.linalg.qr(rng.standard_normal((6, 2)))[0].T  # orthonormal rows
    P = kernels.projector_row(U)
    assert np.allclose(P, U.T @ U, atol=1e-14)
    assert np.allclose(P @ P, P, atol=1e-13)
    v = U.T @ np.array([1.0, -2.0])
    assert np.allclose(P @ v, v, atol=1e-13)


def test_projector_row_singular_rows():
    U = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(SingularGram):
        kernels.projector_row(U)
    with pytest.raises(InvalidEnsemble, match="2-D"):
        kernels.projector_row(np.ones(3))


def test_projector_stochastic_guards():
    Y = np.random.default_rng(8).standard_normal((16, 2))
    with pytest.raises(ShapeMismatch, match="atom counts differ: 16 vs 15"):
        kernels.projector_stochastic(Y, np.ones((15, 1)))
    with pytest.raises(InvalidEnsemble, match="f must be 2-D, got ndim=1"):
        kernels.projector_stochastic(Y, np.ones(16))
    dependent = np.column_stack([Y[:, 0], 2.0 * Y[:, 0]])
    with pytest.raises(SingularGram) as err:
        kernels.projector_stochastic(dependent, np.ones((16, 1)))
    assert err.value.report.inverse is None


def test_projector_stochastic_fixes_span_members():
    rng = np.random.default_rng(6)
    Y = rng.standard_normal((128, 3))
    c = np.array([0.3, -1.2, 2.0])
    f = (Y @ c)[:, None]
    got = kernels.projector_stochastic(Y, f)
    assert np.allclose(got, f, atol=1e-10)


def test_projector_stochastic_2d_payload():
    rng = np.random.default_rng(7)
    Y = rng.standard_normal((64, 2))
    F = Y @ rng.standard_normal((2, 5))
    assert np.allclose(kernels.projector_stochastic(Y, F), F, atol=1e-10)


# ---------------------------------------------------------------- second moment


def test_second_moment_svd_recovers_planted_spectrum():
    N, d, R = 256, 6, 3
    rng = np.random.default_rng(8)
    Q = np.linalg.qr(rng.standard_normal((d, R)))[0]
    phi = np.linalg.qr(rng.standard_normal((N, R)))[0] * math.sqrt(N)
    gammas = np.array([4.0, 1.0, 0.25])
    X = phi * np.sqrt(gammas) @ Q.T
    fac = kernels.second_moment_svd(X)
    assert fac.rank == R
    assert np.allclose(fac.gammas[:R], gammas, rtol=1e-10)
    # columns recovered up to sign, which the fixer makes deterministic
    for j in range(R):
        assert min(
            np.linalg.norm(fac.Q[:, j] - Q[:, j]), np.linalg.norm(fac.Q[:, j] + Q[:, j])
        ) < 1e-10
    # phi columns are ensemble-orthonormal: E[phi_j phi_k] = delta_jk
    C = fac.phis[:, :R].T @ fac.phis[:, :R] / N
    assert np.allclose(C, np.eye(R), atol=1e-10)


def test_fix_signs_largest_entry_positive_first_on_ties():
    Q = np.asfortranarray([[0.6, -0.5, 1.0], [-0.8, 0.5, -1.0]])
    out = kernels.fix_signs(Q)
    np.testing.assert_array_equal(out, [[-0.6, 0.5, 1.0], [0.8, -0.5, -1.0]])
    assert out.flags.c_contiguous
    assert Q[0, 0] == 0.6  # the input is left alone


def test_second_moment_svd_rank_counts_threshold():
    rng = np.random.default_rng(9)
    base = rng.standard_normal((128, 1))
    X = np.hstack([base, 1e-9 * rng.standard_normal((128, 1))])
    fac = kernels.second_moment_svd(X)
    assert fac.rank == 1


def _direct_second_moment_svd(X, rel_threshold=kernels.EPS_RANK):
    """Reference for second_moment_svd that computes its spectrum itself:
    mean_outer, eigh and a stable descending sort, without ``gram``."""
    X = kernels.as_ensemble(X, "X")
    M = kernels.mean_outer(X, X)
    vals, vecs = np.linalg.eigh(M)
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    threshold = rel_threshold * max(float(np.trace(M)), 0.0)
    keep = int(np.count_nonzero(vals > threshold))
    Q = kernels.fix_signs(vecs[:, :keep])
    gammas = vals[:keep].copy()
    phis = (X @ Q) / np.sqrt(gammas)[None, :] if keep else np.zeros((X.shape[0], 0))
    return kernels.SecondMomentFactors(Q=Q, gammas=gammas, phis=phis, rank=keep)


@given(spectral_ensembles(), st.sampled_from([kernels.EPS_RANK, 1e-8, 1e-3, 0.05, 0.3]))
@example(hadamard_columns(3, [1.0, 2.0, 1.0, 4.0, 2.0, 1.0]), kernels.EPS_RANK)
@settings(max_examples=150, deadline=None)
def test_second_moment_svd_matches_the_direct_eigh_bit_for_bit(X, rel_threshold):
    # The spectrum read from gram(X) through leading_modes is the direct
    # one to the bit, including the order of exactly tied eigenvalues and
    # the modes cut by the threshold.
    got = kernels.second_moment_svd(X, rel_threshold)
    ref = _direct_second_moment_svd(X, rel_threshold)
    assert got.rank == ref.rank
    for field in ("Q", "gammas", "phis"):
        assert same_bits(getattr(got, field), getattr(ref, field)), field


# ---------------------------------------------------------------- closed-form bounds


def test_eta_radius_frozen_values():
    # eta(1, 1) = -1 + sqrt(1 + 1/2) = sqrt(1.5) - 1
    assert math.isclose(kernels.eta_radius(1.0, 1.0), math.sqrt(1.5) - 1.0, rel_tol=1e-15)
    # eta(2, 0.5) = -2 + sqrt(4 + 1) = sqrt(5) - 2
    assert math.isclose(kernels.eta_radius(2.0, 0.5), math.sqrt(5.0) - 2.0, rel_tol=1e-15)


@given(
    st.floats(min_value=0.1, max_value=50.0),
    st.floats(min_value=0.1, max_value=50.0),
    st.floats(min_value=1e-3, max_value=10.0),
)
@settings(max_examples=60, deadline=None)
def test_eta_radius_decreasing(rho, gamma, bump):
    base = kernels.eta_radius(rho, gamma)
    assert kernels.eta_radius(rho + bump, gamma) <= base
    assert kernels.eta_radius(rho, gamma + bump) <= base
    assert 0.0 < base


def test_eta_radius_rejects_nonpositive():
    with pytest.raises(InvalidBoundInput):
        kernels.eta_radius(0.0, 1.0)
    with pytest.raises(InvalidBoundInput):
        kernels.eta_radius(1.0, -2.0)


def test_picard_delta_frozen_value():
    # R = rho = gamma = d = C = 1: eta = sqrt(1.5) - 1, eta^2 = 2.5 - 2 sqrt(1.5);
    # crowd = 1 + 3 * 4 = 13, and the binding term is the stochastic one with
    # denominator 8 * 13 * (sqrt(1) + sqrt(1))^2 = 416; hand total:
    # (2.5 - 2 sqrt(1.5)) / 1664 after the extra 4 from 8 gamma^2 ... = 3.0354721885109318e-05
    got = kernels.picard_delta(1, 1.0, 1.0, 1, 1.0)
    assert math.isclose(got, 3.0354721885109318e-05, rel_tol=1e-14)
    assert got <= 1.0


def test_picard_delta_monotone_in_gamma():
    vals = [kernels.picard_delta(2, 1.5, g, 6, 2.0) for g in (0.5, 1.0, 2.0, 4.0)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_picard_delta_rejects_bad_inputs():
    with pytest.raises(InvalidBoundInput):
        kernels.picard_delta(0, 1.0, 1.0, 1, 1.0)
    with pytest.raises(InvalidBoundInput):
        kernels.picard_delta(1, -1.0, 1.0, 1, 1.0)
    with pytest.raises(InvalidBoundInput):
        kernels.picard_delta(1, 1.0, 1.0, 2.5, 1.0)
    with pytest.raises(InvalidBoundInput, match="R must be a positive integer"):
        kernels.picard_delta(True, 1.0, 1.0, 1, 1.0)
    with pytest.raises(InvalidBoundInput, match="d must be a positive integer"):
        kernels.picard_delta(1, 1.0, 1.0, True, 1.0)


def test_picard_delta_n_matches_level_norms():
    d0 = kernels.picard_delta_n(0, 2, 6, 2.0, 2.25, 1.0)
    assert math.isclose(d0, kernels.picard_delta(2, 1.5, 1.0, 6, 2.0), rel_tol=1e-15)
    seq = [kernels.picard_delta_n(n, 2, 6, 2.0, 2.25, 1.0) for n in range(6)]
    assert all(a > b for a, b in zip(seq, seq[1:]))
    with pytest.raises(InvalidBoundInput, match="non-negative integer"):
        kernels.picard_delta_n(-1, 2, 6, 2.0, 2.25, 1.0)
    with pytest.raises(InvalidBoundInput, match="n must be a non-negative integer"):
        kernels.picard_delta_n(True, 2, 6, 2.0, 2.25, 1.0)
    with pytest.raises(InvalidBoundInput, match="level norms must be positive"):
        kernels.picard_delta_n(0, 2, 6, 2.0, 0.0, 0.0)


def test_stability_bound_frozen_values():
    # M(T=1, E=1, C=1) = 3 (1 + 2) e^6 = 9 e^6
    assert math.isclose(kernels.stability_bound_M(1.0, 1.0, 1.0), 9.0 * math.exp(6.0), rel_tol=1e-15)
    assert math.isclose(kernels.stability_bound_M(1.0, 1.0, 1.0), 3630.859141434616, rel_tol=1e-12)
    # M(T=1, E=0, C=1) = 6 e^6
    assert math.isclose(kernels.stability_bound_M(1.0, 0.0, 1.0), 6.0 * math.exp(6.0), rel_tol=1e-15)


def test_stability_bound_rejects_a_negative_horizon():
    with pytest.raises(InvalidBoundInput, match="T must be a non-negative"):
        kernels.stability_bound_M(-1.0, 1.0, 1.0)


def test_stability_bound_saturates_to_inf():
    assert kernels.stability_bound_M(100.0, 1.0, 10.0) == math.inf


def test_moment_bound_frozen_values():
    # k=1, T=1, E=1, C=1: K1 = 3, K2 = e^12 -> 4 e^12
    got = kernels.moment_bound_2k(1, 1.0, 1.0, 1.0)
    assert math.isclose(got, 4.0 * math.exp(12.0), rel_tol=1e-15)
    assert math.isclose(got, 651019.16567601571, rel_tol=1e-12)
    # k=2, T=0.1, E=3, C=1: K1 = 12 * 0.1 / 2 = 0.6, K2 = e^4.8 -> 3.6 e^4.8
    got2 = kernels.moment_bound_2k(2, 0.1, 3.0, 1.0)
    assert math.isclose(got2, 3.6 * math.exp(4.8), rel_tol=1e-15)
    assert math.isclose(got2, 437.43750306744547, rel_tol=1e-12)


def test_moment_bound_at_time_zero_is_initial_moment():
    assert kernels.moment_bound_2k(2, 0.0, 7.25, 3.0) == 7.25


def test_moment_bound_rejects_bad_k():
    with pytest.raises(InvalidBoundInput):
        kernels.moment_bound_2k(0, 1.0, 1.0, 1.0)
    with pytest.raises(InvalidBoundInput):
        kernels.moment_bound_2k(1.5, 1.0, 1.0, 1.0)
    with pytest.raises(InvalidBoundInput, match="k must be a positive integer"):
        kernels.moment_bound_2k(True, 1.0, 1.0, 1.0)


def test_well_posedness_bundle_consistency():
    b = kernels.well_posedness_bounds(2, 6, 1.5, 1.0, 0.5, 2.0, 2.0)
    assert math.isclose(b.delta, kernels.picard_delta(2, 1.5, 1.0, 6, 2.0), rel_tol=1e-15)
    assert math.isclose(b.M_T, kernels.stability_bound_M(0.5, 2.0, 2.0), rel_tol=1e-15)
    assert b.eta == min(
        kernels.eta_radius(math.sqrt(2), math.sqrt(2)), kernels.eta_radius(1.5, 1.0)
    )
    assert math.isclose((2.0 + b.K1) * b.K2, kernels.moment_bound_2k(1, 0.5, 2.0, 2.0), rel_tol=1e-15)
