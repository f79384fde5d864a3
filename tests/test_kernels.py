"""Unit tests for the ensemble linear algebra and the closed-form bounds.

Frozen expected values below were computed by hand (or with an
independent sympy/mpmath session) before the implementation existed;
they pin the formulas, not the code.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dosde import kernels
from dosde.errors import InvalidBoundInput, InvalidEnsemble, SingularRowGram


# ---------------------------------------------------------------- reductions


def test_pairwise_sum_matches_numpy():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1023, 3))
    got = kernels.pairwise_sum(x, axis=0)
    assert np.allclose(got, np.sum(x, axis=0), rtol=1e-12, atol=1e-12)


def test_pairwise_sum_exact_on_integers():
    x = np.arange(37.0)
    assert kernels.pairwise_sum(x) == 666.0


def test_pairwise_sum_single_row():
    x = np.array([[2.0, 3.0]])
    assert np.array_equal(kernels.pairwise_sum(x, axis=0), x[0])


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


def test_as_ensemble_rejects_bad_input():
    with pytest.raises(InvalidEnsemble):
        kernels.as_ensemble(np.zeros(4))
    with pytest.raises(InvalidEnsemble):
        kernels.as_ensemble(np.array([[1.0, np.nan]]))


# ---------------------------------------------------------------- gram


def test_gram_identity_pair():
    # Two atoms at the canonical basis vectors: C = 0.5 I.
    Y = np.array([[1.0, 0.0], [0.0, 1.0]])
    rep = kernels.gram(Y)
    assert np.array_equal(rep.gram, 0.5 * np.eye(2))
    assert np.allclose(rep.eigenvalues, [0.5, 0.5])
    assert rep.rank == 2
    # ||C^-1||_F = ||2 I||_F = 2 sqrt(2), frozen
    assert math.isclose(rep.inv_frobenius, 2.8284271247461903, rel_tol=1e-15)
    assert np.allclose(rep.inverse, 2.0 * np.eye(2))


def test_gram_singular_has_no_inverse():
    Y = np.array([[1.0, 0.0], [1.0, 0.0], [-2.0, 0.0]])
    rep = kernels.gram(Y)
    assert rep.inverse is None
    assert rep.rank == 1
    assert rep.inv_frobenius == math.inf
    assert rep.lambda_min == 0.0


def test_gram_inverse_is_an_inverse():
    rng = np.random.default_rng(3)
    Y = rng.standard_normal((64, 4))
    rep = kernels.gram(Y)
    assert np.allclose(rep.gram @ rep.inverse, np.eye(4), atol=1e-10)
    # eigenvalues ascending
    assert np.all(np.diff(rep.eigenvalues) >= 0)
    assert rep.sigma_R == rep.eigenvalues[0]


def test_gram_threshold_is_relative():
    # Uniform tiny scale must stay invertible: the cut is relative to trace.
    Y = 1e-12 * np.random.default_rng(4).standard_normal((32, 3))
    rep = kernels.gram(Y)
    assert rep.inverse is not None
    assert rep.rank == 3


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
    with pytest.raises(SingularRowGram):
        kernels.projector_row(U)


def test_projector_stochastic_fixes_span_members():
    rng = np.random.default_rng(6)
    Y = rng.standard_normal((128, 3))
    c = np.array([0.3, -1.2, 2.0])
    f = Y @ c
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


def test_picard_delta_n_matches_level_norms():
    d0 = kernels.picard_delta_n(0, 2, 6, 2.0, 2.25, 1.0)
    assert math.isclose(d0, kernels.picard_delta(2, 1.5, 1.0, 6, 2.0), rel_tol=1e-15)
    seq = [kernels.picard_delta_n(n, 2, 6, 2.0, 2.25, 1.0) for n in range(6)]
    assert all(a > b for a, b in zip(seq, seq[1:]))


def test_stability_bound_frozen_values():
    # M(T=1, E=1, C=1) = 3 (1 + 2) e^6 = 9 e^6
    assert math.isclose(kernels.stability_bound_M(1.0, 1.0, 1.0), 9.0 * math.exp(6.0), rel_tol=1e-15)
    assert math.isclose(kernels.stability_bound_M(1.0, 1.0, 1.0), 3630.859141434616, rel_tol=1e-12)
    # M(T=1, E=0, C=1) = 6 e^6
    assert math.isclose(kernels.stability_bound_M(1.0, 0.0, 1.0), 6.0 * math.exp(6.0), rel_tol=1e-15)


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


def test_well_posedness_bundle_consistency():
    b = kernels.well_posedness_bounds(2, 6, 1.5, 1.0, 0.5, 2.0, 2.0)
    assert math.isclose(b.delta, kernels.picard_delta(2, 1.5, 1.0, 6, 2.0), rel_tol=1e-15)
    assert math.isclose(b.M_T, kernels.stability_bound_M(0.5, 2.0, 2.0), rel_tol=1e-15)
    assert b.eta == min(
        kernels.eta_radius(math.sqrt(2), math.sqrt(2)), kernels.eta_radius(1.5, 1.0)
    )
    assert math.isclose((2.0 + b.K1) * b.K2, kernels.moment_bound_2k(1, 0.5, 2.0, 2.0), rel_tol=1e-15)
