"""Shared pytest plumbing: an acceptance-line registry and test ensembles.

Acceptance tests register one human-readable verdict line each; the
terminal summary reprints them all at the end of the run so the
pass/fail ledger is visible even when pytest captures stdout.
"""

import numpy as np
from hypothesis import strategies as st

ACCEPTANCE_LINES = []


def record_acceptance(line):
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance results")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


# ---------------------------------------------------------------- ensembles
# Shared by the bit-equality oracles of the spectral rule (test_kernels,
# test_rank_control).


def same_bits(a, b):
    """Equal dtype, shape and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def hadamard_columns(n_log2, scales):
    """The first len(scales) columns of the Sylvester Hadamard matrix of
    order 2^n_log2, scaled: an ensemble whose Gram is exactly
    diag(scales^2), so equal scales give exactly tied eigenvalues."""
    H = np.ones((1, 1))
    for _ in range(n_log2):
        H = np.block([[H, H], [H, -H]])
    return H[:, : len(scales)] * np.asarray(scales, dtype=float)


@st.composite
def spectral_ensembles(draw, max_cols=12):
    """An N x k ensemble from one of three families: Gaussian columns of
    mixed scales; rank-deficient products (down to all zeros); Hadamard
    columns scaled by 1, 2 or 4 in any order, whose Gram spectrum has
    exact ties."""
    kind = draw(st.sampled_from(["gaussian", "deficient", "hadamard"]))
    if kind == "hadamard":
        n_log2 = draw(st.integers(2, 6))
        k = draw(st.integers(1, min(max_cols, 2**n_log2)))
        return hadamard_columns(
            n_log2, draw(st.lists(st.sampled_from([1.0, 2.0, 4.0]), min_size=k, max_size=k))
        )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, max_cols))
    N = draw(st.integers(2, 64))
    if kind == "gaussian":
        return rng.standard_normal((N, k)) * 10.0 ** rng.uniform(-3.0, 3.0, size=k)
    r = draw(st.integers(0, k - 1))
    return rng.standard_normal((N, r)) @ rng.standard_normal((r, k))
