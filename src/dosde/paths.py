"""Deterministic Brownian increments keyed by (seed, step, atom, channel).

Each fine-grid step owns a Philox counter stream keyed by
(seed, fine_step); atoms and channels are row-major positions inside
that stream, so a given (seed, step, atom, channel) always yields the
same draw no matter how the surrounding work is batched.  Normals come
from the inverse CDF applied to 53-bit uniforms built from the raw
counter output.

Refinement is dyadic: ``level`` selects how many fine steps make up one
requested step, and coarse increments are defined as pairwise sums of
their fine children.  Consequently

    generate(seed, n, dt, N, m, level=l)

is bit-identical to pairwise-coarsening

    generate(seed, 2n, dt/2, N, m, level=l-1)

because both resolve the same finest grid.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import InvalidEnsemble, OverflowingDims

# Memory budget for one path tensor, in float64 elements (~1 GiB).
MAX_ELEMENTS = 1 << 27

_MASK64 = (1 << 64) - 1


def philox(seed, counter):
    """Philox bit generator keyed by the 64-bit words (seed, counter)."""
    return np.random.Philox(key=np.array([seed & _MASK64, counter & _MASK64], dtype=np.uint64))


def _normal_block(seed, fine_step, N, m):
    """One fine step's worth of standard normals, shape (N, m)."""
    raw = philox(seed, fine_step).random_raw(N * m)
    # 53-bit uniform strictly inside (0, 1): no CDF endpoint overflow.
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return ndtri(u).reshape(N, m)


@dataclass
class BrownianPath:
    """Increments of an m-channel Brownian motion on a fixed grid.

    ``increments[k, i, j]`` is the k-th step's increment for atom i,
    channel j; each entry is Normal(0, dt) marginally.
    """

    seed: int
    n_steps: int
    dt: float
    N: int
    m: int
    level: int
    increments: np.ndarray

    def dump(self, path):
        """Write increments as little-endian float64, (step, atom, channel) row-major."""
        with open(path, "wb") as fh:
            fh.write(np.ascontiguousarray(self.increments, dtype="<f8").tobytes())


def generate(seed, n_steps, dt, N, m, level=0):
    """Generate Brownian increments for ``n_steps`` steps of size ``dt``.

    Parameters
    ----------
    seed : int
        Path seed; a new seed gives an independent path family.
    n_steps, dt : grid of the returned increments.
    N, m : atom count and channel count.
    level : int
        Dyadic refinement depth.  Draws happen on the fine grid of
        n_steps * 2**level steps of size dt / 2**level and are summed
        pairwise back up to the requested grid.

    Raises
    ------
    OverflowingDims
        If the fine tensor would exceed MAX_ELEMENTS float64 entries.
    """
    if not (isinstance(n_steps, int) and n_steps >= 1):
        raise InvalidEnsemble("n_steps must be a positive integer, got %r" % (n_steps,))
    if not (isinstance(N, int) and N >= 1 and isinstance(m, int) and m >= 1):
        raise InvalidEnsemble("N and m must be positive integers")
    if not (isinstance(level, int) and level >= 0):
        raise InvalidEnsemble("level must be a non-negative integer, got %r" % (level,))
    if not (isinstance(dt, float) and math.isfinite(dt) and dt > 0):
        raise InvalidEnsemble("dt must be a positive finite real, got %r" % (dt,))
    n_fine = n_steps << level
    total = n_fine * N * m
    if total > MAX_ELEMENTS:
        raise OverflowingDims(
            "path tensor needs %d elements, budget is %d" % (total, MAX_ELEMENTS)
        )
    dt_fine = dt / (1 << level)
    scale = math.sqrt(dt_fine)
    out = np.empty((n_fine, N, m), dtype=float)
    for s in range(n_fine):
        out[s] = _normal_block(seed, s, N, m)
    out *= scale
    # Dyadic aggregation: each pass halves the step count exactly.
    for _ in range(level):
        out = out[0::2] + out[1::2]
    return BrownianPath(
        seed=seed, n_steps=n_steps, dt=dt, N=N, m=m, level=level, increments=out
    )
