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

``generate`` draws nothing.  ``BrownianPath.increment(k)`` streams: it
draws whole chunks of steps, about ``_CHUNK_ELEMENTS`` fine normals
each, into one reused buffer, and coarsens inside each step in the same
pairwise order as the whole tensor, so every increment has the same
bits however it is reached.  Memory stays bounded for any step count.
``BrownianPath.increments`` materialises (and keeps) the whole
(n_steps, N, m) tensor; only it is capped by MAX_ELEMENTS.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .errors import InvalidEnsemble, OverflowingDims

# Memory budget for one materialised path tensor, in float64 elements (~1 GiB).
MAX_ELEMENTS = 1 << 27

# Fine-grid normals drawn per streamed chunk, in float64 elements (16 MiB);
# a chunk always holds at least one whole step.
_CHUNK_ELEMENTS = 1 << 21

_MASK64 = (1 << 64) - 1


def philox(seed, counter):
    """Philox bit generator keyed by the 64-bit words (seed, counter)."""
    return np.random.Philox(key=np.array([seed & _MASK64, counter & _MASK64], dtype=np.uint64))


def _draw_normals(seed, fine_step, out):
    """Fill ``out`` (a C-contiguous float64 (N, m) array) with one fine step's normals."""
    raw = philox(seed, fine_step).random_raw(out.size).reshape(out.shape)
    # 53-bit uniform strictly inside (0, 1): no CDF endpoint overflow.
    raw >>= np.uint64(11)
    np.add(raw, 0.5, out=out, casting="unsafe")
    out *= 2.0**-53
    ndtri(out, out=out)


@dataclass
class BrownianPath:
    """Increments of an m-channel Brownian motion on a fixed grid.

    ``increment(k)[i, j]`` is the k-th step's increment for atom i,
    channel j; each entry is Normal(0, dt) marginally.  ``increments``
    is the same data as one (n_steps, N, m) tensor.
    """

    seed: int
    n_steps: int
    dt: float
    N: int
    m: int
    level: int
    _tensor: np.ndarray = field(default=None, init=False, repr=False, compare=False)
    _chunk: np.ndarray = field(default=None, init=False, repr=False, compare=False)
    _chunk_start: int = field(default=0, init=False, repr=False, compare=False)
    _chunk_len: int = field(default=0, init=False, repr=False, compare=False)

    @property
    def increments(self):
        """The whole (n_steps, N, m) tensor, drawn on first use and kept.

        Raises OverflowingDims if it would exceed MAX_ELEMENTS entries.
        """
        if self._tensor is None:
            total = self.n_steps * self.N * self.m
            if total > MAX_ELEMENTS:
                raise OverflowingDims(
                    "path tensor needs %d elements, budget is %d" % (total, MAX_ELEMENTS)
                )
            out = np.empty((self.n_steps, self.N, self.m))
            steps = self._chunk_steps()
            for start in range(0, self.n_steps, steps):
                self._fill(start, out[start:start + steps])
            self._tensor = out
        return self._tensor

    def increment(self, k):
        """Step ``k``'s increment, a read-only (N, m) array.

        Unless ``increments`` was materialised, this is a view into the
        chunk buffer, which the next call outside its chunk overwrites.
        """
        if not 0 <= k < self.n_steps:
            raise IndexError("step %r outside a path of %d steps" % (k, self.n_steps))
        if self._tensor is not None:
            view = self._tensor[k]
        else:
            if not self._chunk_start <= k < self._chunk_start + self._chunk_len:
                if self._chunk is None:
                    steps = min(self._chunk_steps(), self.n_steps)
                    self._chunk = np.empty((steps, self.N, self.m))
                steps = len(self._chunk)
                start = k - k % steps
                self._chunk_len = min(steps, self.n_steps - start)
                self._chunk_start = start
                self._fill(start, self._chunk[:self._chunk_len])
            view = self._chunk[k - self._chunk_start]
        view.flags.writeable = False
        return view

    def coarsened(self):
        """This path one dyadic level up: n_steps / 2 steps of 2 dt.

        Bit-identical to ``generate(seed, n_steps // 2, 2 * dt, N, m,
        level + 1)``, made from the materialised increments by one
        pairwise pass instead of a fresh draw.
        """
        if self.n_steps % 2:
            raise InvalidEnsemble("cannot coarsen a path of %d steps" % self.n_steps)
        fine = self.increments
        out = BrownianPath(
            self.seed, self.n_steps // 2, 2 * self.dt, self.N, self.m, self.level + 1
        )
        out._tensor = fine[0::2] + fine[1::2]
        return out

    def dump(self, path):
        """Write increments as little-endian float64, (step, atom, channel) row-major."""
        with open(path, "wb") as fh:
            fh.write(np.ascontiguousarray(self.increments, dtype="<f8").tobytes())

    def _chunk_steps(self):
        """Steps per chunk: _CHUNK_ELEMENTS fine normals, at least one step."""
        return max(1, _CHUNK_ELEMENTS // ((self.N * self.m) << self.level))

    def _fill(self, start, out):
        """Draw steps start, start + 1, ... into ``out``, shape (count, N, m)."""
        per_step = 1 << self.level
        fine = out if self.level == 0 else np.empty((len(out) * per_step, self.N, self.m))
        for i in range(len(fine)):
            _draw_normals(self.seed, start * per_step + i, fine[i])
        fine *= math.sqrt(self.dt / per_step)
        # Dyadic aggregation: each pass halves the step count exactly.  A
        # chunk starts on a step boundary, so every pair is the same pair
        # the whole-tensor passes would add.
        for _ in range(self.level - 1):
            fine = fine[0::2] + fine[1::2]
        if self.level:
            np.add(fine[0::2], fine[1::2], out=out)


def generate(seed, n_steps, dt, N, m, level=0):
    """Describe Brownian increments for ``n_steps`` steps of size ``dt``.

    Nothing is drawn here: ``increment(k)`` streams steps in bounded
    chunks, and ``increments`` materialises the whole tensor.

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
    """
    if not (isinstance(n_steps, int) and n_steps >= 1):
        raise InvalidEnsemble("n_steps must be a positive integer, got %r" % (n_steps,))
    if not (isinstance(N, int) and N >= 1 and isinstance(m, int) and m >= 1):
        raise InvalidEnsemble("N and m must be positive integers")
    if not (isinstance(level, int) and level >= 0):
        raise InvalidEnsemble("level must be a non-negative integer, got %r" % (level,))
    if not (isinstance(dt, float) and math.isfinite(dt) and dt > 0):
        raise InvalidEnsemble("dt must be a positive finite real, got %r" % (dt,))
    return BrownianPath(seed=seed, n_steps=n_steps, dt=dt, N=N, m=m, level=level)
