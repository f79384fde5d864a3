"""Deterministic Brownian increments keyed by (seed, step, atom, channel).

Each fine-grid step owns a Philox counter stream keyed by
(seed, fine_step); atoms and channels are row-major positions inside
that stream, so a given (seed, step, atom, channel) always yields the
same draw no matter how the surrounding work is batched.  The 64-bit
output w becomes the uniform u = (floor(w / 2^11) + 1/2) 2^-53, and the
normal is Phi^{-1}(u) by Wichura's AS241 (PPND16), computed in numpy
with the coefficients and operation order of
``statistics.NormalDist.inv_cdf``.  Central normals (|u - 1/2| <= 0.425)
are the same bits on every machine; the tails go through ``np.log``,
whose last bit may differ between numpy's SIMD targets.

Refinement is dyadic: ``level`` selects how many fine steps make up one
requested step, and coarse increments are defined as pairwise sums of
their fine children.  Consequently

    generate(seed, n, dt, N, m, level=l)

is bit-identical to pairwise-coarsening

    generate(seed, 2n, dt/2, N, m, level=l-1)

because both resolve the same finest grid.

``generate`` draws nothing.  ``BrownianPath.increment(k)`` streams:
every step is served from one window of whole steps, about
``_CHUNK_ELEMENTS`` = 2^16 fine normals (512 KiB, the block budget of
the factored step's atom walk in ``kernels``), held in one reused
buffer, or one step when a step is larger.  A plain
path refills the window with the chunk that holds k when k falls
outside it; inside a chunk each step is coarsened in the same pairwise
order as a whole tensor would be, so every increment has the same bits
however it is reached.  Inside a chunk the normals are made in blocks
of ``_BLOCK`` consecutive draws while the block is in cache: uniform
to normal by the one AS241 routine ``inverse_normal_cdf`` runs, then
one multiply by the fine step's sqrt(dt).  A normal's bits depend only
on its uniform, so the blocking never shows.  Memory stays bounded for
any step count.

``coarsen`` is the one pairwise-sum rule: every coarse increment, drawn
at a level or built from a finer path, is made by its adds.
``lockstep`` walks a dyadic ladder of nested levels in windows of
whole coarsest steps, drawing each finest step once and handing each
level's path its window with ``BrownianPath.hold``; a held path
refuses every step outside its window, so a ladder's memory does not
grow with its step count.  Only the finest level is a ``generate``
path; the coarser ones are held paths that never draw, so every path
that exists is drawn or held.

``check_grid`` is the one rule for which grid may exist: positive
sizes, a level below 64, fine normals that ``np.intp`` can index, and
one requested step's fine values in one float64 array.  ``generate``
applies it, and ``config`` asks it about every grid a run will make
before anything is built.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import InvalidEnsemble

# Fine-grid normals drawn per streamed chunk, in float64 elements; a
# chunk always holds at least one whole step.
_CHUNK_ELEMENTS = kernels._BLOCK_VALUES

# Normals put through the central rational per pass: enough to amortise
# numpy's per-call cost over its ~35 passes, few enough that its four
# working arrays (1 MiB) stay in a core's L2 cache.
_BLOCK = 1 << 15

_MASK64 = (1 << 64) - 1

# Wichura's AS241 rational approximations (numerator, denominator),
# highest power first.  Central: |q| <= 0.425 in r = 0.180625 - q^2;
# near tail: r - 1.6; far tail (r > 5): r - 5, with r = sqrt(-log p).
_CENTRAL = (
    (2.50908_09287_30122_6727e+3, 3.34305_75583_58812_8105e+4, 6.72657_70927_00870_0853e+4,
     4.59219_53931_54987_1457e+4, 1.37316_93765_50946_1125e+4, 1.97159_09503_06551_4427e+3,
     1.33141_66789_17843_7745e+2, 3.38713_28727_96366_6080e+0),
    (5.22649_52788_52854_5610e+3, 2.87290_85735_72194_2674e+4, 3.93078_95800_09271_0610e+4,
     2.12137_94301_58659_5867e+4, 5.39419_60214_24751_1077e+3, 6.87187_00749_20579_0830e+2,
     4.23133_30701_60091_1252e+1, 1.0),
)
_NEAR = (
    (7.74545_01427_83414_07640e-4, 2.27238_44989_26918_45833e-2, 2.41780_72517_74506_11770e-1,
     1.27045_82524_52368_38258e+0, 3.64784_83247_63204_60504e+0, 5.76949_72214_60691_40550e+0,
     4.63033_78461_56545_29590e+0, 1.42343_71107_49683_57734e+0),
    (1.05075_00716_44416_84324e-9, 5.47593_80849_95344_94600e-4, 1.51986_66563_61645_71966e-2,
     1.48103_97642_74800_74590e-1, 6.89767_33498_51000_04550e-1, 1.67638_48301_83803_84940e+0,
     2.05319_16266_37758_82187e+0, 1.0),
)
_FAR = (
    (2.01033_43992_92288_13265e-7, 2.71155_55687_43487_57815e-5, 1.24266_09473_88078_43860e-3,
     2.65321_89526_57612_30930e-2, 2.96560_57182_85048_91230e-1, 1.78482_65399_17291_33580e+0,
     5.46378_49111_64114_36990e+0, 6.65790_46435_01103_77720e+0),
    (2.04426_31033_89939_78564e-15, 1.42151_17583_16445_88870e-7, 1.84631_83175_10054_68180e-5,
     7.86869_13114_56132_59100e-4, 1.48753_61290_85061_48525e-2, 1.36929_88092_27358_05310e-1,
     5.99832_20655_58879_37690e-1, 1.0),
)


def philox(seed, counter):
    """Philox bit generator keyed by the 64-bit words (seed, counter): the
    package's one Philox constructor (path steps, initial data, harness trials)."""
    return np.random.Philox(key=np.array([seed & _MASK64, counter & _MASK64], dtype=np.uint64))


def _horner(coef, r, out):
    """``out`` = the polynomial ``coef`` (highest power first) at ``r``,
    one multiply and one add per coefficient, as AS241 writes it."""
    np.multiply(r, coef[0], out)
    for c in coef[1:-1]:
        np.add(out, c, out)
        np.multiply(out, r, out)
    np.add(out, coef[-1], out)
    return out


def inverse_normal_cdf(u):
    """Overwrite ``u`` with the standard normal quantiles of its entries,
    and return it.

    ``u`` is a C-contiguous float64 array with entries in (0, 1]; 1 is
    read as 1 - 2^-53, the largest double below it.  This is Wichura's
    AS241 with the coefficients and operation order of
    ``statistics.NormalDist.inv_cdf``, so central entries
    (|u - 1/2| <= 0.425) are its bits exactly.
    """
    _quantiles(u.reshape(-1), np.empty((3, u.size)))
    return u


def _quantiles(u, work):
    """Overwrite the 1-d ``u`` with AS241's quantiles, using the rows of
    ``work``, a float64 (3, >= u.size) array, as scratch.

    The degree-7 central rational runs on every entry; the tail
    rationals only on the tail entries (|u - 1/2| > 0.425), gathered
    and scattered back.
    """
    q, r, num = work[:, :u.size]
    np.subtract(u, 0.5, q)
    np.multiply(q, q, r)
    np.subtract(0.180625, r, r)
    # r < 0 is exactly |q| > 0.425: both tests flip at the same point of
    # the 2^-54 grid that holds every u - 0.5 near 0.425.
    tail = (r < 0.0).nonzero()[0]
    u_tail = np.minimum(u[tail], 1.0 - 2.0**-53)  # u = 1, the top draw, has no quantile
    _horner(_CENTRAL[0], r, num)
    den = _horner(_CENTRAL[1], r, u)
    num *= q
    np.divide(num, den, u)
    # The tails: r = sqrt(-log min(u, 1 - u)) on the gathered entries.
    r = np.subtract(1.0, u_tail)
    np.minimum(u_tail, r, out=r)
    np.log(r, r)
    np.negative(r, r)
    np.sqrt(r, r)
    far = (r > 5.0).nonzero()[0]  # min(u, 1 - u) < e^-25
    r_far = r[far] - 5.0
    r -= 1.6
    num = _horner(_NEAR[0], r, np.empty_like(r))
    den = _horner(_NEAR[1], r, np.empty_like(r))
    num[far] = _horner(_FAR[0], r_far, np.empty_like(r_far))
    den[far] = _horner(_FAR[1], r_far, np.empty_like(r_far))
    num /= den
    u[tail] = np.copysign(num, u_tail - 0.5, num)


def _draw_normals(seed, first_step, out, scale):
    """Fill ``out``, a C-contiguous float64 (steps, N, m) array, with
    ``scale`` times the normals of fine steps first_step, first_step + 1, ...

    Consecutive draws are taken ``_BLOCK`` at a time, across step
    boundaries, made normals by ``inverse_normal_cdf``'s routine while
    they are in cache, and the block multiplied by ``scale`` once.
    """
    flat = out.reshape(-1)
    per_step = out[0].size
    step, left = first_step, per_step
    gen = np.random.Generator(philox(seed, step))
    work = np.empty((3, min(_BLOCK, flat.size)))
    for pos in range(0, flat.size, _BLOCK):
        block = flat[pos:pos + _BLOCK]
        filled = 0
        while filled < block.size:
            if not left:
                step += 1
                gen = np.random.Generator(philox(seed, step))
                left = per_step
            take = min(left, block.size - filled)
            # floor(w / 2^11) 2^-53 for the stream's next outputs w.
            gen.random(out=block[filled:filled + take])
            filled += take
            left -= take
        # u = (floor(w / 2^11) + 1/2) 2^-53, rounded to nearest even
        # (so the top draw gives u = 1).
        block += 2.0**-54
        _quantiles(block, work)
        block *= scale


def _chunk_steps(per_step):
    """Steps per chunk at ``per_step`` values each: _CHUNK_ELEMENTS of
    them, and at least one step."""
    return max(1, _CHUNK_ELEMENTS // per_step)


@dataclass
class BrownianPath:
    """Increments of an m-channel Brownian motion on a fixed grid.

    ``increment(k)[i, j]`` is the k-th step's increment for atom i,
    channel j; each entry is Normal(0, dt) marginally.  Steps are served
    from one window: ``_chunk[:_chunk_len]`` holds steps ``_chunk_start``
    onwards, and ``_held`` marks a window handed over by ``hold``.
    """

    seed: int
    n_steps: int
    dt: float
    N: int
    m: int
    level: int
    _chunk: np.ndarray = field(default=None, init=False, repr=False, compare=False)
    _chunk_start: int = field(default=0, init=False, repr=False, compare=False)
    _chunk_len: int = field(default=0, init=False, repr=False, compare=False)
    _held: bool = field(default=False, init=False, repr=False, compare=False)

    def increment(self, k):
        """Step ``k``'s increment, a read-only (N, m) view into the window.

        A plain path refills the window, overwriting the views it handed
        out, when ``k`` lies outside it.  A held path raises IndexError
        instead, as for a step outside the path.
        """
        if not 0 <= k < self.n_steps:
            raise IndexError("step %r outside a path of %d steps" % (k, self.n_steps))
        start = self._chunk_start
        if not start <= k < start + self._chunk_len:
            if self._held:
                raise IndexError("step %r outside the held window of steps %d..%d"
                                 % (k, start, start + self._chunk_len - 1))
            if self._chunk is None:
                steps = _chunk_steps((self.N * self.m) << self.level)
                self._chunk = np.empty((min(steps, self.n_steps), self.N, self.m))
            steps = len(self._chunk)
            start = k - k % steps
            count = min(steps, self.n_steps - start)
            # Empty until the fill returns, so an interrupted fill leaves
            # no window that claims its half-written steps.
            self._chunk_len = 0
            self._fill(start, self._chunk[:count])
            self._chunk_start, self._chunk_len = start, count
        view = self._chunk[k - start]
        view.flags.writeable = False
        return view

    def hold(self, start, block):
        """Serve steps ``start``, ``start + 1``, ... from ``block``, shape
        (count, N, m), and refuse every other step until the next hold.

        The caller fills ``block`` and may overwrite it once it hands
        over the next window.
        """
        self._chunk, self._chunk_start, self._chunk_len = block, start, len(block)
        self._held = True

    def _fill(self, start, out):
        """Draw steps start, start + 1, ... into ``out``, shape (count, N, m)."""
        per_step = 1 << self.level
        fine = out if self.level == 0 else np.empty((len(out) * per_step, self.N, self.m))
        _draw_normals(self.seed, start * per_step, fine, math.sqrt(self.dt / per_step))
        # A chunk starts on a step boundary, so every pair is the same
        # pair a whole tensor's passes would add.
        if self.level:
            coarsen(fine, out)


def coarsen(fine, out):
    """Sum the steps of ``fine`` pairwise into ``out`` and return it.

    ``fine`` has ``len(out) * 2**j`` steps, j >= 1; each of the j passes
    adds adjacent steps and halves the count, so out[k] sums fine steps
    k 2^j .. (k + 1) 2^j - 1 as a balanced tree.  A dyadic level's
    increments are exactly these sums of their finest draws.
    """
    while len(fine) > 2 * len(out):
        fine = fine[0::2] + fine[1::2]
    np.add(fine[0::2], fine[1::2], out=out)
    return out


def lockstep(seed, n_steps, dt, N, m, levels, width=None):
    """Walk ``levels`` nested dyadic paths over ``n_steps`` steps of ``dt``
    together, window by window.

    Level l is ``generate(seed, n_steps << l, dt / 2**l, N, m,
    level=levels - 1 - l)``: every level resolves the finest one's grid,
    and level l's steps are the pair sums of level l + 1's.  A window is
    as many whole level-0 steps as fit in one chunk at ``width`` values
    per atom and finest step (m by default), and at least one.  A caller
    that holds its own per-step values, such as recorded states of d
    values per atom, passes their count to bound those too.  A window's
    finest steps are drawn once, straight into a held block, and each
    coarser level's block is ``coarsen``-ed from the one below it.

    Yields ``(stop, ladder)`` per window: ``stop`` is the level-0 step
    the window ends at, and ``ladder[l]`` is level l's path, holding
    the window's steps, from the previous window's ``stop << l`` (0 for
    the first) up to ``stop << l``.  The blocks are overwritten by the
    next window, and a ladder path asked for a step outside its window
    raises IndexError.  Only the finest level is made by ``generate``,
    once; each coarser level is a ``BrownianPath`` that is only ever
    held, so it draws nothing.  A ``levels`` that is not a positive
    int, a ``width`` that is neither None nor one, or a grid that
    ``check_grid`` refuses raises InvalidEnsemble before anything is
    drawn.
    """
    if not (type(levels) is int and levels >= 1):
        raise InvalidEnsemble("levels must be a positive integer, got %r" % (levels,))
    if not (width is None or (type(width) is int and width >= 1)):
        raise InvalidEnsemble("width must be None or a positive integer, got %r" % (width,))
    top = levels - 1
    check_grid(n_steps, N, m, top)  # before n_steps << top is formed
    finest = generate(seed, n_steps << top, dt / (1 << top), N, m)
    ladder = [BrownianPath(seed, n_steps << lvl, dt / (1 << lvl), N, m, top - lvl)
              for lvl in range(top)] + [finest]
    span = _chunk_steps((N * max(m, width or m)) << top)
    blocks = [np.empty((min(span, n_steps) << lvl, N, m)) for lvl in range(levels)]
    for start in range(0, n_steps, span):
        stop = min(n_steps, start + span)
        for lvl in reversed(range(levels)):
            block = blocks[lvl][:(stop - start) << lvl]
            if lvl == top:
                ladder[top]._fill(start << top, block)
            else:
                coarsen(blocks[lvl + 1][:2 * len(block)], block)
            ladder[lvl].hold(start << lvl, block)
        yield stop, ladder


def check_grid(n_steps, N, m, level):
    """Raise InvalidEnsemble unless ``n_steps`` steps of ``N`` atoms x
    ``m`` channels, each of 2**level fine steps, may exist.

    The one grid rule: positive integer sizes, a ``level`` below 64,
    (n_steps << level) N m fine normals that ``np.intp`` can index, and
    one step's (N m << level) fine values in one float64 array, the
    least a fill holds (at level 0, one fine step).  Nothing is built.
    """
    if not (type(n_steps) is int and n_steps >= 1):
        raise InvalidEnsemble("n_steps must be a positive integer, got %r" % (n_steps,))
    if not (type(N) is int and N >= 1 and type(m) is int and m >= 1):
        raise InvalidEnsemble("N and m must be positive integers")
    if not (type(level) is int and level >= 0):
        raise InvalidEnsemble("level must be a non-negative integer, got %r" % (level,))
    if level >= 64 or (n_steps << level) * N * m > np.iinfo(np.intp).max:
        raise InvalidEnsemble("level %d makes more fine normals than an array can index" % level)
    if (N * m << level) > np.iinfo(np.intp).max // 8:
        raise InvalidEnsemble("one step at level %d has %d float64 values, more than one "
                              "array can hold" % (level, N * m << level))


def generate(seed, n_steps, dt, N, m, level=0):
    """Describe Brownian increments for ``n_steps`` steps of size ``dt``.

    Nothing is drawn here: ``increment(k)`` streams steps in bounded
    chunks.  The grid must pass ``check_grid``.

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
    if type(seed) is not int:
        raise InvalidEnsemble("seed must be an integer, got %r" % (seed,))
    check_grid(n_steps, N, m, level)
    if not (isinstance(dt, float) and math.isfinite(dt) and dt > 0):
        raise InvalidEnsemble("dt must be a positive finite real, got %r" % (dt,))
    return BrownianPath(seed=seed, n_steps=n_steps, dt=dt, N=N, m=m, level=level)
