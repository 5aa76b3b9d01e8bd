"""Monte Carlo trajectory ensembles for the three reset protocols.

A trajectory is a sequence of reset events; between events everything
is known in closed form, so the only stochastic ingredients are the
waiting times and, at finite N, the measured excitation counts.  The
per-trajectory state is tiny: the reset-origin density (thermodynamic
limit) or the integer count of up-origins (finite N), plus the time of
the last reset.  Observables on the sample grid are evaluated from the
closed-form free dynamics, never by time stepping.

Reproducibility contract: trajectory i draws its waiting times from a
counter-based stream keyed by (seed, i, 0), and its reset times are
their running sum, added left to right as a scalar walk would.  Only a
finite-N conditional protocol measures; it alone builds the stream
(seed, i, 1) and takes two measurement uniforms per reset from it.  A
reset uses both uniforms whatever it measures, but at an all-up or
all-down origin the engine computes only what the reset rule needs:
whether the measured density is <= 1/2, one comparison of a uniform with
a binomial cdf value, and protocol 3's stay-up count, drawn only where
the reset flips the origin.  The comparison seldom needs the flip
probability p = ratio sin^2(obar tau), whose sine costs more than all
the rest of it: the wait's phase falls in one of _PHASE_CELLS cells per
period of sin^2, and a cached per-drive table, read off the cdf table
over p (_cdf_bracket), brackets the cdf over the cell and one cell
either side.  The index is within 1/1000 of a cell of the rounded phase
sin would get, below _PHASE_FAR, so the bracket holds the exact cdf
value.  Only where the uniform falls inside the bracket (a few resets in
a thousand) or the index reaches _PHASE_FAR is p evaluated; the
comparison then reads the cdf table at p's own cell, and bounds the cdf
at p itself only where that bracket too leaves it open.  Protocol 3 also
evaluates p at the resets that flip an all-up origin, whose stay-up
counts need it.  Below all-up protocol 3 draws both counts in full.  A
count's search starts from a normal estimate, and one band of pmf terms
at the start bounds the cdf there and one or two steps either side.
The cdf that defines every comparison is scipy's bdtr, but the in-house
bounds (_cdf_band: the log-factorial pmf, a band toward the nearer tail
and a geometric bound on the rest, widened for their rounding and for
bdtr's) decide every comparison but those with u within their margin
(below 1e-9 relative at N = 201) of the cdf value, and scipy is imported
only for those and for more than _PMF_MAX_N spins.  No result
changes: every answer is that of the comparison with bdtr, and the
integer quantile does not depend on the search's start.
A stream (seed, i, kind) is a Philox stream whose key is
SeedSequence(entropy=seed, spawn_key=(i, kind)).generate_state(2,
uint64) and whose counter starts at 0, so its bytes are those of
numpy's own Generator(Philox(SeedSequence(...))).  A chunk derives all
its rows' keys in one vectorized pass of that hash and reads every row
through one Philox re-keyed per row.
None of these draws depends on the drive, so ensembles that differ only
in it (the rows of a sweep) share each chunk's schedule: run_ensembles
draws it once and replays it for every drive, and each drive's sums are
its own run_ensemble's bit for bit.  Chunks of CHUNK trajectories are
reduced independently (in the calling process and forked worker
processes) and combined in index order, so results are bitwise identical
for any worker count.  Changing CHUNK would change the rounding pattern
of the reduction (not the statistics), so it is a fixed constant, not a
knob.
A chunk applies its resets with t <= the last grid time for every drive,
and the record reads each grid point's origins and last reset times by
index.  In the thermodynamic limit step k applies every row's k-th reset.
At finite N an all-up origin is a regeneration point, so every reset's
all-up outcome is decided at once; protocol 2 then needs no loop, and
protocol 3 steps only the rows below all-up, one reset per wave.  A reset
is the same elementwise computation in any batch, so no bit moves.
A chunk records every drive's rows at a grid time in one pass; the
density and two-point sums are numpy's sums over each drive's rows.
Each pair-state entry sums the terms (w a_ij) b_kl of w kron(a, b) over
the rows left to right, every complex product written out on floats, as
a per-drive einsum("n,nij,nkl->ikjl", w, a, b) sums them; the
reference simulator in tests/ keeps that einsum as the oracle.  At
finite N the four origin blocks are added in the order up-up, up-down,
down-up, down-down.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np
# with the package: numpy would import numpy.random (about 12 ms) inside the first ensemble
from numpy.random import Generator, Philox

from .finite_size import _check_n, _log_factorials
from .renewal import ProtocolKind, WaitingTime, _fourier_weight, waiting_time_from_uniform
from .spin_dynamics import DriveParams, _coherence_re

CHUNK = 1024
WAIT_BLOCK = 64
MAX_FIRST_WAIT_BLOCK = 2**27  # waiting times (1 GiB) a chunk may draw in its first block
SLAB_ROWS = 64
SCAN_PAIRS = 2**15  # about this many (drive, reset) pairs make one slab of a finite-N scan
# the all-up majority test's cdf table: cells in q (a power of two), and the relative
# slack of its bdtr values above _PMF_MAX_N
_CDF_CELLS = 4096
_CDF_MARGIN = 1e-7
# the majority tests' phase cells: cells per period pi of sin^2 (a power of two), and the
# index from which a cell is not trusted
_PHASE_CELLS = 2**13
_PHASE_FAR = 2**40
# the in-house cdf bounds (_cdf_band) up to this n, bdtr above it; bdtr's relative rounding
# up to it, with room (a test puts it below 6e-11 up to n = 10**4)
_PMF_MAX_N = 2**12
_BDTR_ERROR = 1e-10
_BAND_BLOCK = 2**14  # a _cdf_band of at most this many terms in all is built as one block

_WAIT_STREAM = 0
_MEASURE_STREAM = 1

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
_PHILOX_BLOCK = 4  # uint64 outputs per Philox counter value


@dataclass(frozen=True)
class SimConfig:
    """Description of one Monte Carlo campaign; every run is built from one, so it
    refuses a drive whose Rabi frequency hypot(omega, delta) is not finite."""

    protocol: ProtocolKind
    params: DriveParams
    dist: WaitingTime
    observation_time: float
    sample_grid: tuple
    n_trajectories: int
    seed: int
    n_spins: Optional[int] = None  # None means thermodynamic limit
    workers: int = 1
    # grid times in [lo, hi] additionally feed per-trajectory time
    # averages (quasi-stationary estimators with honest standard errors)
    average_window: Optional[tuple] = None

    def __post_init__(self):
        p = self.params
        if not math.isfinite(p.effective_rabi):
            raise ValueError(f"omega = {p.omega:g}, delta = {p.delta:g}: the Rabi frequency "
                             "hypot(omega, delta) is not finite")
        if not (0.0 < self.observation_time < np.inf):
            raise ValueError(f"observation_time must be finite and > 0, got {self.observation_time}")
        grid = tuple(float(t) for t in self.sample_grid)
        object.__setattr__(self, "sample_grid", grid)
        if len(grid) == 0:
            raise ValueError("sample_grid must not be empty")
        if any(b < a for a, b in zip(grid, grid[1:])):
            raise ValueError("sample_grid must be sorted ascending")
        if grid[0] < 0.0 or grid[-1] > self.observation_time:
            raise ValueError("sample_grid must lie within [0, observation_time]")
        if self.n_trajectories < 1:
            raise ValueError(f"n_trajectories must be >= 1, got {self.n_trajectories}")
        try:
            seed = operator.index(self.seed)  # 1.5, -0.5 and "3" are no seeds
        except TypeError:
            seed = None
        if seed is None or not (0 <= seed < 2**64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        object.__setattr__(self, "seed", seed)
        if self.n_spins is not None:
            object.__setattr__(self, "n_spins", _check_n(self.n_spins))
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.average_window is not None:
            lo, hi = (float(x) for x in self.average_window)
            object.__setattr__(self, "average_window", (lo, hi))
            if lo > hi:
                raise ValueError(f"average_window {self.average_window} has lo > hi")
            if not (0.0 <= lo and hi <= self.observation_time):
                raise ValueError(f"average_window {self.average_window} outside [0, T]")
            if not any(lo <= t <= hi for t in grid):
                raise ValueError("average_window contains no sample_grid points")

    def window_indices(self) -> np.ndarray:
        if self.average_window is None:
            return np.array([], dtype=np.int64)
        lo, hi = self.average_window
        grid = np.asarray(self.sample_grid)
        return np.nonzero((grid >= lo) & (grid <= hi))[0]


# _moment_stats' statistics, in order: EnsembleStats fields; "window_" + name is the window's
STAT_FIELDS = ("density", "density_stderr", "two_point", "two_point_stderr",
               "correlation", "correlation_stderr")


@dataclass
class EnsembleStats:
    """Grid-time averages of an ensemble with their standard errors.

    Standard errors are sample standard deviation / sqrt(n_trajectories)
    (ddof=1).  The correlation row is the plug-in estimate
    mean(two_point) - mean(density)^2 with a delta-method error.
    chunk_window_pair_means keeps each chunk's mean window pair state, so
    callers can attach batch-means errors to spectral quantities of the
    mean state (the discord measure has no per-trajectory estimator).
    """

    config: SimConfig
    times: np.ndarray
    density: np.ndarray
    density_stderr: np.ndarray
    two_point: np.ndarray
    two_point_stderr: np.ndarray
    correlation: np.ndarray
    correlation_stderr: np.ndarray
    pair_states: np.ndarray
    chunk_counts: np.ndarray
    n_trajectories: int
    wall_time: float
    # present only when config.average_window is set
    window_density: Optional[float] = None
    window_density_stderr: Optional[float] = None
    window_two_point: Optional[float] = None
    window_two_point_stderr: Optional[float] = None
    window_correlation: Optional[float] = None
    window_correlation_stderr: Optional[float] = None
    window_pair: Optional[np.ndarray] = None
    chunk_window_pair_means: Optional[np.ndarray] = None


def _seed_sequence_words(x: int) -> list:
    """SeedSequence's coercion of an int >= 0: little-endian uint32 words."""
    words = [x & _MASK32]
    while x > _MASK32:
        x >>= 32
        words.append(x & _MASK32)
    return words


def _philox_keys(entropy: list) -> np.ndarray:
    """(rows, 2) keys that Philox(SeedSequence) draws from each row's entropy.

    entropy is a list of at least _POOL_SIZE uint32 arrays, word by word,
    each of shape (rows,) or (1,) for a word every row shares.  This is
    SeedSequence's mix_entropy followed by generate_state(2, uint64),
    with every uint32 operation applied to all rows at once; the hash
    constants do not depend on the data, so they stay Python ints, and
    the shared words are mixed once.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(_XSHIFT))

    def mix(x, y):
        value = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return value ^ (value >> np.uint32(_XSHIFT))

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    out = []
    for value in pool:  # generate_state: 4 uint32 words, read as 2 uint64
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        out.append((value ^ (value >> np.uint32(_XSHIFT))).astype(np.uint64))
    return np.column_stack([out[0] | out[1] << np.uint64(32),
                            out[2] | out[3] << np.uint64(32)])


def _trajectory_streams(seed: int, index: np.ndarray, kind: int) -> np.ndarray:
    """(rows, 2) Philox keys of the streams (seed, i, kind), i in index.

    Row r is the key of Philox(SeedSequence(entropy=seed, spawn_key=(i,
    kind))), bit for bit.  The entropy is assembled as SeedSequence does
    it: the seed's words padded with zeros to the pool size, then i's
    words (two from 2**32 on) and kind's.
    """
    index = np.asarray(index, dtype=np.uint64)
    run = _seed_sequence_words(seed)
    run += [0] * (_POOL_SIZE - len(run))
    lo = (index & np.uint64(_MASK32)).astype(np.uint32)
    hi = (index >> np.uint64(32)).astype(np.uint32)
    shared = [np.array([w], dtype=np.uint32) for w in run]
    tail = np.array([kind], dtype=np.uint32)
    keys = np.empty((index.size, 2), dtype=np.uint64)
    for rows, spawn in ((hi == 0, (lo,)), (hi > 0, (lo, hi))):
        if rows.any():
            keys[rows] = _philox_keys(shared + [w[rows] for w in spawn] + [tail])
    return keys


class _RowStreams:
    """The streams of one kind for a chunk's rows, read through one Philox.

    Philox makes its outputs four at a time: draw j of a stream is word
    j % 4 of the block at counter j // 4 + 1, and a fresh stream has
    counter 0 and no buffered words.  fill sets the row's key and counter
    skip // 4, so for skip a multiple of 4 the row continues exactly where
    an earlier fill of `skip` values stopped.  Each chunk owns its own
    instance, whichever process runs it.
    """

    def __init__(self, keys: np.ndarray):
        self.keys = keys
        self.bit_generator = Philox(key=0)
        self.generator = Generator(self.bit_generator)
        self.state = self.bit_generator.state

    def fill(self, row: int, out: np.ndarray, skip: int = 0):
        """out <- uniforms skip, skip + 1, ... of the row's stream; skip is whole Philox blocks."""
        self.state["state"]["key"] = self.keys[row]
        self.state["state"]["counter"] = (skip // _PHILOX_BLOCK, 0, 0, 0)
        self.bit_generator.state = self.state  # buffer_pos stays 4: nothing buffered
        self.generator.random(out=out)


def bdtr(k, n, p):
    """scipy.special.bdtr, the binomial cdf that defines every finite-N comparison.

    The in-house bounds (_cdf_band) decide nearly every comparison; this
    runs only for those they leave open and for n above _PMF_MAX_N, so
    scipy is imported on the first such comparison, not with the package.
    """
    from scipy.special import bdtr as scipy_bdtr

    return scipy_bdtr(k, n, p)


def bdtrik(y, n, p):
    """scipy.special.bdtrik, unused; the name stays as a perfbench/layers.py trace target."""
    from scipy.special import bdtrik as scipy_bdtrik

    return scipy_bdtrik(y, n, p)


def _normal_quantile(m):
    """|z| with Phi(-|z|) = m to within 3e-3, for 0 < m <= 1/2 (Abramowitz & Stegun 26.2.22)."""
    t = np.sqrt(-2.0 * np.log(m))
    return t - (2.30753 + 0.27061 * t) / (1.0 + t * (0.99229 + 0.04481 * t))


def _cdf_band(k, n, p, sigmas: float):
    """The pmf t at k and relative sums toward the nearer tail, for 0 < p < 1 and n <= _PMF_MAX_N.

    Returns (t, lower, first, rest, rem, back, margin), t the pmf from the
    log-factorial table.  Where lower (k < ceil(n p)) the band runs down
    from k, so F(k) = t (1 + first + rest + r), else up, so 1 - F(k) =
    t (first + rest + r): first is the pmf one step along over t, rest the
    sum of the band's further terms and 0 <= r <= rem the rest of the
    tail; back is the pmf one step the other way over t.  The band
    reaches `sigmas` standard deviations of the widest binomial.  Each
    term is the one before times the pmf ratio ((a - i) / (b + i)) x, with
    (a, b, x) = (k, n + 1 - k, q / p) down and (n - k, k + 1, p / q) up,
    and the ratio falls along the band: the direction makes the first one
    at most n p / (n p + 1) < 1, so the terms past the band are at most the
    last times the geometric series of the next ratio.  A band that
    reaches the end of the support has ratio 0 there and rem = 0.  A
    subnormal p overflows x, and the NaN that makes decides nothing.

    margin is the relative slack a bound needs for its own rounding and
    for bdtr's (_BDTR_ERROR): the log pmf adds terms of magnitude up to
    2 log n! + 745 n (|log p| <= 745), each within a few ulp, and the
    band's sums round by less than 1e-12.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        top = int(n.max(initial=0))
        width = int(0.5 * sigmas * math.sqrt(top)) + 2  # sigma <= sqrt(n) / 2
        lf = _log_factorials(top)
        margin = _BDTR_ERROR + 1e-12 + 4e-15 * (2.0 * lf[top] + 745.0 * top)
        m = n - k
        t = np.exp(lf[n] - lf[k] - lf[m] + k * np.log(p) + m * np.log1p(-p))
        lower = k < np.ceil(n * p)
        q = 1.0 - p
        x = np.where(lower, q / p, p / q)
        a = np.where(lower, k, m).astype(float)
        b = (n + 1) - a
        back = (b - 1.0) / ((a + 1.0) * x)
        if a.size * width <= _BAND_BLOCK:  # few elements: every ratio at once
            i = np.arange(width + 1.0)[:, None]
            ratio = a - i
            ratio /= b + i
            ratio *= x
            term = np.cumprod(ratio[:width], axis=0)
            first, rest, term, ratio = term[0], term[1:].sum(axis=0), term[-1], ratio[-1]
        else:  # many: one pass over the elements per term
            ratio = a / b
            ratio *= x
            first, term, rest = ratio.copy(), ratio.copy(), np.zeros_like(ratio)
            for j in range(width):  # the last ratio leads past the band
                a -= 1.0
                b += 1.0
                np.divide(a, b, out=ratio)
                ratio *= x
                if j < width - 1:
                    term *= ratio
                    rest += term
        return t, lower, first, rest, term * ratio / (1.0 - ratio), back, margin


def _cdf_bounds(k, n, p):
    """(lo, hi) with lo <= bdtr(k, n, p) <= hi, from a _cdf_band, for 0 < p < 1 and n <= _PMF_MAX_N.

    The exact cdf lies in the band's range; the band's margin covers its
    rounding and again bdtr's, and the smallest normal float bdtr's
    absolute rounding of a subnormal value.  Where the band runs up,
    F = 1 - t (...) >= 1/2, so its margin is relative to F too.
    """
    t, lower, first, rest, rem, _, margin = _cdf_band(k, n, p, 9.0)
    s = first + rest
    s = np.where(lower, s + 1.0, s)
    low, high = t * s, t * (s + rem)
    low, high = (np.where(lower, low, 1.0 - high * (1.0 + margin)),
                 np.where(lower, high, 1.0 - low * (1.0 - margin)))
    tiny = np.finfo(float).tiny
    return low * (1.0 - margin) - tiny, high * (1.0 + margin) + tiny


def _cdf_at_least(k, n, p, u):
    """bdtr(k, n, p) >= u elementwise, for 0 <= k <= n: by _cdf_bounds, else by bdtr."""
    at_least = np.zeros(u.shape, dtype=bool)
    open_ = (n > _PMF_MAX_N) | ~((p > 0.0) & (p < 1.0))
    inside = np.nonzero(~open_)[0]
    if inside.size:
        lo, hi = _cdf_bounds(k[inside], n[inside], p[inside])
        at_least[inside] = u[inside] <= lo
        open_[inside] = ~(at_least[inside] | (u[inside] > hi))  # a NaN bound leaves it open
    if open_.any():
        at_least[open_] = bdtr(k[open_].astype(float), n[open_], p[open_]) >= u[open_]
    return at_least


def binomial_quantile(u, n, p):
    """Smallest k with bdtr(k, n, p) >= u, vectorized, mostly without bdtr.

    The search starts from the Cornish-Fisher normal estimate
    n p + sd z + (1 - 2p)(z^2 - 1)/6, z the normal quantile of u to within
    3e-3 (0 or n at u = 0 or 1), rounded and clipped to [0, n]
    (Kachitvichyanukul & Schmeiser, CACM 1988).  It then walks down while
    the cdf one below still reaches u, then up while the cdf falls short of
    it.  One _cdf_band at the start bounds the cdf at start - 2 to start + 1,
    which settles a walk of at most one step for nearly every element;
    the rest (a start two or more off, u within the band's margin of a cdf
    value, n above _PMF_MAX_N) walk by _cdf_at_least, whose open
    comparisons call bdtr.  Every comparison is bdtr's, so every answer is
    that of the walk by bdtr comparisons alone, and the start sets only the
    cost.
    """
    scalar = np.ndim(u) == 0 and np.ndim(n) == 0 and np.ndim(p) == 0
    u = np.atleast_1d(np.asarray(u, dtype=float))
    n = np.atleast_1d(np.asarray(n))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    u, n, p = np.broadcast_arrays(u, n, p)
    inside = (n > 0) & (p > 0.0) & (p < 1.0)
    if inside.all():  # the common case: no element to set aside
        k = _search(u.ravel(), n.ravel(), p.ravel()).reshape(u.shape)
    else:
        k = np.zeros(u.shape, dtype=np.int64)
        full = (n > 0) & (p >= 1.0)
        k[full] = n[full]
        if inside.any():
            k[inside] = _search(u[inside], n[inside], p[inside])
    return int(k[0]) if scalar else k


def _search(u, n, p):
    """binomial_quantile for n > 0 and 0 < p < 1.

    The band at the start k gives X_i, i = 0..3: F(k - 2 + i) where it
    runs down, 1 - F(k + 1 - i) where it runs up, each in t (c_i + [0,
    rem]) for c = (rest, s, s + 1, s + 1 + back), s = first + rest.  With
    v = u (down) or 1 - u (up), c_i t (1 - d) > v + e makes X_i > v
    certain for bdtr too, and (c_i + rem) t (1 + d) < v - e makes X_i < v
    certain, d the band's margin, e the smallest normal float (down) or d
    (up, which also covers 1 - u's rounding), as _cdf_bounds widens its
    bounds; a NaN settles nothing.  Down, F(k - 2 + i) < u is X_i < v; up,
    F(k + 1 - i) < u is X_i > v.  The answer lies in [k - 1, k + 1] when
    F(k - 2) < u <= F(k + 1) and the two comparisons between are certain,
    which in both directions reads X_0 < v, X_3 > v, and X_1 and X_2 each
    certainly above or below v; then X_1 and X_2 below v step the answer
    from k - 1 up (down) or from k + 1 down (up).
    """
    m = np.minimum(u, 1.0 - u)
    z = np.copysign(_normal_quantile(np.maximum(m, np.finfo(float).tiny)), u - 0.5)
    mean = n * p
    guess = mean + np.sqrt(mean * (1.0 - p)) * z + (1.0 - 2.0 * p) * (z * z - 1.0) / 6.0
    guess = np.where(m > 0.0, guess, np.where(u > 0.5, n, 0))
    k = np.rint(np.minimum(np.maximum(guess, 0), n)).astype(np.int64)
    walk = n > _PMF_MAX_N  # above the cap bdtr decides every comparison
    near = np.nonzero(~walk)[0] if walk.any() else slice(None)
    uk, nk, pk, kk = u[near], n[near], p[near], k[near]
    t, lower, first, rest, rem, back, margin = _cdf_band(kk, nk, pk, 4.5)
    e = np.where(lower, np.finfo(float).tiny, margin)
    v = np.where(lower, uk, 1.0 - uk)
    above, below = v + e, v - e  # X_i > v: c_i t_lo > above; X_i < v: (c_i + rem) t_hi < below
    t_lo, t_hi = t * (1.0 - margin), t * (1.0 + margin)
    s = first + rest
    s_rem = s + rem
    one_below, two_below = s_rem * t_hi < below, (s_rem + 1.0) * t_hi < below
    settled = (((rest + rem) * t_hi < below) & ((s + (1.0 + back)) * t_lo > above)
               & (one_below | (s * t_lo > above)) & (two_below | ((s + 1.0) * t_lo > above)))
    steps = one_below.astype(np.int64) + two_below
    k[near] = np.where(settled, np.where(lower, kk - 1 + steps, kk + 1 - steps), kk)
    walk[near] = ~settled
    if not walk.any():
        return k
    start = k.copy()
    i = np.nonzero(walk & (k > 0))[0]
    while i.size:
        i = i[_cdf_at_least(k[i] - 1, n[i], p[i], u[i])]
        k[i] -= 1
        i = i[k[i] > 0]
    i = np.nonzero(walk & (k == start) & (k < n))[0]
    while i.size:
        i = i[~_cdf_at_least(k[i], n[i], p[i], u[i])]
        k[i] += 1
        i = i[k[i] < n[i]]
    return k


@lru_cache(maxsize=16)
def _cdf_bracket(h: int, n: int):
    """(lo, hi): for q in cell j = floor(q * _CDF_CELLS), lo[j] <= bdtr(h, n, q) <= hi[j].

    bdtr(h, n, q) falls as q rises (0 <= h < n), so on [j/M, (j+1)/M] it
    lies between the cdf's bounds (_cdf_bounds) at the two ends, which hold
    bdtr's rounding too; for n above _PMF_MAX_N the ends are bdtr's own
    values, widened by _CDF_MARGIN (bdtr's rounding is below 6e-11 up to
    n = 10**6).  Cell M, q = 1, holds -1: the quantile is then n > h,
    whatever u.  Its M + 1 end points are all the majority tests' brackets
    cost: _quantile_at_most reads it at q's own cell, and _phase_brackets
    reads it over the range of cells a phase cell can reach.
    """
    q = np.arange(1, _CDF_CELLS) / _CDF_CELLS
    if n > _PMF_MAX_N:
        table = bdtr(h, n, q)
        lo, hi = table * (1.0 - _CDF_MARGIN), table * (1.0 + _CDF_MARGIN)
    else:
        lo, hi = _cdf_bounds(np.full(q.size, h), np.full(q.size, n), q)
    bracket = (np.concatenate([lo, [0.0, -1.0]]),  # q = 1 and the cell past it
               np.concatenate([[1.0 + _CDF_MARGIN], hi, [-1.0]]))  # q = 0 and the cell past 1
    for side in bracket:  # cached: every caller reads the same arrays
        side.flags.writeable = False
    return bracket


def _quantile_at_most(u, n: int, q, h: int):
    """binomial_quantile(u, n, q) <= h for 0 <= h < n, decided from one cdf value.

    The quantile is the smallest k with bdtr(k, n, q) >= u, and bdtr
    does not decrease in k, so it is <= h exactly when u <= bdtr(h, n, q).
    A table over q (_cdf_bracket) brackets that cdf value, and only where
    u falls inside the bracket does _cdf_at_least decide it, at q itself;
    every answer is still that of the comparison with bdtr.  For q >= 1
    binomial_quantile returns n outright, even at u = 0, and the table's
    last cell says no.  The finite-N scan calls it, with the exact q, only
    for the resets its phase cells leave open (_majority_tests).
    """
    lo, hi = _cdf_bracket(h, n)
    u, q = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(q, dtype=float))
    j = (np.minimum(np.maximum(q, 0.0), 1.0) * _CDF_CELLS).astype(np.intp)  # exact: 2^12
    at_most = u <= lo[j]
    undecided = (u <= hi[j]) != at_most  # lo <= hi: at_most implies u <= hi
    if undecided.any():  # rare, and nonzero is slow on a large 2-d mask
        undecided = np.nonzero(undecided)
        size = u[undecided].size
        at_most[undecided] = _cdf_at_least(np.full(size, h), np.full(size, n), q[undecided],
                                           u[undecided])
    return at_most


@lru_cache(maxsize=1)
def _phase_brackets(ratios: tuple, n: int) -> np.ndarray:
    """(4, drives * M) read-only cdf brackets over phase cells, M = _PHASE_CELLS / 2.

    Entry d * M + c holds, for drive d (p = ratios[d] * sin^2) and a
    phase in folded cell c, the lo and hi of bdtr(h, n, 1 - p), then the
    lo and hi of bdtr(h, n, p), h = (n - 1) // 2.  sin^2 has period pi
    and mirrors about pi / 2, so cell c of a period and cell
    _PHASE_CELLS - 1 - c fold onto the same c < M.  Over cells c - 1 to
    c + 1 (one wider on each side) sin^2 lies between its values at their
    outer edges, or 0 and 1 where they pass 0 or pi / 2.  A phase in cell
    c by _majority_tests' index is within 1/1000 of a cell of it, so it
    keeps nearly a cell from those edges: at least 4e-7 in sin^2, where
    sin and the squares round by about 1e-16.  Times ratio and clipped at
    1 as _flip_probability rounds and clips, the edge values bound the
    rounded p, and so the _cdf_bracket cells that q = 1 - p and p can
    read.  bdtr falls in q, so a bracket's lo is the table's lo at the
    top cell of that range and its hi the table's hi at the bottom one.
    No cdf is evaluated beyond _cdf_bracket's table.
    """
    cells = _PHASE_CELLS // 2
    s2 = np.sin(np.arange(cells + 1) * (np.pi / _PHASE_CELLS)) ** 2  # at the cell edges
    s2[-1] = 1.0  # pi / 2, however sin rounds there
    c = np.arange(cells)
    s2_lo, s2_hi = s2[np.maximum(c - 1, 0)], s2[np.minimum(c + 2, cells)]
    lo, hi = _cdf_bracket((n - 1) // 2, n)
    tables = np.empty((4, len(ratios), cells))
    for d, ratio in enumerate(ratios):
        p_lo, p_hi = (np.minimum(ratio * s, 1.0) for s in (s2_lo, s2_hi))
        at = [(x * _CDF_CELLS).astype(np.intp) for x in (1.0 - p_lo, 1.0 - p_hi, p_hi, p_lo)]
        tables[:, d] = lo[at[0]], hi[at[1]], lo[at[2]], hi[at[3]]
    tables = tables.reshape(4, -1)
    tables.flags.writeable = False  # cached: every caller reads the same array
    return tables


def _majority_tests(n: int, obar, ratio, tau, u_up, u_down=None):
    """What each reset tau after the last makes of an all-up origin, and of an all-down one.

    (drives, resets) masks of _quantile_at_most(u_up, n, q, h) (an all-up
    origin measures at most h up) and, given u_down, of
    _quantile_at_most(u_down, n, p, h) (an all-down one does), else None,
    with p = _flip_probability(obar, ratio, tau), q = 1 - p and
    h = (n - 1) // 2; obar and ratio are (drives, 1) columns.  A pair reads
    its bracket from _phase_brackets at the cell floor(x) of
    x = fl(tau obar) * fl(_PHASE_CELLS / pi): fl(tau obar) is the phase
    _flip_probability passes to sin, so x is within 3 ulp of that phase in
    cells, which below _PHASE_FAR is under 1/1000 of a cell, and the
    bracket, one cell wider on each side, holds the cdf value that
    _quantile_at_most compares with.  Only where u lies inside its bracket,
    or the index would be _PHASE_FAR or more or is not finite, are p and
    _quantile_at_most evaluated, so every answer is _quantile_at_most's.
    """
    cells = _PHASE_CELLS // 2
    phase = tau * obar  # as _flip_probability rounds it
    limit = _PHASE_FAR * np.pi / _PHASE_CELLS  # no overflow below it, nor inf or NaN to cast
    far = None if phase.max(initial=0.0) < limit else ~(phase < limit)  # NaN is far
    if far is not None:
        phase = np.where(far, 0.0, phase)
    cell = (phase * (_PHASE_CELLS / np.pi)).astype(np.intp)
    cell &= _PHASE_CELLS - 1
    np.minimum(cell, _PHASE_CELLS - 1 - cell, out=cell)  # folded onto [0, pi / 2]
    cell += np.arange(0, len(obar) * cells, cells)[:, None]  # each drive's own table
    tables = _phase_brackets(tuple(ratio[:, 0].tolist()), n)
    sides = [u for u in (u_up, u_down) if u is not None]
    tests, pairs = [], []
    for side, u in enumerate(sides):
        at_most = u <= np.take(tables[2 * side], cell)
        undecided = (u <= np.take(tables[2 * side + 1], cell)) != at_most
        if far is not None:
            undecided |= far
        tests.append(at_most)
        # rare; nonzero is slow on a 2-d mask
        pairs.append(np.flatnonzero(undecided) if undecided.any() else np.zeros(0, np.intp))
    if sum(o.size for o in pairs):  # both sides' open pairs in one p and one cdf test
        up = pairs[0].size
        d, j = np.divmod(np.concatenate(pairs), tau.size)
        p = _flip_probability(obar[d, 0], ratio[d, 0], tau[j])
        p[:up] = 1.0 - p[:up]  # an all-up origin stays up with q = 1 - p
        u = np.concatenate([u[part] for u, part in zip(sides, np.split(j, [up]))])
        at_most = _quantile_at_most(u, n, p, (n - 1) // 2)
        for test, o, part in zip(tests, pairs, np.split(at_most, [up])):
            test.flat[o] = part
    return tests + [None] * (2 - len(tests))


# ---------------------------------------------------------------------------
# Closed-form observables of a chunk's rows at age s after their last reset.
# Every array is (drives, rows); a drive's per-drive constants are (drives, 1)
# columns.
# ---------------------------------------------------------------------------


def _phase_terms(obar: np.ndarray, ratio: np.ndarray, s: np.ndarray):
    """flip probability p = ratio * sin^2(obar s), sin^2 and sin*cos of the Rabi phase.

    ratio = (omega / obar)^2, and 0 where obar = 0, so such a drive has
    p = sin^2 = sin*cos = 0.
    """
    phase = obar * s
    sin = np.sin(phase)
    s2 = sin * sin
    return ratio * s2, s2, sin * np.cos(phase)


# The pair state of a grid point is sum_n w_n kron(a_n, b_n) over a chunk's
# rows n, summed as einsum("n,nij,nkl->ikjl", w, a, b) sums it: each
# entry left to right over n, of (w a_ij) b_kl with every complex product
# written out on floats (re = xr yr - xi yi, im = xr yi + xi yr) and w
# entering as w + 0j.  a and b are qubit states [[u, c], [c*, p]] (the up
# branch) or [[p, -c], [-c*, u]] (the down branch), so, up to an exact sign,
# each term is one of 16 real per-row columns of (w x) y, x and y in
# {u, p, cr, ci}.  They are summed with np.add.accumulate, which adds left
# to right as einsum does, and sign flips of a sum are exact.  accumulate
# starts from the first term where einsum starts from +0.0, which changes
# only the sign of a zero sum; added to the accumulator, which starts at
# +0.0, both give the same bits.  (numpy's complex multiply may fuse a
# multiply-add, so it cannot stand in for the written-out products.)
#
# The branches as (symbol, sign) per entry 2i + j, symbols in (u, c, c*, p)
# order, so that the up branch's entry 2i + j is symbol 2i + j.
_UP = np.arange(4), np.ones(4)
_DOWN = np.array([3, 1, 2, 0]), np.array([1.0, -1.0, -1.0, 1.0])


def _kron_layout(left, right):
    """Symbol product (4 x + y, flattened) and sign of each kron(a, b) entry.

    Entry (2i + k, 2j + l) of kron(a, b) is a_ij b_kl.
    """
    i, k, j, l = np.indices((2, 2, 2, 2)).reshape(4, 4, 4)
    x, y = 2 * i + j, 2 * k + l
    return 4 * left[0][x] + right[0][y], left[1][x] * right[1][y]


_UP_UP = _kron_layout(_UP, _UP)
_FINITE_BLOCKS = (_UP_UP, _kron_layout(_UP, _DOWN), _kron_layout(_DOWN, _UP),
                  _kron_layout(_DOWN, _DOWN))


def _row_sum(column: np.ndarray) -> np.ndarray:
    """Sums of a (..., rows) column over its rows, left to right."""
    return np.add.accumulate(column, axis=-1, out=column)[..., -1].copy()


def _symbol_products(w, u, p, cr, ci) -> np.ndarray:
    """(..., drives, 16): sum over rows of (w x) y for x, y in (u, c, c*, p), at 4 x + y.

    u, p, cr and ci are (drives, rows); w is (..., drives, rows), one
    weight per leading index, or None for unit weights, which einsum's
    w * x leaves exact; then x y = y x, and six of the 16 columns repeat
    others or vanish.
    """
    if w is None:
        wu, wp, wr, wi = u, p, cr, ci
    else:
        wu, wp, wr, wi = w * u, w * p, w * cr, w * ci
    uu, up, pp = _row_sum(wu * u), _row_sum(wu * p), _row_sum(wp * p)
    ucr, uci, pcr, pci = _row_sum(wu * cr), _row_sum(wu * ci), _row_sum(wp * cr), _row_sum(wp * ci)
    cc_re, cc_im = _row_sum(wr * cr - wi * ci), _row_sum(wr * ci + wi * cr)
    cn_re = _row_sum(wr * cr + wi * ci)
    zero = np.zeros_like(uu)
    if w is None:
        pu, cru, ciu, crp, cip, cn_im = up, ucr, uci, pcr, pci, zero
    else:
        pu, cru, ciu, crp, cip = (_row_sum(a * b) for a, b in
                                  ((wp, u), (wr, u), (wi, u), (wr, p), (wi, p)))
        cn_im = _row_sum(wi * cr - wr * ci)
    out = np.empty(uu.shape + (16,), dtype=complex)
    out.real = np.stack([uu, ucr, ucr, up, cru, cc_re, cn_re, crp,
                         cru, cn_re, cc_re, crp, pu, pcr, pcr, pp], axis=-1)
    out.imag = np.stack([zero, uci, -uci, zero, ciu, cc_im, cn_im, cip,
                         -ciu, -cn_im, -cc_im, -cip, zero, pci, -pci, zero], axis=-1)
    return out


def _pair_block(products, layout) -> np.ndarray:
    """(drives, 4, 4) sum of w kron(a, b), from _symbol_products and a _kron_layout."""
    index, sign = layout
    return products[..., index] * sign


def _accumulate_scalars(moments, d, x):
    """Add each drive's row sums of d, d^2, x, x^2 and d x to moments (drives, 5)."""
    for m, v in enumerate((d, d * d, x, x * x, d * x)):
        moments[:, m] += v.sum(axis=1)


# ---------------------------------------------------------------------------
# Vectorized chunk engine.
# ---------------------------------------------------------------------------


def _new_accumulators(drives: int, points: int) -> dict:
    """Zero sums of one chunk: moments (drives, points + 1, 5), the last column the window's."""
    return {"moments": np.zeros((drives, points + 1, 5)),
            "pair": np.zeros((drives, points, 4, 4), dtype=complex)}


def _expected_resets(dist: WaitingTime, horizon: float) -> float:
    return horizon / _fourier_weight(dist, 0.0).real


def _initial_wait_capacity(dist: WaitingTime, horizon: float) -> int:
    expect = _expected_resets(dist, horizon)
    return int(expect + 6.0 * np.sqrt(expect) + 8.0)


def _check_first_wait_block(dist: WaitingTime, horizon: float, rows: int):
    """ValueError where a chunk of `rows` would draw over MAX_FIRST_WAIT_BLOCK waits at once."""
    expect = _expected_resets(dist, horizon)
    # the first test keeps an infinite expectation away from int()
    if (rows * expect >= MAX_FIRST_WAIT_BLOCK
            or rows * _initial_wait_capacity(dist, horizon) > MAX_FIRST_WAIT_BLOCK):
        raise ValueError(
            f"about {expect:.4g} resets per trajectory by t = {horizon:g}: a chunk of "
            f"{rows} trajectories would draw over {MAX_FIRST_WAIT_BLOCK} waiting times at "
            "once; shorten the time or lower the reset rate")


def _reset_times(dist: WaitingTime, streams: _RowStreams, t_end: float) -> np.ndarray:
    """Each stream's running sum of waits, up to its first reset after t_end.

    A row still short of t_end continues its own stream and its own sum
    in further blocks, so every entry is the same left-to-right sum
    however the draws are blocked.  Every block is whole Philox blocks
    (WAIT_BLOCK is), so a row resumes its stream at a block boundary.
    Entries past a row's last reset are +inf.
    """
    resets, block = None, -(-_initial_wait_capacity(dist, t_end) // _PHILOX_BLOCK) * _PHILOX_BLOCK
    short = np.arange(len(streams.keys))
    drawn = 0
    while short.size:
        w = np.empty((short.size, block))
        for row, i in zip(w, short):
            streams.fill(i, row, skip=drawn)
        drawn += block
        # a few rows at a time: chunk-sized temporaries would stay
        # resident in the allocator's heap after the chunk
        for slab in np.split(w, range(SLAB_ROWS, len(w), SLAB_ROWS)):
            slab[:] = waiting_time_from_uniform(dist, slab)
        if resets is None:  # the first block holds every row
            resets = np.cumsum(w, axis=1, out=w)
        else:
            w[:, 0] += resets[short, -1]
            resets = np.pad(resets, ((0, 0), (0, block)), constant_values=np.inf)
            resets[short, -block:] = np.cumsum(w, axis=1, out=w)
        short = np.nonzero(resets[:, -1] <= t_end)[0]
        block = WAIT_BLOCK
    return resets


def _resets_seen(grid: np.ndarray, resets: np.ndarray) -> np.ndarray:
    """(rows, grid points) counts of each row's resets with t <= each grid time.

    A row's reset times ascend, so a row of many resets is counted by one
    search of the grid in it.  Rows of fewer are counted from the first grid
    point to see each reset, SLAB_ROWS rows at a time, in fewer calls.
    """
    rows, points = len(resets), len(grid)
    seen = np.empty((rows, points), dtype=np.int32)  # a count never exceeds a row's resets in memory
    if resets.shape[1] > 8 * points:  # a search per row costs less than one per reset
        for row, counts in zip(resets, seen):
            counts[:] = np.searchsorted(row, grid, side="right")
        return seen
    for lo in range(0, rows, SLAB_ROWS):
        slab = resets[lo:lo + SLAB_ROWS]
        n = len(slab)
        first = np.searchsorted(grid, slab, side="left") + (points + 1) * np.arange(n)[:, None]
        per_point = np.bincount(first.ravel(), minlength=n * (points + 1)).reshape(n, -1)
        np.cumsum(per_point[:, :points], axis=1, out=seen[lo:lo + n])
    return seen


def _flip_probability(obar, ratio, tau):
    """p = ratio * sin(obar tau)^2 at a reset tau after the last, at most 1."""
    sin = np.sin(obar * tau)
    return np.minimum(ratio * (sin * sin), 1.0)


def _flip_rule(n: int, count, p, u_up, u_down):
    """Protocol 3's up-counts after a reset from up-counts count, elementwise: both
    counts drawn in full, in one search."""
    m = count.size
    drawn = binomial_quantile(np.concatenate([u_up, u_down]), np.concatenate([count, n - count]),
                              np.concatenate([1.0 - p, p]))
    measured = drawn[:m] + drawn[m:]  # stay_up + flip_up
    return np.where(measured <= (n - 1) // 2, n - measured, n).astype(count.dtype)


class _ChunkState:
    """One chunk's schedule, drawn up front (each trajectory's reset times
    and, where the protocol measures, its measurement stream), and the
    origin state n0 or count of every drive that replays it: one row per
    drive, shape (drives, rows).  advance_to turns them into each grid
    point's origins and last reset times, which record reads."""

    def __init__(self, configs: list, start: int, rows: int):
        config = self.config = configs[0]  # every field but params is shared
        self.params = [c.params for c in configs]
        obar = [p.effective_rabi for p in self.params]
        ratio = [(p.omega / o) ** 2 if o else 0.0 for p, o in zip(self.params, obar)]
        # the up branch's coherence is coh_re * sin^2 + i coh_im * sin*cos
        coh_re = [_coherence_re(p, o) if o else 0.0 for p, o in zip(self.params, obar)]
        coh_im = [p.omega / o if o else 0.0 for p, o in zip(self.params, obar)]
        # columns of p = ratio * sin(obar * tau)^2: a drive with obar = 0 keeps p = 0
        self.obar, self.ratio, self.coh_re, self.coh_im = (
            np.array(v)[:, None] for v in (obar, ratio, coh_re, coh_im))
        self.measured = config.protocol.measures(config.n_spins)
        if self.measured:
            # cache _majority_tests' tables before the schedule's arrays: made
            # after them, the table raised mc_finite_n's peak RSS by 0.3 MB
            _phase_brackets(tuple(ratio), config.n_spins)
        index = np.arange(start, start + rows)
        waits = _RowStreams(_trajectory_streams(config.seed, index, _WAIT_STREAM))
        self.resets = _reset_times(config.dist, waits, config.sample_grid[-1])
        self.seen = _resets_seen(np.asarray(config.sample_grid), self.resets)
        if self.measured:
            self.meas = _RowStreams(_trajectory_streams(config.seed, index, _MEASURE_STREAM))
        shape = (len(configs), rows)
        self.origin = (np.ones(shape) if config.n_spins is None
                       else np.full(shape, config.n_spins, dtype=np.int64))

    def advance_to(self):
        """Apply every row's resets with t <= the last grid time: at finite N
        by _finite_origins, else in reset order, step k applying the k-th
        reset of the rows that have one after the origins go to the grid
        points that see exactly k resets.  grid_origin (grid points, drives,
        rows) and t_last (grid points, rows) then hold what record reads;
        the schedule is released.
        """
        seen = self.seen
        shape = (seen.shape[1],) + self.origin.shape
        if self.config.protocol is ProtocolKind.UNCONDITIONAL_RESET:  # its origin never changes
            self.grid_origin = np.broadcast_to(self.origin, shape)
        elif self.measured:
            self.grid_origin = self._finite_origins()
        else:
            self.grid_origin = np.empty(shape, dtype=self.origin.dtype)
            applied = seen[:, -1]
            last = int(applied.max())
            # flat (row, grid point) pairs, grouped by the resets they see
            pairs = np.argsort(seen, axis=None)
            bounds = np.cumsum(np.bincount(seen.ravel(), minlength=last + 1))
            live, start = np.arange(applied.size), 0
            for k, end in enumerate(bounds):
                if start < end:
                    row, gi = np.divmod(pairs[start:end], shape[0])
                    self.grid_origin[gi, :, row] = self.origin[:, row].T
                start = end
                if k < last:
                    live = live[applied[live] > k]
                    self._reset(k, live)
            del pairs
        latest = np.take_along_axis(self.resets, np.maximum(seen - 1, 0), axis=1)
        self.t_last = np.where(seen > 0, latest, 0.0).T
        self.resets = self.seen = self.meas = None

    def _reset(self, k: int, rows):
        """Apply reset k of the given rows (an index array) to every drive's n0."""
        t_reset = self.resets[rows, k]
        p = _flip_probability(self.obar, self.ratio,
                              t_reset - self.resets[rows, k - 1] if k else t_reset)
        n0 = self.origin[:, rows]
        d = n0 + (1.0 - 2.0 * n0) * p
        two_state = self.config.protocol is ProtocolKind.CONDITIONAL_TWO_STATE
        self.origin[:, rows] = np.where(d > 0.5, 1.0, 0.0 if two_state else 1.0 - d)

    def _uniforms(self, lo: int, hi: int, offsets: np.ndarray) -> np.ndarray:
        """Rows lo to hi's measurement uniforms, two per reset with t <= the last
        grid time, row after row: row i's start at 2 * (offsets[i] - offsets[lo])."""
        u = np.empty(2 * (offsets[hi] - offsets[lo]))
        for i in range(lo, hi):
            self.meas.fill(i, u[2 * (offsets[i] - offsets[lo]):2 * (offsets[i + 1] - offsets[lo])])
        return u

    def _finite_origins(self) -> np.ndarray:
        """(grid points, drives, rows) up-counts at finite N.

        path[d, offsets[r] + k] is drive d's origin after row r's reset k
        (the resets with t <= the last grid time, row after row); its last
        entry, all-up, serves the grid points that see no reset.  An all-up
        origin is a regeneration point: what a reset makes of it depends on
        that reset's wait and uniforms alone, so every reset's all-up
        outcome, and protocol 2's all-down one, is decided a slab of whole
        rows (about SCAN_PAIRS (drive, reset) pairs) at a time.  Protocol
        2's origin is then the outcome of the row's last reset whose two
        outcomes agree, flipped by the parity of the resets since that swap
        up and down; protocol 3 runs _waves.
        """
        n, flip_protocol = self.config.n_spins, self.config.protocol is ProtocolKind.CONDITIONAL_FLIP
        seen, (drives, rows) = self.seen, self.origin.shape
        applied = seen[:, -1]
        offsets = np.concatenate([[0], np.cumsum(applied, dtype=np.int64)])
        total = int(offsets[-1])
        path = np.full((drives, total + 1), n, dtype=np.min_scalar_type(-n))
        if flip_protocol:  # the waves read a reset's uniforms anywhere in the chunk
            u_at = self._uniforms(0, rows, offsets)
            # j + next_flip[d, j]: the first reset from j that flips d's all-up, or j's row end
            next_flip = np.zeros(path.shape, dtype=np.min_scalar_type(applied.max()))
        slab = max(1, SCAN_PAIRS * rows // (drives * max(total, 1)))
        for lo in range(0, rows, slab):
            hi = min(lo + slab, rows)
            a, b = offsets[lo], offsets[hi]
            j = np.arange(b - a)
            start = offsets[lo:hi] - a  # each row's first reset, b - a for a row without one
            start = start[start < b - a]
            # gathered first: a row's entries past its last reset may be +inf
            t = self.resets[lo:hi][np.arange(self.resets.shape[1]) < applied[lo:hi, None]]
            tau = np.empty_like(t)
            np.subtract(t[1:], t[:-1], out=tau[1:])
            tau[start] = t[start]  # the first reset is t after 0
            u = u_at[2 * a:2 * b] if flip_protocol else self._uniforms(lo, hi, offsets)
            u_up, u_down = u[0::2], u[1::2]
            # (drives, the slab's resets): all-up measures at most half, and all-down does
            flips, falls = _majority_tests(n, self.obar, self.ratio, tau, u_up,
                                           None if flip_protocol else u_down)
            if flip_protocol:  # the stay-up count needs the exact p
                d, r = np.divmod(np.flatnonzero(flips), flips.shape[1])
                q = 1.0 - _flip_probability(self.obar[d, 0], self.ratio[d, 0], tau[r])
                path[d, a + r] = n - binomial_quantile(u_up[r], n, q)
                ahead = np.minimum.accumulate(np.where(flips, j, b - a)[:, ::-1], axis=-1)[:, ::-1]
                next_flip[:, a:b] = np.minimum(ahead, np.repeat(offsets[lo + 1:hi + 1] - a,
                                                                applied[lo:hi])) - j
            else:
                stays, rises = ~flips, ~falls
                rises[:, start] = stays[:, start]  # a row starts all-up
                swaps = np.logical_xor.accumulate(rises & ~stays, axis=-1)
                anchor = np.maximum.accumulate(np.where(stays == rises, j, -1), axis=-1)
                anchor += stays.shape[1] * np.arange(len(stays))[:, None]  # flat: the row's own
                path[:, a:b] = n * ((stays ^ swaps).take(anchor) ^ swaps)
        if flip_protocol:
            self._waves(path, u_at, next_flip, offsets)
        at = np.where(seen > 0, offsets[:-1, None] + seen - 1, total)  # (rows, grid points)
        return np.ascontiguousarray(path[:, at.T].transpose(1, 0, 2), dtype=np.int64)

    def _waves(self, path, u, next_flip, offsets):
        """Protocol 3's path below all-up.  In a wave each all-up (drive, row) pair
        jumps to its next flip and takes that reset's all-up outcome, and then each
        pair below all-up applies the rule to its next reset."""
        n, (drives, rows) = self.config.n_spins, self.origin.shape
        d, r = np.divmod(np.arange(drives * rows), rows)
        j, end, count = offsets[r], offsets[r + 1], np.full(r.size, n)  # j: the pair's next reset
        while True:
            up = count == n
            j[up] += next_flip[d[up], j[up]]
            live = j < end
            if not live.any():
                return
            d, r, j, end, count, up = (x[live] for x in (d, r, j, end, count, up))
            count[up] = path[d[up], j[up]]
            j[up] += 1
            i = (count < n) & (j < end)
            di, ri, ji = d[i], r[i], j[i]
            k = ji - offsets[ri]  # >= 1: a row's first reset meets all-up
            p = _flip_probability(self.obar[di, 0], self.ratio[di, 0],
                                  self.resets[ri, k] - self.resets[ri, k - 1])
            count[i] = path[di, ji] = _flip_rule(n, count[i], p, u[2 * ji], u[2 * ji + 1])
            j[i] += 1

    def record(self, tg: float, acc: dict, gi: int):
        """Every drive's (drives, rows) d and x at grid point gi, summed into acc."""
        s = tg - self.t_last[gi]
        p, s2, sc = _phase_terms(self.obar, self.ratio, s)
        cr, ci = self.coh_re * s2, self.coh_im * sc  # the up branch's coherence
        n = self.config.n_spins
        if n is None:
            n0 = self.grid_origin[gi]
            d = n0 + (1.0 - 2.0 * n0) * p
            x = d * d
            polar = 2.0 * n0 - 1.0  # the origin's polarization scales the coherence
            products = _symbol_products(None, d, 1.0 - d, polar * cr, polar * ci)
            blocks = [_pair_block(products, _UP_UP)]
        else:
            count = self.grid_origin[gi].astype(float)
            d_up, d_down = 1.0 - p, p
            frac = count / n
            d = frac * d_up + (1.0 - frac) * d_down
            if n > 1:
                # pick two distinct spins: hypergeometric origin weights
                denom = n * (n - 1.0)
                c_uu = count * (count - 1.0) / denom
                c_ud = count * (n - count) / denom
                c_dd = (n - count) * (n - count - 1.0) / denom
            else:
                c_uu, c_ud, c_dd = frac, np.zeros_like(frac), 1.0 - frac
            x = c_uu * d_up * d_up + 2.0 * c_ud * d_up * d_down + c_dd * d_down * d_down
            if c_ud.any():
                uu, ud, dd = _symbol_products(np.stack([c_uu, c_ud, c_dd]), d_up, d_down, cr, ci)
                weighted = zip((uu, ud, ud, dd), _FINITE_BLOCKS)
            else:  # every row all-up or all-down: the up-down blocks would add only zeros
                uu, dd = _symbol_products(np.stack([c_uu, c_dd]), d_up, d_down, cr, ci)
                weighted = zip((uu, dd), _FINITE_BLOCKS[::3])
            blocks = [_pair_block(products, layout) for products, layout in weighted]
        _accumulate_scalars(acc["moments"][:, gi], d, x)
        pair = acc["pair"][:, gi]
        for block in blocks:  # uu, ud, du, dd: the order of einsum's four calls
            pair += block
        return d, x


def _chunk_sums(configs: list, start: int, rows: int) -> dict:
    """Every drive's sums over one chunk, drives in configs order."""
    state = _ChunkState(configs, start, rows)
    grid = configs[0].sample_grid
    acc = _new_accumulators(len(configs), len(grid))
    widx = set(configs[0].window_indices().tolist())
    rows_dx = np.zeros((2, len(configs), rows))  # each row's sums of d and x over the window
    state.advance_to()
    for gi, tg in enumerate(grid):
        dx = state.record(tg, acc, gi)
        if gi in widx:
            rows_dx += dx
    if widx:
        _accumulate_scalars(acc["moments"][:, -1], *rows_dx / len(widx))
    return acc


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's count."""
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _share(fn, items) -> list:
    """(True, fn(x)) for each x in order, up to the first failure, kept as (False, exception)."""
    out = []
    for x in items:
        try:
            out.append((True, fn(x)))
        except Exception as exc:
            out.append((False, exc))
            break
    return out


def _send_share(fn, share: list, write: int, reads: list):
    """A forked child's whole life: run its share, pickle the outcomes into write, exit."""
    import os
    import pickle
    import traceback

    status = 1
    try:
        for fd in reads:  # the read ends it inherited
            os.close(fd)
        with os.fdopen(write, "wb") as pipe:
            pickle.dump(_share(fn, share), pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    except BaseException:
        traceback.print_exc()
    finally:
        os._exit(status)  # never returns into the parent's stack, flushes no parent buffer


def _fork_join(fn, items: list, procs: int) -> list:
    """ordered_map over procs processes: share k = items[k::procs], share 0 here."""
    import os
    import pickle
    import signal

    reads, pids, statuses, drained = [], [], [], False
    try:
        for k in range(1, procs):
            read, write = os.pipe()
            reads.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _send_share(fn, items[k::procs], write, reads)
            finally:
                os.close(write)
            pids.append(pid)
        shares = [_share(fn, items[0::procs])]
        for fd in reads:  # every pipe to EOF before any wait: a full pipe blocks its writer
            with os.fdopen(fd, "rb", closefd=False) as pipe:
                shares.append(pipe.read())
        drained = True
    finally:
        for fd in reads:
            os.close(fd)
        for pid in pids:
            if not drained:  # an aborted call waits for no share
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for k, (pid, status) in enumerate(zip(pids, statuses), 1):
        if status:
            raise ChildProcessError(f"worker process {pid} (items {k}::{procs}) "
                                    f"exited with status {status}")
    outcomes = [None] * len(items)
    for k, share in enumerate(shares[:1] + [pickle.loads(sent) for sent in shares[1:]]):
        outcomes[k:k + procs * len(share):procs] = share
    results = []
    for ok, value in outcomes:  # an item a share skipped comes after that share's failure
        if not ok:
            raise value
        results.append(value)
    return results


def ordered_map(fn, items, workers: int) -> list:
    """[fn(x) for x in items] on this process and up to workers - 1 forked children.

    The process count is capped at the items and at the usable CPUs.  Item
    i runs in share i % processes: share 0 here, every other share in a
    child forked for the call, which pickles its results back through a
    pipe and exits.  Results come back in input order whatever the
    process count, and the first failing item in input order re-raises
    its exception: a share stops at its own first failure, which comes
    after every earlier item of that share.  A child that dies raises
    ChildProcessError with its exit status.  No child outlives the call.
    Where os.fork does not exist the items run here, one after another.
    """
    items = list(items)
    if workers > 1 and len(items) > 1:
        import os

        procs = min(workers, len(items), _usable_cpus())
        if procs > 1 and hasattr(os, "fork"):
            return _fork_join(fn, items, procs)
    return [fn(x) for x in items]


def run_ensembles(configs) -> list:
    """One EnsembleStats per config, for configs that differ only in params.

    Trajectory i draws from streams keyed by (seed, i) whatever the drive,
    so each chunk of CHUNK trajectories draws its schedule once and every
    drive replays it.  Chunks run independently (in up to `workers`
    processes, see ordered_map), and every drive's chunk sums are merged
    in one pass in chunk order, so every result is bitwise its own
    run_ensemble's, for any worker count.  SimConfig checked each drive,
    so the run fails only whole (its first wait block, or a failing
    chunk): no partial averages are returned.
    """
    t0 = time.perf_counter()
    configs = list(configs)
    if not configs:
        return []
    first = configs[0]
    if any(replace(c, params=first.params) != first for c in configs[1:]):
        raise ValueError("run_ensembles needs configs that differ only in params")
    n = first.n_trajectories
    _check_first_wait_block(first.dist, first.sample_grid[-1], min(CHUNK, n))
    bounds = [(s, min(CHUNK, n - s)) for s in range(0, n, CHUNK)]
    chunks = ordered_map(lambda b: _chunk_sums(configs, *b), bounds, first.workers)
    chunk_counts = np.array([r for _, r in bounds], dtype=np.int64)
    moments, pair = (np.zeros_like(chunks[0][key]) for key in ("moments", "pair"))
    for chunk in chunks:  # fixed combination order
        moments += chunk["moments"]
        pair += chunk["pair"]
    grid_stats = _moment_stats(n, *np.moveaxis(moments[:, :-1], -1, 0))
    windows = [{} for _ in configs]
    widx = first.window_indices()
    if widx.size:
        window_pair = pair[:, widx].sum(axis=1) / (n * widx.size)
        batch_means = np.mean([c["pair"][:, widx] / r for c, r in zip(chunks, chunk_counts)],
                              axis=2)
        for k, window in enumerate(windows):
            # finished on float64 scalars: a scalar's **2 calls libm pow, an
            # array's computes x*x, and the two round differently
            stats = _moment_stats(n, *moments[k, -1])
            window.update({"window_" + name: float(v) for name, v in zip(STAT_FIELDS, stats)},
                          window_pair=window_pair[k], chunk_window_pair_means=batch_means[:, k])
    wall_time = time.perf_counter() - t0
    return [EnsembleStats(config=config, times=np.asarray(config.sample_grid),
                          **{name: v[k] for name, v in zip(STAT_FIELDS, grid_stats)},
                          pair_states=pair[k] / n, chunk_counts=chunk_counts, n_trajectories=n,
                          wall_time=wall_time, **windows[k])
            for k, config in enumerate(configs)]


def run_ensemble(config: SimConfig) -> EnsembleStats:
    """Simulate the configured ensemble and average it on the sample grid."""
    return run_ensembles([config])[0]


def _moment_stats(n, sd, sd2, sx, sx2, sdx):
    """Means and standard errors from raw per-trajectory moment sums.

    The correlation estimate is mean(x) - mean(d)^2 with a first-order
    (delta-method) error using the sample covariance of (d, x).
    """
    mean_d = sd / n
    mean_x = sx / n
    corr = mean_x - mean_d**2
    if n > 1:
        var_d = np.maximum(sd2 - n * mean_d**2, 0.0) / (n - 1)
        var_x = np.maximum(sx2 - n * mean_x**2, 0.0) / (n - 1)
        cov_dx = (sdx - n * mean_d * mean_x) / (n - 1)
        corr_var = np.maximum(var_x + 4.0 * mean_d**2 * var_d - 4.0 * mean_d * cov_dx, 0.0)
        return (mean_d, np.sqrt(var_d / n), mean_x, np.sqrt(var_x / n),
                corr, np.sqrt(corr_var / n))
    nan = np.full_like(np.asarray(mean_d, dtype=float), np.nan)
    return (mean_d, nan, mean_x, nan, corr, nan)
