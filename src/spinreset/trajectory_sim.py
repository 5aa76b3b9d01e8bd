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
reset uses both uniforms whatever it measures, but the engine computes
only what the reset rule needs: whether the measured density is <= 1/2
comes from one binomial cdf value, and protocol 3's stay-up count is
drawn only where a reset flips.  Protocol 2 reads that cdf value from a
table bracket wherever the bracket decides the comparison, and the
quantile search starts from a normal estimate; neither changes a result,
since every undecided comparison is made with bdtr and the integer
quantile does not depend on where its search starts.
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
reduced independently (on the worker threads) and combined in index
order, so results are bitwise identical for any worker count.  Changing
CHUNK would change the rounding pattern of the reduction (not the
statistics), so it is a fixed constant, not a knob.
"""

from __future__ import annotations

import enum
import operator
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np
# bdtrik is unused; perfbench/layers.py traces trajectory_sim.bdtrik, so the name stays
from scipy.special import bdtr, bdtrik, ndtri  # noqa: F401

from .finite_size import _check_n
from .renewal import WaitingTime, _fourier_weight, waiting_time_from_uniform
from .spin_dynamics import DriveParams

CHUNK = 1024
WAIT_BLOCK = 64
SLAB_ROWS = 64
# protocol 2's cdf table: cells in q (a power of two) and bdtr's relative slack
_CDF_CELLS = 4096
_CDF_MARGIN = 1e-7

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


class ProtocolKind(enum.Enum):
    UNCONDITIONAL_RESET = 1
    CONDITIONAL_TWO_STATE = 2
    CONDITIONAL_FLIP = 3


@dataclass(frozen=True)
class SimConfig:
    """Description of one Monte Carlo campaign."""

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
            if not (0.0 <= lo <= hi <= self.observation_time):
                raise ValueError(f"average_window {self.average_window} outside [0, T]")
            if not any(lo <= t <= hi for t in grid):
                raise ValueError("average_window contains no sample_grid points")

    def window_indices(self) -> np.ndarray:
        if self.average_window is None:
            return np.array([], dtype=np.int64)
        lo, hi = self.average_window
        grid = np.asarray(self.sample_grid)
        return np.nonzero((grid >= lo) & (grid <= hi))[0]


@dataclass
class EnsembleStats:
    """Grid-time averages of an ensemble with their standard errors.

    Standard errors are sample standard deviation / sqrt(n_trajectories)
    (ddof=1).  The correlation row is the plug-in estimate
    mean(two_point) - mean(density)^2 with a delta-method error.
    chunk_pair_means keeps the per-chunk mean pair states so callers can
    attach batch-means uncertainties to spectral quantities of the mean
    state (the discord measure has no per-trajectory estimator).
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
    chunk_pair_means: np.ndarray
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
    skip // 4 and discards skip % 4 draws, so the row continues exactly
    where an earlier fill of `skip` values stopped.  Each chunk owns its
    own instance: chunks run on threads.
    """

    def __init__(self, keys: np.ndarray):
        self.keys = keys
        self.bit_generator = np.random.Philox(key=0)
        self.generator = np.random.Generator(self.bit_generator)
        self.state = self.bit_generator.state

    def fill(self, row: int, out: np.ndarray, skip: int = 0):
        """out <- uniforms skip, skip + 1, ... of the row's stream."""
        block, offset = divmod(skip, _PHILOX_BLOCK)
        self.state["state"]["key"] = self.keys[row]
        self.state["state"]["counter"] = (block, 0, 0, 0)
        self.bit_generator.state = self.state  # buffer_pos stays 4: nothing buffered
        if offset:
            self.generator.random(offset)
        self.generator.random(out=out)


def binomial_quantile(u, n, p):
    """Smallest k with P(Bin(n, p) <= k) >= u, vectorized.

    The search starts from the Cornish-Fisher normal estimate
    n p + sd z + (1 - 2p)(z^2 - 1)/6 with z = ndtri(u) (0 or n where z
    is infinite), rounded and clipped to [0, n] (Kachitvichyanukul &
    Schmeiser, CACM 1988).  It then walks by bdtr comparisons: down while
    the cdf one below still reaches u, then up while the cdf falls short
    of it.  The integer quantile does not depend on where the walk
    starts.  An element that stops on one pass would stop again, so each
    pass runs only over the elements that moved on the one before.
    """
    scalar = np.ndim(u) == 0 and np.ndim(n) == 0 and np.ndim(p) == 0
    u = np.atleast_1d(np.asarray(u, dtype=float))
    n = np.atleast_1d(np.asarray(n))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    u, n, p = np.broadcast_arrays(u, n, p)
    k = np.zeros(u.shape, dtype=np.int64)
    active = (n > 0) & (p > 0.0) & (p < 1.0)
    k[(n > 0) & (p >= 1.0)] = n[(n > 0) & (p >= 1.0)]
    if np.any(active):
        ua, na, pa = u[active], n[active], p[active]
        z = ndtri(ua)
        finite = np.isfinite(z)  # u = 0 and u = 1 start at 0 and n
        z = np.where(finite, z, 0.0)
        mean = na * pa
        guess = mean + np.sqrt(mean * (1.0 - pa)) * z + (1.0 - 2.0 * pa) * (z * z - 1.0) / 6.0
        guess = np.where(finite, guess, np.where(ua > 0.5, na, 0))
        ka = np.rint(np.clip(guess, 0, na)).astype(np.int64)
        i = np.nonzero(ka > 0)[0]
        while i.size:
            i = i[bdtr((ka[i] - 1).astype(float), na[i], pa[i]) >= ua[i]]
            ka[i] -= 1
            i = i[ka[i] > 0]
        i = np.nonzero(ka < na)[0]
        while i.size:
            i = i[bdtr(ka[i].astype(float), na[i], pa[i]) < ua[i]]
            ka[i] += 1
            i = i[ka[i] < na[i]]
        k[active] = ka
    return int(k[0]) if scalar else k


@lru_cache(maxsize=16)
def _cdf_bracket(h: int, n: int):
    """(lo, hi): for q in cell j = floor(q * _CDF_CELLS), lo[j] <= bdtr(h, n, q) <= hi[j].

    bdtr(h, n, q) falls as q rises (0 <= h < n), so on [j/M, (j+1)/M] it
    lies between the table values at the two ends; the relative margin
    _CDF_MARGIN covers bdtr's rounding, which stays below 6e-11 up to
    n = 10**6.
    """
    table = bdtr(h, n, np.arange(_CDF_CELLS + 1) / _CDF_CELLS)
    bracket = table[1:] * (1.0 - _CDF_MARGIN), table[:-1] * (1.0 + _CDF_MARGIN)
    for side in bracket:  # cached: every caller reads the same arrays
        side.flags.writeable = False
    return bracket


def _quantile_at_most(u, n, q, h):
    """binomial_quantile(u, n, q) <= h, decided from one cdf value.

    The quantile is the smallest k with bdtr(k, n, q) >= u, and bdtr
    does not decrease in k, so it is <= h exactly when u <= bdtr(h, n, q)
    (h clipped to bdtr's domain [0, n]; no quantile is below 0).  For
    q >= 1 binomial_quantile returns n outright, even at u = 0, so there
    n itself is compared with h.  For scalar n and h (protocol 2's
    majority test) a table of bdtr(h, n, j / _CDF_CELLS) brackets the cdf
    value, and bdtr runs only where u falls inside the bracket; every
    answer is still that of the comparison with bdtr.
    """
    if np.ndim(n) == 0 and np.ndim(h) == 0 and 0 <= h < n:
        lo, hi = _cdf_bracket(int(h), int(n))
        u, q = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(q, dtype=float))
        inside = (q >= 0.0) & (q < 1.0)  # q * _CDF_CELLS is exact: a power of two
        j = (np.where(inside, q, 0.0) * _CDF_CELLS).astype(np.int64)
        at_most = inside & (u <= lo[j])
        # q >= 1 stays False: the quantile is then n > h
        undecided = ~at_most & (q < 1.0) & ~(inside & (u > hi[j]))
        at_most[undecided] = u[undecided] <= bdtr(float(h), n, q[undecided])
        return at_most
    h = np.asarray(h)
    at_most = (h >= 0) & (u <= bdtr(np.minimum(np.maximum(h, 0), n).astype(float), n, q))
    return np.where(q >= 1.0, n <= h, at_most)


# ---------------------------------------------------------------------------
# Closed-form observables of a trajectory at time s after its last reset.
# ---------------------------------------------------------------------------


def _phase_terms(params: DriveParams, s: np.ndarray):
    """flip probability p(s), sin^2 and sin*cos of the Rabi phase."""
    obar = params.effective_rabi
    if obar == 0.0:
        z = np.zeros_like(s)
        return z, z, z
    sin = np.sin(obar * s)
    cos = np.cos(obar * s)
    s2 = sin * sin
    return (params.omega / obar) ** 2 * s2, s2, sin * cos


def _coherence(params: DriveParams, s2: np.ndarray, sc: np.ndarray) -> np.ndarray:
    """Off-diagonal entry of the up-branch qubit state."""
    obar = params.effective_rabi
    if obar == 0.0:
        return np.zeros_like(s2, dtype=complex)
    return (params.delta * params.omega / obar**2) * s2 + 1j * (params.omega / obar) * sc


def _pair_accumulate(out, weights, left, right):
    # sum_n w_n * kron(left_n, right_n), laid out as a 4x4 block
    out += np.einsum("n,nij,nkl->ikjl", weights, left, right, optimize=False).reshape(4, 4)


def _record_thermo(params, s, n0, acc, gi):
    p, s2, sc = _phase_terms(params, s)
    d = n0 + (1.0 - 2.0 * n0) * p
    coh = (2.0 * n0 - 1.0) * _coherence(params, s2, sc)
    mu = np.empty(s.shape + (2, 2), dtype=complex)
    mu[:, 0, 0] = d
    mu[:, 1, 1] = 1.0 - d
    mu[:, 0, 1] = coh
    mu[:, 1, 0] = coh.conj()
    x = d * d
    _accumulate_scalars(acc, gi, d, x)
    _pair_accumulate(acc["pair"][gi], np.ones_like(d), mu, mu)
    return d, x


def _record_finite(params, s, count, n_spins, acc, gi):
    p, s2, sc = _phase_terms(params, s)
    coh = _coherence(params, s2, sc)
    d_up = 1.0 - p
    d_down = p
    frac = count / n_spins
    d = frac * d_up + (1.0 - frac) * d_down
    if n_spins > 1:
        # pick two distinct spins: hypergeometric origin weights
        denom = n_spins * (n_spins - 1.0)
        c_uu = count * (count - 1.0) / denom
        c_ud = count * (n_spins - count) / denom
        c_dd = (n_spins - count) * (n_spins - count - 1.0) / denom
    else:
        c_uu, c_ud, c_dd = frac, np.zeros_like(frac), 1.0 - frac
    x = c_uu * d_up * d_up + 2.0 * c_ud * d_up * d_down + c_dd * d_down * d_down
    _accumulate_scalars(acc, gi, d, x)
    rho_up = np.empty(s.shape + (2, 2), dtype=complex)
    rho_up[:, 0, 0] = d_up
    rho_up[:, 1, 1] = d_down
    rho_up[:, 0, 1] = coh
    rho_up[:, 1, 0] = coh.conj()
    rho_down = np.empty_like(rho_up)
    rho_down[:, 0, 0] = d_down
    rho_down[:, 1, 1] = d_up
    rho_down[:, 0, 1] = -coh
    rho_down[:, 1, 0] = -coh.conj()
    pair = acc["pair"][gi]
    _pair_accumulate(pair, c_uu, rho_up, rho_up)
    _pair_accumulate(pair, c_ud, rho_up, rho_down)
    _pair_accumulate(pair, c_ud, rho_down, rho_up)
    _pair_accumulate(pair, c_dd, rho_down, rho_down)
    return d, x


def _accumulate_scalars(acc, gi, d, x):
    acc["sd"][gi] += d.sum()
    acc["sd2"][gi] += (d * d).sum()
    acc["sx"][gi] += x.sum()
    acc["sx2"][gi] += (x * x).sum()
    acc["sdx"][gi] += (d * x).sum()


# ---------------------------------------------------------------------------
# Vectorized chunk engine.
# ---------------------------------------------------------------------------


def _new_accumulators(n_grid):
    return {
        "sd": np.zeros(n_grid),
        "sd2": np.zeros(n_grid),
        "sx": np.zeros(n_grid),
        "sx2": np.zeros(n_grid),
        "sdx": np.zeros(n_grid),
        "pair": np.zeros((n_grid, 4, 4), dtype=complex),
    }


def _initial_wait_capacity(dist: WaitingTime, horizon: float) -> int:
    mean_wait = _fourier_weight(dist, 0.0).real
    expect = horizon / mean_wait
    return int(expect + 6.0 * np.sqrt(expect) + 8.0)


def _reset_times(dist: WaitingTime, streams: _RowStreams, t_end: float) -> np.ndarray:
    """Each stream's running sum of waits, up to its first reset after t_end.

    A row still short of t_end continues its own stream and its own sum
    in further blocks, so every entry is the same left-to-right sum
    however the draws are blocked.  Entries past a row's last reset are
    +inf.
    """
    resets, block = None, _initial_wait_capacity(dist, t_end)
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


class _ChunkState:
    """One chunk's schedule, drawn before the grid walk (each trajectory's
    reset times and, where the protocol measures, two measurement uniforms
    per reset on the grid), and the origin state n0 or count of every drive
    that replays it: one row per drive, shape (drives, rows)."""

    def __init__(self, configs: list, start: int, rows: int):
        config = self.config = configs[0]  # every field but params is shared
        self.params = [c.params for c in configs]
        obar = [p.effective_rabi for p in self.params]
        ratio = [(p.omega / o) ** 2 if o else 0.0 for p, o in zip(self.params, obar)]
        # columns of p = ratio * sin(obar * tau)^2: a drive with obar = 0 keeps p = 0
        self.obar, self.ratio = (np.array(v)[:, None] for v in (obar, ratio))
        finite = config.n_spins is not None
        measured = finite and config.protocol is not ProtocolKind.UNCONDITIONAL_RESET
        index = np.arange(start, start + rows)
        waits = _RowStreams(_trajectory_streams(config.seed, index, _WAIT_STREAM))
        t_end = config.sample_grid[-1]
        self.resets = _reset_times(config.dist, waits, t_end)
        self.cursor = np.zeros(rows, dtype=np.int64)
        self.t_last = np.zeros(rows)

        if measured:
            meas = _RowStreams(_trajectory_streams(config.seed, index, _MEASURE_STREAM))
            applied = np.count_nonzero(self.resets <= t_end, axis=1)
            self.meas_u = np.empty((rows, 2 * int(applied.max())))
            for i, (row, k) in enumerate(zip(self.meas_u, applied)):
                meas.fill(i, row[:2 * k])

        shape = (len(configs), rows)
        if finite:
            self.count = np.full(shape, config.n_spins, dtype=np.int64)
        else:
            self.n0 = np.ones(shape)

    def advance_to(self, tg: float):
        """Apply every reset event with time <= tg, chunk-wide, for every drive."""
        proto = self.config.protocol
        idx = np.arange(self.cursor.size)
        while True:
            # only rows that just reset can have another reset due
            t_reset = self.resets[idx, self.cursor[idx]]
            due = t_reset <= tg
            if not due.any():
                return
            idx, t_reset = idx[due], t_reset[due]
            if proto is not ProtocolKind.UNCONDITIONAL_RESET:  # its origin never changes
                sin = np.sin(self.obar * (t_reset - self.t_last[idx]))
                p = np.minimum(self.ratio * (sin * sin), 1.0)  # (drives, due rows), >= 0
                if self.config.n_spins is not None:
                    self._finite_measurement(idx, p)
                else:
                    n0 = self.n0[:, idx]
                    d = n0 + (1.0 - 2.0 * n0) * p
                    flipped = 0.0 if proto is ProtocolKind.CONDITIONAL_TWO_STATE else 1.0 - d
                    self.n0[:, idx] = np.where(d > 0.5, 1.0, flipped)
            self.t_last[idx] = t_reset
            self.cursor[idx] += 1

    def _finite_measurement(self, idx, p):
        """New up-counts count[..., idx]; a row's uniforms serve every drive."""
        n = self.config.n_spins
        proto = self.config.protocol
        half = (n - 1) // 2
        count = self.count[..., idx]
        base = 2 * self.cursor[idx] + 0 * count  # per drive and row: all read the row's
        u_up = self.meas_u[idx, base]
        u_down = self.meas_u[idx, base + 1]
        if proto is ProtocolKind.CONDITIONAL_TWO_STATE:
            # origins are all-up or all-down, so only one of the two
            # binomials is nonempty and the majority test needs just its cdf
            up = count == n
            u = np.where(up, u_up, u_down)
            q = np.where(up, 1.0 - p, p)
            self.count[..., idx] = np.where(_quantile_at_most(u, n, q, half), 0, n)
        else:
            # the measured count is stay_up + flip_up; it is needed only
            # where it is <= half, which one cdf value of stay_up decides
            q = 1.0 - p
            flip_up = binomial_quantile(u_down, n - count, p)
            flip = _quantile_at_most(u_up, count, q, half - flip_up)
            stay_up = binomial_quantile(u_up[flip], count[flip], q[flip])
            count[...] = n
            count[flip] = n - stay_up - flip_up[flip]
            self.count[..., idx] = count

    def record(self, tg: float, accs: list, gi: int):
        """(drives, rows) d and x; each drive's sums go to its own accumulators."""
        s = tg - self.t_last
        if self.config.n_spins is None:
            dx = [_record_thermo(params, s, n0, acc, gi)
                  for params, n0, acc in zip(self.params, self.n0, accs)]
        else:
            dx = [_record_finite(params, s, count, self.config.n_spins, acc, gi)
                  for params, count, acc in zip(self.params, self.count.astype(float), accs)]
        return np.array(dx).transpose(1, 0, 2)


def _chunk_sums(configs: list, start: int, rows: int) -> list:
    """Each drive's moment sums over one chunk, in configs order."""
    state = _ChunkState(configs, start, rows)
    grid = configs[0].sample_grid
    accs = [_new_accumulators(len(grid)) for _ in configs]
    widx = set(configs[0].window_indices().tolist())
    row_d = np.zeros((len(configs), rows)) if widx else None
    row_x = np.zeros((len(configs), rows)) if widx else None
    for gi, tg in enumerate(grid):
        state.advance_to(tg)
        d, x = state.record(tg, accs, gi)
        if gi in widx:
            row_d += d
            row_x += x
    if widx:
        nw = len(widx)
        row_d /= nw
        row_x /= nw
        for acc, d, x in zip(accs, row_d, row_x):  # each drive's own 1-D sums
            acc["window"] = np.array([d.sum(), (d * d).sum(), x.sum(), (x * x).sum(),
                                      (d * x).sum()])
    return accs


def ordered_map(fn, items, workers: int) -> list:
    """[fn(x) for x in items], run on up to `workers` threads.

    Results come back in input order whatever the thread count.  The
    first failing item (in input order) re-raises its exception after
    the items still queued are cancelled.
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items))


def run_ensembles(configs) -> list:
    """One EnsembleStats per config, for configs that differ only in params.

    Trajectory i draws from streams keyed by (seed, i) whatever the drive,
    so each chunk of CHUNK trajectories draws its schedule once and every
    drive replays it.  Chunks run independently (on up to `workers`
    threads) and each drive's sums are combined in fixed order, so every
    result is bitwise its own run_ensemble's, for any worker count.  A
    failing chunk aborts the whole run: no partial averages are returned.
    """
    t0 = time.perf_counter()
    configs = list(configs)
    if not configs:
        return []
    first = configs[0]
    if any(replace(c, params=first.params) != first for c in configs[1:]):
        raise ValueError("run_ensembles needs configs that differ only in params")
    n = first.n_trajectories
    bounds = [(s, min(CHUNK, n - s)) for s in range(0, n, CHUNK)]
    chunks = ordered_map(lambda b: _chunk_sums(configs, *b), bounds, first.workers)
    chunk_counts = np.array([r for _, r in bounds], dtype=np.int64)
    return [_ensemble_stats(config, [accs[k] for accs in chunks], chunk_counts, t0)
            for k, config in enumerate(configs)]


def run_ensemble(config: SimConfig) -> EnsembleStats:
    """Simulate the configured ensemble and average it on the sample grid."""
    return run_ensembles([config])[0]


def _ensemble_stats(config: SimConfig, chunks: list, chunk_counts: np.ndarray,
                    t0: float) -> EnsembleStats:
    """Combine one drive's chunk sums, in chunk order, into its statistics."""
    n = config.n_trajectories
    n_grid = len(config.sample_grid)
    total = _new_accumulators(n_grid)
    window_sums = np.zeros(5)
    chunk_pair_means = np.empty((len(chunks), n_grid, 4, 4), dtype=complex)
    for ci, acc in enumerate(chunks):  # fixed combination order
        for key in ("sd", "sd2", "sx", "sx2", "sdx", "pair"):
            total[key] += acc[key]
        if "window" in acc:
            window_sums += acc["window"]
        chunk_pair_means[ci] = acc["pair"] / chunk_counts[ci]

    stats = _moment_stats(n, total["sd"], total["sd2"], total["sx"],
                          total["sx2"], total["sdx"])
    out = EnsembleStats(
        config=config,
        times=np.asarray(config.sample_grid),
        density=stats[0],
        density_stderr=stats[1],
        two_point=stats[2],
        two_point_stderr=stats[3],
        correlation=stats[4],
        correlation_stderr=stats[5],
        pair_states=total["pair"] / n,
        chunk_pair_means=chunk_pair_means,
        chunk_counts=chunk_counts,
        n_trajectories=n,
        wall_time=time.perf_counter() - t0,
    )
    widx = config.window_indices()
    if widx.size:
        w = _moment_stats(n, *window_sums)
        out.window_density = float(w[0])
        out.window_density_stderr = float(w[1])
        out.window_two_point = float(w[2])
        out.window_two_point_stderr = float(w[3])
        out.window_correlation = float(w[4])
        out.window_correlation_stderr = float(w[5])
        out.window_pair = total["pair"][widx].sum(axis=0) / (n * widx.size)
        out.chunk_window_pair_means = chunk_pair_means[:, widx].mean(axis=1)
        out.wall_time = time.perf_counter() - t0
    return out


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
