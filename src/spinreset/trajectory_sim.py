"""Monte Carlo trajectory ensembles for the three reset protocols.

A trajectory is a sequence of reset events; between events everything
is known in closed form, so the only stochastic ingredients are the
waiting times and, at finite N, the measured excitation counts.  The
per-trajectory state is tiny: the reset-origin density (thermodynamic
limit) or the integer count of up-origins (finite N), plus the time of
the last reset.  Observables on the sample grid are evaluated from the
closed-form free dynamics, never by time stepping.

Reproducibility contract: trajectory i draws its waiting times from a
counter-based stream keyed by (seed, i, 0) and its measurement uniforms
from (seed, i, 1).  Chunks of CHUNK trajectories are reduced
independently and combined in index order, so results are bitwise
identical for any worker count.  Changing CHUNK would change the
rounding pattern of the reduction (not the statistics), so it is a
fixed constant, not a knob.
"""

from __future__ import annotations

import enum
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import bdtr, bdtrik

from .renewal import WaitingTime, waiting_time_from_uniform
from .spin_dynamics import DriveParams

CHUNK = 1024
WAIT_BLOCK = 64

_WAIT_STREAM = 0
_MEASURE_STREAM = 1


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
        if not (self.observation_time > 0.0):
            raise ValueError(f"observation_time must be > 0, got {self.observation_time}")
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
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.n_spins is not None and (self.n_spins < 1 or self.n_spins % 2 == 0):
            raise ValueError(f"n_spins must be odd (or None), got {self.n_spins}")
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


def _trajectory_streams(seed: int, index: int):
    wait = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=(index, _WAIT_STREAM))))
    measure = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=(index, _MEASURE_STREAM))))
    return wait, measure


def binomial_quantile(u, n, p):
    """Smallest k with P(Bin(n, p) <= k) >= u, vectorized.

    Seeded from the continuous inverse provided by bdtrik, then fixed up
    to the exact integer quantile with a couple of cdf comparisons.
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
        with np.errstate(all="ignore"):
            guess = bdtrik(u[active], n[active], p[active])
        guess = np.where(np.isfinite(guess), guess, n[active] * p[active])
        k[active] = np.clip(np.floor(guess), 0, n[active]).astype(np.int64)
        ka = k[active]
        na = n[active]
        pa = p[active]
        ua = u[active]
        while True:
            down = (ka > 0) & (bdtr((ka - 1).astype(float), na, pa) >= ua)
            if not down.any():
                break
            ka[down] -= 1
        while True:
            up = (ka < na) & (bdtr(ka.astype(float), na, pa) < ua)
            if not up.any():
                break
            ka[up] += 1
        k[active] = ka
    return int(k[0]) if scalar else k


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
    from .renewal import _fourier_weight

    mean_wait = _fourier_weight(dist, 0.0).real
    expect = horizon / mean_wait
    return max(WAIT_BLOCK, int(expect + 6.0 * np.sqrt(expect) + 8.0))


class _ChunkState:
    """Mutable per-chunk trajectory arrays plus their private streams."""

    def __init__(self, config: SimConfig, start: int, rows: int):
        self.config = config
        self.rows = rows
        finite = config.n_spins is not None
        need_meas = finite and config.protocol is not ProtocolKind.UNCONDITIONAL_RESET
        streams = [_trajectory_streams(config.seed, start + i) for i in range(rows)]
        self.wait_gens = [s[0] for s in streams]
        self.meas_gens = [s[1] for s in streams] if need_meas else None

        cap = _initial_wait_capacity(config.dist, config.observation_time)
        u = np.empty((rows, cap))
        for i, g in enumerate(self.wait_gens):
            u[i] = g.random(cap)
        self.resets = np.cumsum(waiting_time_from_uniform(config.dist, u), axis=1)
        self.n_waits = np.full(rows, cap, dtype=np.int64)
        self.cursor = np.zeros(rows, dtype=np.int64)
        self.t_next = self.resets[:, 0].copy()
        self.t_last = np.zeros(rows)

        if need_meas:
            m_cap = 2 * cap
            mu = np.empty((rows, m_cap))
            for i, g in enumerate(self.meas_gens):
                mu[i] = g.random(m_cap)
            self.meas_u = mu
            self.n_meas = np.full(rows, m_cap, dtype=np.int64)
        else:
            self.meas_u = None

        if finite:
            self.count = np.full(rows, config.n_spins, dtype=np.int64)
        else:
            self.n0 = np.ones(rows)

    def _top_up(self, idx):
        """Extend the wait (and measurement) buffers of the given rows."""
        width = self.resets.shape[1]
        need_width = int(self.n_waits[idx].max()) + WAIT_BLOCK
        if need_width > width:
            pad = np.full((self.rows, need_width - width), np.inf)
            self.resets = np.concatenate([self.resets, pad], axis=1)
        for i in idx:
            nd = self.n_waits[i]
            u = self.wait_gens[i].random(WAIT_BLOCK)
            w = waiting_time_from_uniform(self.config.dist, u)
            self.resets[i, nd:nd + WAIT_BLOCK] = self.resets[i, nd - 1] + np.cumsum(w)
            self.n_waits[i] += WAIT_BLOCK
        if self.meas_u is not None:
            width = self.meas_u.shape[1]
            need_width = int(self.n_meas[idx].max()) + 2 * WAIT_BLOCK
            if need_width > width:
                pad = np.empty((self.rows, need_width - width))
                self.meas_u = np.concatenate([self.meas_u, pad], axis=1)
            for i in idx:
                nd = self.n_meas[i]
                self.meas_u[i, nd:nd + 2 * WAIT_BLOCK] = self.meas_gens[i].random(2 * WAIT_BLOCK)
                self.n_meas[i] += 2 * WAIT_BLOCK

    def advance_to(self, tg: float):
        """Apply every reset event with time <= tg, chunk-wide."""
        config = self.config
        params = config.params
        proto = config.protocol
        n_spins = config.n_spins
        while True:
            m = self.t_next <= tg
            if not m.any():
                return
            idx = np.nonzero(m)[0]
            tau = self.t_next[idx] - self.t_last[idx]
            p = np.clip(_phase_terms(params, tau)[0], 0.0, 1.0)
            if proto is ProtocolKind.UNCONDITIONAL_RESET:
                pass  # origin state never changes
            elif n_spins is None:
                d = self.n0[idx] + (1.0 - 2.0 * self.n0[idx]) * p
                if proto is ProtocolKind.CONDITIONAL_TWO_STATE:
                    self.n0[idx] = np.where(d > 0.5, 1.0, 0.0)
                else:
                    self.n0[idx] = np.where(d > 0.5, 1.0, 1.0 - d)
            else:
                self._finite_measurement(idx, p)
            self.t_last[idx] = self.t_next[idx]
            self.cursor[idx] += 1
            exhausted = idx[self.cursor[idx] >= self.n_waits[idx]]
            if exhausted.size:
                self._top_up(exhausted)
            self.t_next[idx] = self.resets[idx, self.cursor[idx]]

    def _finite_measurement(self, idx, p):
        n = self.config.n_spins
        proto = self.config.protocol
        half = (n - 1) // 2
        base = 2 * self.cursor[idx]
        u_up = self.meas_u[idx, base]
        u_down = self.meas_u[idx, base + 1]
        count = self.count[idx]
        if proto is ProtocolKind.CONDITIONAL_TWO_STATE:
            # origins are all-up or all-down, so only one of the two
            # binomials is nonempty and the majority test needs just its cdf
            up = count == n
            u = np.where(up, u_up, u_down)
            q = np.where(up, 1.0 - p, p)
            minority = u <= bdtr(float(half), n, q)
            self.count[idx] = np.where(minority, 0, n)
        else:
            stay_up = binomial_quantile(u_up, count, 1.0 - p)
            flip_up = binomial_quantile(u_down, n - count, p)
            measured = np.atleast_1d(stay_up + flip_up)
            flip_all = measured * 2 <= n  # measured density <= 1/2
            self.count[idx] = np.where(flip_all, n - measured, n)

    def record(self, tg: float, acc, gi: int):
        s = tg - self.t_last
        if self.config.n_spins is None:
            return _record_thermo(self.config.params, s, self.n0, acc, gi)
        return _record_finite(self.config.params, s, self.count.astype(float),
                              self.config.n_spins, acc, gi)


def _chunk_sums(config: SimConfig, start: int, rows: int):
    state = _ChunkState(config, start, rows)
    grid = config.sample_grid
    acc = _new_accumulators(len(grid))
    widx = set(config.window_indices().tolist())
    row_d = np.zeros(rows) if widx else None
    row_x = np.zeros(rows) if widx else None
    for gi, tg in enumerate(grid):
        state.advance_to(tg)
        d, x = state.record(tg, acc, gi)
        if gi in widx:
            row_d += d
            row_x += x
    if widx:
        nw = len(widx)
        row_d /= nw
        row_x /= nw
        acc["window"] = np.array([
            row_d.sum(), (row_d * row_d).sum(),
            row_x.sum(), (row_x * row_x).sum(),
            (row_d * row_x).sum(),
        ])
    return acc


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


def run_ensemble(config: SimConfig) -> EnsembleStats:
    """Simulate the configured ensemble and average it on the sample grid.

    Trajectory i draws from streams keyed by (seed, i); chunks of CHUNK
    trajectories are simulated independently (possibly on worker
    threads) and combined in fixed order, so the output is bitwise
    reproducible for any worker count.  A failing chunk aborts the whole
    run; no partial averages are ever returned.
    """
    t0 = time.perf_counter()
    n = config.n_trajectories
    n_grid = len(config.sample_grid)
    bounds = [(s, min(CHUNK, n - s)) for s in range(0, n, CHUNK)]
    chunks = ordered_map(lambda b: _chunk_sums(config, *b), bounds, config.workers)

    total = _new_accumulators(n_grid)
    window_sums = np.zeros(5)
    chunk_pair_means = np.empty((len(chunks), n_grid, 4, 4), dtype=complex)
    chunk_counts = np.array([r for _, r in bounds], dtype=np.int64)
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
