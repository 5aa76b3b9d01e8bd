"""Scalar reference simulator: one trajectory at a time, one reset at a time.

The test oracle of the vectorized engine in spinreset.trajectory_sim.
It walks a single trajectory through its reset events in plain Python,
so fed with the per-trajectory streams of run_ensemble (numpy_streams
builds them with numpy's own SeedSequence and Philox, not with the
engine's keys) it reproduces the ensemble averages to rounding.

record_thermo and record_finite are the grid record of one drive, with
the pair state summed by np.einsum: the oracle of the engine's batched
record, which repeats einsum's roundings bit for bit.  GridWalk is the
oracle of the engine's reset scan: it walks a chunk's schedule grid
point by grid point, applying at each the resets due by then, and gives
the origins and last reset times the scan must leave there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from spinreset.renewal import WaitingTime, waiting_time_from_uniform
from spinreset.spin_dynamics import DriveParams
from spinreset.trajectory_sim import (ProtocolKind, SimConfig, _quantile_at_most,
                                      binomial_quantile)


def numpy_streams(seed: int, index: int):
    """(wait, measurement) generators of trajectory index, as numpy builds them."""
    return tuple(np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=(index, kind)))) for kind in (0, 1))


def flip_probability(params: DriveParams, t):
    """Probability that a spin prepared in |up> is measured down after time t.

    Equals (omega^2/obar^2) sin^2(obar t) and by symmetry also serves as
    the down-to-up probability.  Accepts scalar or array t.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("time must be >= 0")
    obar = params.effective_rabi
    if obar == 0.0:
        out = np.zeros_like(t)
        return out if out.shape else float(out)
    a = (params.omega / obar) ** 2
    out = a * np.sin(obar * t) ** 2
    return out if out.shape else float(out)


def free_excitation_density(params: DriveParams, t, n0):
    """Mean excitation density at time t for reset-free evolution.

    n0 is the excitation density of the (product) initial condition:
    a fraction n0 of the spins starts in |up>, the rest in |down>.
    The up and down branches are mirror images, d_up = 1 - d_down.
    """
    n0 = np.asarray(n0, dtype=float)
    if np.any(n0 < 0.0) or np.any(n0 > 1.0):
        raise ValueError("n0 must lie in [0, 1]")
    p = flip_probability(params, t)
    out = n0 * (1.0 - p) + (1.0 - n0) * p
    return out if np.ndim(out) else float(out)


def sample_waiting_time(dist: WaitingTime, rng: np.random.Generator, size=None):
    """Draw waiting times by inverse-CDF sampling."""
    u = rng.random(size)
    out = waiting_time_from_uniform(dist, u)
    return out if size is not None else float(out)


@dataclass
class TrajectoryState:
    """Sufficient statistics of one trajectory between resets."""

    n0: float
    t_last_reset: float
    count: Optional[int] = None  # up-origin count at the last reset (finite N)


def measurement_outcome(protocol: ProtocolKind, n_spins: Optional[int], p: float,
                        n0: float, rng: np.random.Generator) -> float:
    """Measured excitation density at a reset event.

    Thermodynamic limit: self-averaging makes the outcome the
    deterministic mean density.  Finite N: the up-origins and
    down-origins contribute independent binomial counts, drawn by
    inverse transform from two uniforms (always two, so the stream
    advances identically for every protocol).
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"flip probability {p} outside [0, 1]")
    if n_spins is None:
        return n0 * (1.0 - p) + (1.0 - n0) * p
    m = int(round(n0 * n_spins))
    if abs(m - n0 * n_spins) > 1e-9:
        raise ValueError(f"n0={n0} is not a multiple of 1/{n_spins}")
    u_up = rng.random()
    u_down = rng.random()
    stay_up = binomial_quantile(u_up, m, 1.0 - p)
    flip_up = binomial_quantile(u_down, n_spins - m, p)
    return (int(stay_up) + int(flip_up)) / n_spins


def apply_reset_rule(protocol: ProtocolKind, n_hat: float) -> float:
    """Origin density right after a reset, given the measured density."""
    if not (0.0 <= n_hat <= 1.0):
        raise ValueError(f"measured density {n_hat} outside [0, 1]")
    if protocol is ProtocolKind.UNCONDITIONAL_RESET:
        return 1.0
    if protocol is ProtocolKind.CONDITIONAL_TWO_STATE:
        return 1.0 if n_hat > 0.5 else 0.0
    if protocol is ProtocolKind.CONDITIONAL_FLIP:
        return 1.0 if n_hat > 0.5 else 1.0 - n_hat
    raise ValueError(f"unknown protocol {protocol!r}")

def run_trajectory(config: SimConfig, rng: np.random.Generator,
                   measure_rng: Optional[np.random.Generator] = None):
    """One trajectory, recorded on the sample grid.

    Returns (density, two_point, pair_state) arrays.  rng supplies the
    waiting times; measure_rng the measurement draws (defaults to rng).
    The vectorized ensemble reproduces this function exactly when the
    two streams are the per-trajectory streams documented in
    run_ensemble.
    """
    mrng = rng if measure_rng is None else measure_rng
    params, dist, n_spins = config.params, config.dist, config.n_spins
    proto = config.protocol
    state = TrajectoryState(n0=1.0, t_last_reset=0.0,
                            count=n_spins if n_spins is not None else None)
    next_reset = sample_waiting_time(dist, rng)
    grid = np.asarray(config.sample_grid)
    acc = new_accumulators(len(grid))
    for gi, tg in enumerate(grid):
        while next_reset <= tg:
            tau = next_reset - state.t_last_reset
            p = float(np.clip(phase_terms(params, np.asarray(tau))[0], 0.0, 1.0))
            if proto is ProtocolKind.UNCONDITIONAL_RESET:
                state.n0 = 1.0
            else:
                n_hat = measurement_outcome(proto, n_spins, p, state.n0, mrng)
                state.n0 = apply_reset_rule(proto, n_hat)
            if n_spins is not None:
                if proto is ProtocolKind.CONDITIONAL_FLIP:
                    state.count = int(round(state.n0 * n_spins))
                else:
                    state.count = n_spins if state.n0 == 1.0 else 0
                state.n0 = state.count / n_spins
            _check_state_invariant(proto, state)
            state.t_last_reset = next_reset
            next_reset += sample_waiting_time(dist, rng)
        s = np.asarray([tg - state.t_last_reset])
        if n_spins is None:
            record_thermo(params, s, np.asarray([state.n0]), acc, gi)
        else:
            record_finite(params, s, np.asarray([float(state.count)]), n_spins, acc, gi)
    return acc["sd"].copy(), acc["sx"].copy(), acc["pair"].copy()


def new_accumulators(n_grid):
    """One drive's moment sums on a grid of n_grid points, all zero."""
    acc = {key: np.zeros(n_grid) for key in ("sd", "sd2", "sx", "sx2", "sdx")}
    acc["pair"] = np.zeros((n_grid, 4, 4), dtype=complex)
    return acc


def phase_terms(params: DriveParams, s: np.ndarray):
    """flip probability p(s), sin^2 and sin*cos of the Rabi phase."""
    obar = params.effective_rabi
    if obar == 0.0:
        z = np.zeros_like(s)
        return z, z, z
    sin = np.sin(obar * s)
    cos = np.cos(obar * s)
    s2 = sin * sin
    return (params.omega / obar) ** 2 * s2, s2, sin * cos


def coherence(params: DriveParams, s2: np.ndarray, sc: np.ndarray) -> np.ndarray:
    """Off-diagonal entry of the up-branch qubit state."""
    obar = params.effective_rabi
    if obar == 0.0:
        return np.zeros_like(s2, dtype=complex)
    return (params.delta * params.omega / obar**2) * s2 + 1j * (params.omega / obar) * sc


def pair_accumulate(out, weights, left, right):
    # sum_n w_n * kron(left_n, right_n), laid out as a 4x4 block
    out += np.einsum("n,nij,nkl->ikjl", weights, left, right, optimize=False).reshape(4, 4)


def accumulate_scalars(acc, gi, d, x):
    acc["sd"][gi] += d.sum()
    acc["sd2"][gi] += (d * d).sum()
    acc["sx"][gi] += x.sum()
    acc["sx2"][gi] += (x * x).sum()
    acc["sdx"][gi] += (d * x).sum()


def record_thermo(params, s, n0, acc, gi):
    """Record rows at ages s with origin densities n0 into acc at grid point gi."""
    p, s2, sc = phase_terms(params, s)
    d = n0 + (1.0 - 2.0 * n0) * p
    coh = (2.0 * n0 - 1.0) * coherence(params, s2, sc)
    mu = np.empty(s.shape + (2, 2), dtype=complex)
    mu[:, 0, 0] = d
    mu[:, 1, 1] = 1.0 - d
    mu[:, 0, 1] = coh
    mu[:, 1, 0] = coh.conj()
    x = d * d
    accumulate_scalars(acc, gi, d, x)
    pair_accumulate(acc["pair"][gi], np.ones_like(d), mu, mu)
    return d, x


def record_finite(params, s, count, n_spins, acc, gi):
    """Record rows at ages s with up-origin counts count (floats) into acc."""
    p, s2, sc = phase_terms(params, s)
    coh = coherence(params, s2, sc)
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
    accumulate_scalars(acc, gi, d, x)
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
    pair_accumulate(pair, c_uu, rho_up, rho_up)
    pair_accumulate(pair, c_ud, rho_up, rho_down)
    pair_accumulate(pair, c_ud, rho_down, rho_up)
    pair_accumulate(pair, c_dd, rho_down, rho_down)
    return d, x


def _check_state_invariant(proto, state):
    if proto is ProtocolKind.UNCONDITIONAL_RESET:
        assert state.n0 == 1.0
    elif proto is ProtocolKind.CONDITIONAL_TWO_STATE:
        assert state.n0 in (0.0, 1.0)
    else:
        assert 0.5 <= state.n0 <= 1.0 or abs(state.n0 - 0.5) < 1e-12


class GridWalk:
    """A chunk's resets applied grid point by grid point.

    Built from a spinreset.trajectory_sim._ChunkState whose rows are
    trajectories 0, 1, ..., before its scan, it copies the reset times and
    the starting origins, and draws each row's measurement uniforms from
    numpy_streams.  advance_to(tg) applies every reset with t <= tg, one
    pass per reset over the rows that still have one due, each row's next
    reset and measurement uniforms found by its cursor.
    """

    def __init__(self, chunk):
        self.config, self.measured = chunk.config, chunk.measured
        self.obar, self.ratio = chunk.obar, chunk.ratio
        self.resets = chunk.resets.copy()
        self.origin = chunk.origin.copy()
        self.cursor = np.zeros(len(self.resets), dtype=np.int64)
        self.t_last = np.zeros(len(self.resets))
        if self.measured:  # two uniforms per reset up to the last grid time
            due = np.count_nonzero(self.resets <= self.config.sample_grid[-1], axis=1)
            self.meas_u = np.zeros((len(due), 2 * int(due.max())))
            for i, (row, k) in enumerate(zip(self.meas_u, due)):
                row[:2 * k] = numpy_streams(self.config.seed, i)[1].random(2 * k)

    def states(self, grid):
        """(grid points, drives, rows) origins and (grid points, rows) last reset times."""
        origins, t_last = [], []
        for tg in grid:
            self.advance_to(tg)
            origins.append(self.origin.copy())
            t_last.append(self.t_last.copy())
        return np.stack(origins), np.stack(t_last)

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
                if self.measured:
                    self.finite_measurement(idx, p)
                else:
                    n0 = self.origin[:, idx]
                    d = n0 + (1.0 - 2.0 * n0) * p
                    flipped = 0.0 if proto is ProtocolKind.CONDITIONAL_TWO_STATE else 1.0 - d
                    self.origin[:, idx] = np.where(d > 0.5, 1.0, flipped)
            self.t_last[idx] = t_reset
            self.cursor[idx] += 1

    def finite_measurement(self, idx, p):
        """New up-counts origin[..., idx]; a row's uniforms serve every drive."""
        n = self.config.n_spins
        proto = self.config.protocol
        half = (n - 1) // 2
        count = self.origin[..., idx]
        base = 2 * self.cursor[idx] + 0 * count  # per drive and row: all read the row's
        u_up = self.meas_u[idx, base]
        u_down = self.meas_u[idx, base + 1]
        if proto is ProtocolKind.CONDITIONAL_TWO_STATE:
            up = count == n
            u = np.where(up, u_up, u_down)
            q = np.where(up, 1.0 - p, p)
            self.origin[..., idx] = np.where(_quantile_at_most(u, n, q, half), 0, n)
        else:
            q = 1.0 - p
            flip_up = binomial_quantile(u_down, n - count, p)
            flip = _quantile_at_most(u_up, count, q, half - flip_up)
            stay_up = binomial_quantile(u_up[flip], count[flip], q[flip])
            count[...] = n
            count[flip] = n - stay_up - flip_up[flip]
            self.origin[..., idx] = count
