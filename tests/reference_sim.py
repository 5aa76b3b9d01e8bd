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

TrigPoly and branch_mix_poly are the oracle of the exact stationary
states: one drive at a time, with Python complex coefficients keyed by
their exact float frequency, which the package's stacked trig-polynomial
batch reproduces bit for bit on every row with obar > 0.

binomial_quantile walks from the engine's normal start by bdtr comparisons
alone.  It is the oracle of trajectory_sim.binomial_quantile, which settles
most comparisons with pmf estimates and must return the same integers, and
the count draws of measurement_outcome and GridWalk use it.

propagator and free_two_spin_state rebuild obar and the Rabi axis on
every call: the oracle of the package's per-drive axis, which must keep
their bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import bdtr, ndtri

from spinreset.renewal import (_CHOPPED_SERIES_BELOW, _PHI2_TERMS, WaitingKind, WaitingTime,
                               _chopped_mass, waiting_time_from_uniform)
from spinreset.spin_dynamics import (DOWN, IDENTITY_2, SIGMA_X, SIGMA_Z, UP, DriveParams,
                                     _amplitude_coeffs)
from spinreset.trajectory_sim import ProtocolKind, SimConfig


def binomial_quantile(u, n, p):
    """Smallest k with bdtr(k, n, p) >= u, vectorized, by bdtr comparisons alone.

    The search starts from the Cornish-Fisher normal estimate
    n p + sd z + (1 - 2p)(z^2 - 1)/6 with z = ndtri(u) (0 or n where z
    is infinite), rounded and clipped to [0, n].  It then walks down while
    bdtr one below still reaches u, then up while bdtr falls short of it,
    each pass over the elements that moved on the one before.
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
        finite = np.isfinite(z)
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


def propagator(params: DriveParams, t: float) -> np.ndarray:
    """Single-spin unitary exp(-i H t), with obar and the axis recomputed per call."""
    obar = params.effective_rabi
    if obar == 0.0:
        return IDENTITY_2.copy()
    axis = (params.omega * SIGMA_X + params.delta * SIGMA_Z) / obar
    th = obar * t
    return np.cos(th) * IDENTITY_2 - 1j * np.sin(th) * axis


def evolve(params: DriveParams, t: float, rho: np.ndarray) -> np.ndarray:
    """Conjugation of rho by the reference propagator."""
    u = propagator(params, t)
    return u @ rho @ u.conj().T


def free_two_spin_state(params: DriveParams, t: float, init_j: str, init_k: str) -> np.ndarray:
    """Product state of two spins evolved from |init_j init_k> by the reference propagator."""
    origin = {"up": UP, "down": DOWN}
    rj = evolve(params, t, origin[init_j])
    rk = evolve(params, t, origin[init_k])
    return (rj[:, None, :, None] * rk[None, :, None, :]).reshape(4, 4)


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
        # both counts drawn in full, as measurement_outcome draws them
        measured = binomial_quantile(u_up, count, 1.0 - p) + binomial_quantile(u_down, n - count, p)
        if proto is ProtocolKind.CONDITIONAL_TWO_STATE:
            self.origin[..., idx] = np.where(measured <= half, 0, n)
        else:
            self.origin[..., idx] = np.where(measured <= half, n - measured, n)


# ---------------------------------------------------------------------------
# Trig-polynomial oracle of the exact stationary states.  Every coefficient
# is kept, exact zeros included, as the package's stacked batch keeps them.
# ---------------------------------------------------------------------------


class TrigPoly:
    """A finite sum of complex exponentials c_w * exp(i w t)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs: dict[float, complex] = {}
        for w, c in (coeffs or {}).items():
            self._add_term(w, c)

    def _add_term(self, w, c):
        key = 0.0 if w == 0.0 else float(w)  # -0.0 lands on the 0.0 term
        self.coeffs[key] = self.coeffs.get(key, 0.0) + complex(c)

    @classmethod
    def constant(cls, c) -> "TrigPoly":
        return cls({0.0: c})

    def __add__(self, other) -> "TrigPoly":
        out = TrigPoly(self.coeffs)
        if isinstance(other, TrigPoly):
            for w, c in other.coeffs.items():
                out._add_term(w, c)
        else:
            out._add_term(0.0, other)
        return out

    __radd__ = __add__

    def __mul__(self, other) -> "TrigPoly":
        out = TrigPoly()
        if isinstance(other, TrigPoly):
            for w1, c1 in self.coeffs.items():
                for w2, c2 in other.coeffs.items():
                    out._add_term(w1 + w2, c1 * c2)
        else:
            for w, c in self.coeffs.items():
                out._add_term(w, c * complex(other))
        return out

    __rmul__ = __mul__

    def conj(self) -> "TrigPoly":
        return TrigPoly({-w: np.conj(c) for w, c in self.coeffs.items()})

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape, dtype=complex)
        for w, c in self.coeffs.items():
            out = out + c * np.exp(1j * w * t)
        return out if out.shape else complex(out)


def poly_matrix(entries) -> np.ndarray:
    """Pack a nested list of TrigPoly into an object array."""
    out = np.empty((len(entries), len(entries[0])), dtype=object)
    for i, row in enumerate(entries):
        for j, e in enumerate(row):
            out[i, j] = e
    return out


def kron_poly(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two object arrays of TrigPoly."""
    (ra, ca), (rb, cb) = a.shape, b.shape
    out = np.empty((ra * rb, ca * cb), dtype=object)
    for i, j, k, m in np.ndindex(ra, ca, rb, cb):
        out[i * rb + k, j * cb + m] = a[i, j] * b[k, m]
    return out


def free_amplitudes(params: DriveParams, init: str):
    """Spinor amplitudes (a_up(t), a_down(t)) of one drive as TrigPoly."""
    obar = params.effective_rabi
    if obar == 0.0:
        one, zero = TrigPoly.constant(1.0), TrigPoly()
        return (one, zero) if init == "up" else (zero, one)
    alpha, beta = (TrigPoly({obar: plus, -obar: minus})
                   for plus, minus in _amplitude_coeffs(params.omega, params.delta, obar))
    return (alpha, beta) if init == "up" else (beta, alpha.conj())


def free_qubit_poly(params: DriveParams, init: str) -> np.ndarray:
    """Entries of the reset-free qubit state as a 2x2 array of TrigPoly."""
    amps = free_amplitudes(params, init)
    return poly_matrix([[amps[i] * amps[j].conj() for j in range(2)] for i in range(2)])


def free_pair_poly(params: DriveParams, init_j: str, init_k: str) -> np.ndarray:
    """Entries of the reset-free two-spin product state, 4x4 TrigPoly array."""
    return kron_poly(free_qubit_poly(params, init_j), free_qubit_poly(params, init_k))


def flip_probability_poly(params: DriveParams) -> TrigPoly:
    """The flip probability (omega/obar)^2 sin^2(obar t) (frequencies 0, +-2 obar)."""
    obar = params.effective_rabi
    if obar == 0.0:
        return TrigPoly()
    a = (params.omega / obar) ** 2
    # sin^2(obar t) = 1/2 - cos(2 obar t)/2
    return TrigPoly({0.0: 0.5 * a, 2.0 * obar: -0.25 * a, -2.0 * obar: -0.25 * a})


def _phi2(x):
    """(exp(x) - 1 - x) / x^2 of one float or complex128, by its Taylor series where |x| < 1."""
    if abs(x) >= 1.0:
        return (np.exp(x) - 1.0 - x) / (x * x)
    acc = _PHI2_TERMS[-1]
    for c in _PHI2_TERMS[-2::-1]:
        acc = acc * x + c
    return acc


def _fourier_weight_short(g: float, t_max: float, w: float):
    """U(w) of the chopped law at small gamma * t_max, as complex128: the short form
    of renewal._fourier_weights, one scalar step at a time."""
    a = g * t_max
    one_minus_c = _chopped_mass(g, t_max)
    head = one_minus_c - a * _phi2(-a)
    if w == 0.0:
        return np.complex128(t_max * (head / one_minus_c))
    x = np.complex128(1j * w * t_max)
    bracket = head - math.exp(-a) * (x * _phi2(x))
    return a * (bracket / one_minus_c) / (g - 1j * w)


def _fourier_weight(dist: WaitingTime, w: float) -> complex:
    """U(w) = integral q(t) exp(i w t) dt over the support of q, one real w at a time:
    a Python complex (Poisson) or complex128 (chopped), the oracle of
    renewal._fourier_weights."""
    g = dist.gamma
    if dist.kind is WaitingKind.POISSON:
        return 1.0 / (g - 1j * w)
    t_max = dist.t_max
    if g * t_max < _CHOPPED_SERIES_BELOW:
        return _fourier_weight_short(g, t_max, w)
    e_max = math.exp(-g * t_max)
    part = (1.0 - np.exp((1j * w - g) * t_max)) / (g - 1j * w)
    if w == 0.0:
        osc = t_max
    else:
        osc = (np.exp(1j * w * t_max) - 1.0) / (1j * w)
    return (part - e_max * osc) / (1.0 - e_max)


def average_poly(dist: WaitingTime, poly: TrigPoly) -> complex:
    """Survival-weighted average of a TrigPoly, term by term in closed form."""
    u0 = _fourier_weight(dist, 0.0).real
    return sum(c * _fourier_weight(dist, w) for w, c in poly.coeffs.items()) / u0


def branch_mix_poly(dist: WaitingTime, params: DriveParams, branches):
    """Stationary (state, pair) of one drive: survival-averaged free evolutions from the
    pure origins of branches = [(weight, origin), ...], mixed by weight."""
    state = np.zeros((2, 2), dtype=complex)
    pair = np.zeros((4, 4), dtype=complex)
    for weight, origin in branches:
        if weight == 0.0:
            continue
        for out, entries in ((state, free_qubit_poly(params, origin)),
                             (pair, free_pair_poly(params, origin, origin))):
            avg = np.empty(entries.shape, dtype=complex)
            for idx in np.ndindex(*entries.shape):
                avg[idx] = average_poly(dist, entries[idx])
            out += weight * avg
    return 0.5 * (state + state.conj().T), 0.5 * (pair + pair.conj().T)
