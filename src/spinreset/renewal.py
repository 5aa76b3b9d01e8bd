"""Waiting-time laws and exact stationary states of the reset protocols.

A reset happens after a random waiting time tau ~ f(tau); between resets
the spins evolve freely.  Averaging a free trajectory against the
survival function q(t) = P(tau > t) gives the stationary state of the
unconditional protocol; the conditional protocol mixes the averages
from all-up and all-down with the stationary weights of its reset
chain, which follow from whether that chain can leave all-up.

Trajectory entries are trig polynomials on the multiples k * obar of
the drive's frequency, so every time integral here is done term by term
in closed form, against survival weights U(k * obar) that one array call
gives for a whole grid.  The stationary states of a grid of drives, one
drive included, are built and averaged in one stacked pass (TrigPolyBatch);
rows with obar = 0 have no dynamics and are their origin states.  An
adaptive vector quadrature, its integrand on a panel's nodes at once, is
an independent cross-check.

ProtocolKind is defined here with the two rules every path reads:
has_exact_state and measures.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import integrate
from .finite_size import _check_n
from .spin_dynamics import DOWN, UP, DriveParams, free_pair_poly, free_qubit_poly
from .trigpoly import TrigPolyBatch


class ProtocolKind(enum.Enum):
    UNCONDITIONAL_RESET = 1
    CONDITIONAL_TWO_STATE = 2
    CONDITIONAL_FLIP = 3

    @property
    def has_exact_state(self) -> bool:
        """Protocols 1 and 2 have an exact stationary state, at any N."""
        return self in (ProtocolKind.UNCONDITIONAL_RESET, ProtocolKind.CONDITIONAL_TWO_STATE)

    def measures(self, n_spins) -> bool:
        """A conditional protocol at finite N measures a finite sample at each reset."""
        return n_spins is not None and self is not ProtocolKind.UNCONDITIONAL_RESET


class WaitingKind(enum.Enum):
    POISSON = "poisson"
    CHOPPED_EXPONENTIAL = "chopped-exponential"


@dataclass(frozen=True)
class WaitingTime:
    """Reset waiting-time law: Poisson rate or truncated exponential."""

    kind: WaitingKind
    gamma: float
    t_max: float | None = None

    def __post_init__(self):
        if not (0.0 < self.gamma < math.inf):
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")
        if self.kind is WaitingKind.CHOPPED_EXPONENTIAL:
            if self.t_max is None or not (0.0 < self.t_max < math.inf):
                raise ValueError(f"t_max must be finite and > 0, got {self.t_max}")
            for name, value in (("t_max", self.t_max), ("gamma * t_max", self.gamma * self.t_max)):
                if value < sys.float_info.min:  # U(w) ~ t_max / 2 is built from both
                    raise ValueError(f"{name} = {value:g} is below the smallest normal float: "
                                     "the chopped law's survival weights would underflow")
        elif self.t_max is not None:
            raise ValueError("t_max only applies to the chopped-exponential law")

    @classmethod
    def poisson(cls, gamma: float) -> "WaitingTime":
        return cls(WaitingKind.POISSON, gamma)

    @classmethod
    def chopped(cls, gamma: float, t_max: float) -> "WaitingTime":
        return cls(WaitingKind.CHOPPED_EXPONENTIAL, gamma, t_max)


# Below this gamma * t_max the chopped law's U(w) and closed-form density
# go through phi2 (the two-fraction U(w) cancels to about
# 1e-16 / (gamma t_max)^2); from here up they keep their direct forms.
_CHOPPED_SERIES_BELOW = 0.5


def _chopped_mass(g: float, t_max: float) -> float:
    """1 - exp(-g t_max), the chopped law's normalization."""
    return -math.expm1(-g * t_max)


def survival_probability(dist: WaitingTime, t):
    """P(tau > t): exp(-gamma t), truncated and renormalized when chopped."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("time must be >= 0")
    g = dist.gamma
    if dist.kind is WaitingKind.POISSON:
        out = np.exp(-g * t)
    else:
        # exp(-g t) - exp(-g t_max) = exp(-g t) (1 - exp(-g (t_max - t)))
        t_max = dist.t_max
        inside = np.minimum(t, t_max)
        tail = np.exp(-g * inside) * -np.expm1(-g * (t_max - inside))
        out = np.where(t < t_max, tail / _chopped_mass(g, t_max), 0.0)
    return out if out.shape else float(out)


def waiting_time_from_uniform(dist: WaitingTime, u):
    """Inverse-CDF transform of uniform draws u in [0, 1)."""
    g = dist.gamma
    if dist.kind is WaitingKind.POISSON:
        return -np.log1p(-np.asarray(u)) / g
    scale = _chopped_mass(g, dist.t_max)
    return -np.log1p(-np.asarray(u) * scale) / g


# ---------------------------------------------------------------------------
# Survival-weighted time averages.
# ---------------------------------------------------------------------------


_PHI2_TERMS = tuple(1.0 / math.factorial(k + 2) for k in range(20))

# U(w) repeats one scalar quotient's steps per w on complex128 arrays.  Sums and
# np.exp round as on scalars; products and quotients are written out on the parts,
# as CPython's complex and numpy's complex128 scalars form them (x enters as x + 0j).


def _pack(re, im) -> np.ndarray:
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real, out.imag = re, im  # signed zeros kept
    return out


def _cmul(a, b) -> np.ndarray:
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return _pack(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def _cdiv(a, b, reciprocal: bool) -> np.ndarray:
    """a / b (b != 0) by Smith's method: CPython divides both parts by the scale,
    numpy (reciprocal) multiplies them by its reciprocal."""
    (ar, ai), (br, bi) = ((x.real, x.imag) for x in np.broadcast_arrays(a, b, subok=False))
    wide = np.abs(br) >= np.abs(bi)
    big, small = np.where(wide, br, bi), np.where(wide, bi, br)
    ratio = small / big
    scale = big + small * ratio
    re = np.where(wide, ar + ai * ratio, ar * ratio + ai)
    im = np.where(wide, ai - ar * ratio, ai * ratio - ar)
    if reciprocal:
        scale = 1.0 / scale
        return _pack(re * scale, im * scale)
    return _pack(re / scale, im / scale)


def _phi2(x) -> np.ndarray:
    """(exp(x) - 1 - x) / x^2 at each complex128 x, by its Taylor series where |x| < 1;
    at a real x the real part has the bits of the series on floats."""
    x = np.asarray(x, dtype=complex)
    out = np.empty_like(x)
    direct = np.hypot(x.real, x.imag) >= 1.0  # abs() of a complex128
    d, s = x[direct], x[~direct]
    out[direct] = _cdiv(np.exp(d) - 1.0 - d, _cmul(d, d), True)
    acc = np.full_like(s, _PHI2_TERMS[-1])
    for c in _PHI2_TERMS[-2::-1]:
        acc = _cmul(acc, s) + c
    out[~direct] = acc
    return out


def _fourier_weights(dist: WaitingTime, w) -> np.ndarray:
    """U(w) = integral q(t) exp(i w t) dt over the support of q, for an array of real w.

    Each element has the bits of the scalar form: the Poisson law's
    CPython 1 / (gamma - 1j w), the chopped law's numpy complex128.  Below
    gamma * t_max = _CHOPPED_SERIES_BELOW the chopped law's two fractions
    cancel to about 1e-16 / (gamma t_max)^2; with a = g t_max, c = exp(-a)
    and x = i w t_max it is U(w) = a (B / (1 - c)) / (g - i w), where
    B = (1 - c) - a phi2(-a) - c x phi2(x) is of order 1 - c, so no step
    underflows at tiny t_max, and U(0) = t_max (B / (1 - c)).
    """
    w = np.asarray(w, dtype=float)
    g, nonzero = dist.gamma, w != 0.0
    iw = _cmul(1j, w)
    den = g - iw
    if dist.kind is WaitingKind.POISSON:
        return _cdiv(1.0, den, False)
    t_max = dist.t_max
    a = g * t_max
    ix = _cmul(iw, t_max)
    if a < _CHOPPED_SERIES_BELOW:
        one_minus_c = _chopped_mass(g, t_max)
        head = one_minus_c - a * _phi2(-a).real
        bracket = head - _cmul(math.exp(-a), _cmul(ix, _phi2(ix)))
        u = _cdiv(_cmul(a, _cdiv(bracket, one_minus_c, True)), den, True)
        return np.where(nonzero, u, t_max * (head / one_minus_c))
    e_max = math.exp(-g * t_max)
    part = _cdiv(1.0 - np.exp(_cmul(iw - g, t_max)), den, True)
    osc = _cdiv(np.exp(ix) - 1.0, np.where(nonzero, iw, 1j), True)
    return _cdiv(part - _cmul(e_max, np.where(nonzero, osc, t_max)), 1.0 - e_max, True)


def _quad_upper_limit(dist: WaitingTime) -> float:
    if dist.kind is WaitingKind.POISSON:
        # exp(-60) ~ 9e-27, far below the 1e-8 agreement target
        return 60.0 / dist.gamma
    return dist.t_max


def exp_weighted_average_nodes(dist: WaitingTime, f):
    """Average a free trajectory against the survival weight q(t)/q_hat; f maps an array
    of times to the stacked values (times, ...), called once per panel.

    One adaptive vector quadrature (integrate.quad, Gauss-Kronrod 10/21)
    integrates f as a whole, so every entry shares the same subintervals:
    an independent cross-check of the closed-form states, to 1e-8.
    """
    def weighted(nodes):
        vals = np.asarray(f(nodes))
        q = survival_probability(dist, nodes)
        return q.reshape(q.shape + (1,) * (vals.ndim - 1)) * vals

    return integrate.quad(weighted, 0.0, _quad_upper_limit(dist)) / float(_fourier_weights(dist, 0.0).real)


def exp_weighted_average(dist: WaitingTime, f):
    """exp_weighted_average_nodes of f: t -> scalar/array, called at one time after another."""
    if not callable(f):
        raise TypeError(f"cannot average object of type {type(f).__name__}")
    return exp_weighted_average_nodes(dist, lambda nodes: np.array([f(t) for t in nodes.tolist()]))


# ---------------------------------------------------------------------------
# Last-renewal state at finite time (Poisson resetting only).
# ---------------------------------------------------------------------------


def renewal_state_at_time(params: DriveParams, gamma: float, t: float):
    """State of the unconditional protocol at finite time t (from |up>).

    Sum of the survival term exp(-gamma t) rho_free(t) and the
    reset-history integral; converges to stationary_state_p1 as t grows.
    Stated for Poisson resetting only.
    """
    if not (0.0 < gamma < math.inf):
        raise ValueError(f"gamma must be finite and > 0, got {gamma}")
    if t < 0.0:
        raise ValueError("time must be >= 0")
    omega, delta = np.array([params.omega]), np.array([params.delta])
    obar = _exact_rabi(omega, delta)
    if obar[0] == 0.0:
        return UP.copy()
    entries = free_qubit_poly(omega, delta, obar, "up")
    # exp(-g t) f(t) + g * integral_0^t exp(-g s) f(s) ds, term by term
    c = entries.re[:, 0] + 1j * entries.im[:, 0]
    z = 1j * (entries.keys() * obar[0]) - gamma
    ez = np.exp(z * t)
    out = entries.entry_sums(c * ez + gamma * c * (ez - 1.0) / z).reshape(entries.shape)
    return 0.5 * (out + out.conj().T)


# ---------------------------------------------------------------------------
# Stationary states.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResetWeights:
    """Stationary weights of the all-up and all-down reset branches: (1, 0) or
    (1/2, 1/2), the only values reset_rates_R gives."""

    c_up: float
    c_down: float
    degenerate: bool = False


@dataclass(frozen=True)
class StationaryState:
    """Stationary single-spin and two-spin states plus the scalar density."""

    state: np.ndarray
    pair_state: np.ndarray
    density: float
    weights: ResetWeights | None = None
    note: str = field(default="")


def _exact_rabi(omega: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """obar of every drive on the exact path, whose frequencies reach 4 * obar: one
    hypot over the arrays, and the first drive past the float range named."""
    with np.errstate(over="ignore"):
        obar = np.hypot(omega, delta)
        bad = np.flatnonzero(~np.isfinite(4.0 * obar))
    if bad.size:
        raise ValueError(f"omega = {omega[bad[0]]:g}, delta = {delta[bad[0]]:g}: 4 * obar is "
                         "not finite, so the exact state's frequencies overflow")
    return obar


# the free entries live on the frequencies k * obar for these k (sorted)
_MULTIPLES = (-4, -2, 0, 2, 4)
# rows per stacked pass: bounds the (terms x rows) temporaries on any grid
_BLOCK_ROWS = 64


def _average(dist: WaitingTime, entries: TrigPolyBatch, weights: np.ndarray) -> np.ndarray:
    """Survival-weighted average of every entry on every row: (rows, *entries.shape).

    weights[i] is U(_MULTIPLES[i] * obar) per row, so the k = 0 row is
    U(0) on every row.  Each entry's sum over its terms starts at 0 as
    sum() does, and the division by U(0) is the one of the scalar type it
    stands in for: CPython's complex for the Poisson law, numpy's
    complex128 for the chopped law.
    """
    u0 = weights[_MULTIPLES.index(0)].real
    u = weights[np.searchsorted(_MULTIPLES, entries.keys())]
    cr, ci, ur, ui = entries.re, entries.im, u.real, u.imag
    re, im = entries.entry_sums(cr * ur - ci * ui), entries.entry_sums(cr * ui + ci * ur)
    return _cdiv(_pack(re, im), u0, dist.kind is not WaitingKind.POISSON).T.reshape(
        (-1,) + entries.shape)


def _branch_mix(dist: WaitingTime, params_list, mixes):
    """Stacked stationary (state, pair) of rows mixing all-up and all-down.

    mixes[i] = (c_up, c_down) of row i.  The survival weights of the
    whole grid come from one _fourier_weights call; each branch is built
    and averaged once per block of up to _BLOCK_ROWS rows, for a grid of
    any size.  A row with obar = 0 has no dynamics: it is its mix of the
    origin states.
    """
    n = len(params_list)
    omega = np.array([p.omega for p in params_list])
    delta = np.array([p.delta for p in params_list])
    obars = _exact_rabi(omega, delta)
    weights = _fourier_weights(dist, np.multiply.outer(_MULTIPLES, obars))
    still = obars == 0.0
    obar = np.where(still, 1.0, obars)  # still rows: a placeholder, replaced below
    c_up, c_down = np.array(mixes, dtype=float).reshape(n, 2).T
    state = np.zeros((n, 2, 2), dtype=complex)
    pair = np.zeros((n, 4, 4), dtype=complex)
    for block in (slice(lo, lo + _BLOCK_ROWS) for lo in range(0, n, _BLOCK_ROWS)):
        for origin, c in (("up", c_up[block]), ("down", c_down[block])):
            rows = c != 0.0
            if not rows.any():
                continue
            qubit = free_qubit_poly(omega[block], delta[block], obar[block], origin)
            w, u = c[rows, None, None], weights[:, block]
            state[block][rows] += w * _average(dist, qubit, u)[rows]
            pair[block][rows] += w * _average(dist, free_pair_poly(qubit), u)[rows]
    state = 0.5 * (state + state.conj().swapaxes(-1, -2))
    pair = 0.5 * (pair + pair.conj().swapaxes(-1, -2))
    up, down = c_up[still, None, None], c_down[still, None, None]
    state[still] = up * UP + down * DOWN
    pair[still] = up * np.kron(UP, UP) + down * np.kron(DOWN, DOWN)
    return state, pair


def stationary_density_closed_form(params: DriveParams, dist: WaitingTime) -> float:
    """Stationary excitation density of the unconditional protocol.

    Poisson: 1 - 2 omega^2 / (gamma^2 + 4 obar^2).  Chopped exponential:
    the truncated-integral expression below, which reduces to the
    Poisson form as gamma*t_max grows.
    """
    g = dist.gamma
    w = params.effective_rabi
    om2 = params.omega**2
    if w == 0.0:
        return 1.0
    if dist.kind is WaitingKind.POISSON:
        return 1.0 - 2.0 * om2 / (g**2 + 4.0 * w**2)
    t_max = dist.t_max
    gt = g * t_max
    if gt > 700.0:
        corr = 0.0
    elif gt < _CHOPPED_SERIES_BELOW:
        # expm1(gt) - gt = gt^2 phi2(gt); with y = 2 w t_max the bracket is
        # y^2 (Re phi2(iy) + g/(2w) Im phi2(iy)): no term cancels
        p = _phi2(2j * w * t_max)
        corr = 4.0 * w**2 * (p.real + g / (2.0 * w) * p.imag) / _phi2(gt).real
    else:
        s, c = math.sin(w * t_max), math.cos(w * t_max)
        corr = g**2 / (math.expm1(gt) - gt) * (2.0 * s * s - (g / w) * s * c + gt)
    return 1.0 - om2 / (2.0 * w**2 * (g**2 + 4.0 * w**2)) * (4.0 * w**2 - corr)


def reset_rates_R(params: DriveParams, dist: WaitingTime, n_spins: int | None = None) -> ResetWeights:
    """Stationary branch weights of the conditional protocol's reset chain.

    Leaving all-up and leaving all-down are the same function of the flip
    probability, so the chain is symmetric: once it can leave all-up the
    weights are 1/2 each, at any rate.  Otherwise every reset lands on
    all-up and c_up=1.  At finite (odd) N the chain leaves all-up whenever
    omega > 0.  n_spins=None selects the thermodynamic limit, where a reset
    flips only while the flip probability exceeds 1/2: that needs
    omega > delta, and the first such window, opening at t1, must open
    before the waiting-time cutoff.  omega == delta > 0 is assigned to
    the c_up=1 branch and flagged.
    """
    if n_spins is not None:
        _check_n(n_spins)
        leaves = params.omega > 0.0
    elif params.omega > params.delta:
        w = params.effective_rabi
        t1 = math.asin(w / (math.sqrt(2.0) * params.omega)) / w
        leaves = dist.t_max is None or t1 < dist.t_max
    else:
        leaves = False
    if leaves:
        return ResetWeights(0.5, 0.5)
    degenerate = n_spins is None and params.omega == params.delta and params.omega > 0.0
    return ResetWeights(1.0, 0.0, degenerate=degenerate)


def stationary_states(protocol: ProtocolKind, params_list, dist: WaitingTime,
                      n_spins: int | None = None) -> list:
    """Exact stationary states of a protocol for every drive of a grid, in one batched pass.

    Each state mixes the survival-averaged evolutions from all-up and
    all-down: protocol 1 with weights (1, 0), protocol 2 with its reset
    chain's (reset_rates_R).  With equal weights the density is 1/2 by
    symmetry, and that value is returned exactly.  A protocol with no
    exact state raises ValueError.
    """
    if not protocol.has_exact_state:
        raise ValueError(f"protocol {protocol.value} ({protocol.name}) has no exact stationary state")
    if protocol is ProtocolKind.UNCONDITIONAL_RESET:
        weights = [ResetWeights(1.0, 0.0)] * len(params_list)
    else:
        weights = [reset_rates_R(p, dist, n_spins) for p in params_list]
    state, pair = _branch_mix(dist, params_list, [(w.c_up, w.c_down) for w in weights])
    out = []
    for s, p, w in zip(state, pair, weights):
        density = 0.5 if w.c_up == w.c_down else float(s[0, 0].real)
        note = "omega == delta assigned to the omega < delta branch" if w.degenerate else ""
        out.append(StationaryState(s, p, density, weights=w, note=note))
    return out


def stationary_state_p1(params: DriveParams, dist: WaitingTime) -> StationaryState:
    """Stationary state of the unconditional protocol (reset to all-up)."""
    return stationary_states(ProtocolKind.UNCONDITIONAL_RESET, [params], dist)[0]


def stationary_state_p2(params: DriveParams, dist: WaitingTime,
                        n_spins: int | None = None) -> StationaryState:
    """Stationary state of the conditional (majority-vote) protocol."""
    return stationary_states(ProtocolKind.CONDITIONAL_TWO_STATE, [params], dist, n_spins)[0]
