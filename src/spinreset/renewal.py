"""Waiting-time laws and exact stationary states of the reset protocols.

A reset happens after a random waiting time tau ~ f(tau); between resets
the spins evolve freely.  Averaging a free trajectory against the
survival function q(t) = P(tau > t) gives the stationary state of the
unconditional protocol; the conditional protocol mixes the averages
from all-up and all-down with the stationary weights of its reset
chain, which follow from whether that chain can leave all-up.

Trajectory entries are TrigPoly objects, so every time integral here is
done term by term in closed form; an adaptive vector-quadrature path
exists as an independent cross-check for callables.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate

from .finite_size import _check_n
from .spin_dynamics import DriveParams, free_pair_poly, free_qubit_poly
from .trigpoly import TrigPoly

WEIGHT_TOL = 1e-12


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
        elif self.t_max is not None:
            raise ValueError("t_max only applies to the chopped-exponential law")

    @classmethod
    def poisson(cls, gamma: float) -> "WaitingTime":
        return cls(WaitingKind.POISSON, gamma)

    @classmethod
    def chopped(cls, gamma: float, t_max: float) -> "WaitingTime":
        return cls(WaitingKind.CHOPPED_EXPONENTIAL, gamma, t_max)


def survival_probability(dist: WaitingTime, t):
    """P(tau > t): exp(-gamma t), truncated and renormalized when chopped."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("time must be >= 0")
    if dist.kind is WaitingKind.POISSON:
        out = np.exp(-dist.gamma * t)
    else:
        e_max = math.exp(-dist.gamma * dist.t_max)
        out = np.where(
            t < dist.t_max,
            (np.exp(-dist.gamma * t) - e_max) / (1.0 - e_max),
            0.0,
        )
    return out if out.shape else float(out)


def waiting_density(dist: WaitingTime, t):
    """Probability density f(t) of the waiting time."""
    t = np.asarray(t, dtype=float)
    g = dist.gamma
    if dist.kind is WaitingKind.POISSON:
        out = g * np.exp(-g * t)
    else:
        norm = 1.0 - math.exp(-g * dist.t_max)
        out = np.where(t < dist.t_max, g * np.exp(-g * t) / norm, 0.0)
    return out if out.shape else float(out)


def waiting_time_from_uniform(dist: WaitingTime, u):
    """Inverse-CDF transform of uniform draws u in [0, 1)."""
    g = dist.gamma
    if dist.kind is WaitingKind.POISSON:
        return -np.log1p(-np.asarray(u)) / g
    scale = 1.0 - math.exp(-g * dist.t_max)
    return -np.log1p(-np.asarray(u) * scale) / g


# ---------------------------------------------------------------------------
# Survival-weighted time averages.
# ---------------------------------------------------------------------------


def _fourier_weight(dist: WaitingTime, w: float) -> complex:
    """U(w) = integral q(t) exp(i w t) dt over the support of q."""
    g = dist.gamma
    if dist.kind is WaitingKind.POISSON:
        return 1.0 / (g - 1j * w)
    t_max = dist.t_max
    e_max = math.exp(-g * t_max)
    part = (1.0 - np.exp((1j * w - g) * t_max)) / (g - 1j * w)
    if w == 0.0:
        osc = t_max
    else:
        osc = (np.exp(1j * w * t_max) - 1.0) / (1j * w)
    return (part - e_max * osc) / (1.0 - e_max)


def _average_poly(dist: WaitingTime, poly: TrigPoly):
    u0 = _fourier_weight(dist, 0.0).real
    val = sum(c * _fourier_weight(dist, w) for w, c in poly.coeffs.items()) / u0
    return val.real if poly.is_real() else val


def _quad_upper_limit(dist: WaitingTime) -> float:
    if dist.kind is WaitingKind.POISSON:
        # exp(-60) ~ 9e-27, far below the 1e-8 agreement target
        return 60.0 / dist.gamma
    return dist.t_max


def _average_callable(dist: WaitingTime, f):
    val, _ = integrate.quad_vec(lambda t: survival_probability(dist, t) * f(t),
                                0.0, _quad_upper_limit(dist))
    return val / _fourier_weight(dist, 0.0).real


def exp_weighted_average(dist: WaitingTime, f):
    """Average a free trajectory against the survival weight q(t)/q_hat.

    f may be a TrigPoly, an object array of TrigPoly (integrated in
    closed form term by term) or a plain callable t -> scalar/array.  A
    callable is integrated as a whole by one adaptive vector quadrature
    (scipy.integrate.quad_vec), so every entry shares the same
    subintervals; the two paths agree to 1e-8.
    """
    if isinstance(f, TrigPoly):
        return _average_poly(dist, f)
    if isinstance(f, np.ndarray) and f.dtype == object:
        out = np.empty(f.shape, dtype=complex)
        for idx in np.ndindex(*f.shape):
            out[idx] = _average_poly(dist, f[idx])
        return out
    if callable(f):
        return _average_callable(dist, f)
    raise TypeError(f"cannot average object of type {type(f).__name__}")


# ---------------------------------------------------------------------------
# Last-renewal state at finite time (Poisson resetting only).
# ---------------------------------------------------------------------------


def _renewal_value(poly: TrigPoly, gamma: float, t: float) -> complex:
    # exp(-g t) f(t) + g * integral_0^t exp(-g s) f(s) ds, term by term
    val = 0.0 + 0.0j
    for w, c in poly.coeffs.items():
        z = 1j * w - gamma
        ez = np.exp(z * t)
        val += c * ez + gamma * c * (ez - 1.0) / z
    return val


def renewal_state_at_time(params: DriveParams, gamma: float, t: float, pair: bool = False):
    """State of the unconditional protocol at finite time t (from |up>).

    Sum of the survival term exp(-gamma t) rho_free(t) and the
    reset-history integral; converges to stationary_state_p1 as t grows.
    Stated for Poisson resetting only.
    """
    if not (gamma > 0.0):
        raise ValueError(f"gamma must be > 0, got {gamma}")
    if t < 0.0:
        raise ValueError("time must be >= 0")
    entries = free_pair_poly(params, "up", "up") if pair else free_qubit_poly(params, "up")
    out = np.empty(entries.shape, dtype=complex)
    for idx in np.ndindex(*entries.shape):
        out[idx] = _renewal_value(entries[idx], gamma, t)
    return 0.5 * (out + out.conj().T)


# ---------------------------------------------------------------------------
# Stationary states.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResetWeights:
    """Stationary weights of the all-up and all-down reset branches."""

    c_up: float
    c_down: float
    degenerate: bool = False

    def __post_init__(self):
        vals = (self.c_up, self.c_down)
        if any(v < -WEIGHT_TOL or v > 1.0 + WEIGHT_TOL for v in vals):
            raise ValueError(f"weights outside [0, 1]: {vals}")
        if abs(self.c_up + self.c_down - 1.0) > WEIGHT_TOL:
            raise ValueError("c_up + c_down must equal 1")


@dataclass(frozen=True)
class StationaryState:
    """Stationary single-spin and two-spin states plus the scalar density."""

    state: np.ndarray
    pair_state: np.ndarray
    density: float
    weights: ResetWeights | None = None
    note: str = field(default="")


def _stationary_from_branches(dist: WaitingTime, params: DriveParams, branches):
    """Mix survival-weighted averages of free evolutions from pure origins."""
    state = np.zeros((2, 2), dtype=complex)
    pair = np.zeros((4, 4), dtype=complex)
    for weight, origin in branches:
        if weight == 0.0:
            continue
        state += weight * exp_weighted_average(dist, free_qubit_poly(params, origin))
        pair += weight * exp_weighted_average(dist, free_pair_poly(params, origin, origin))
    return 0.5 * (state + state.conj().T), 0.5 * (pair + pair.conj().T)


def stationary_state_p1(params: DriveParams, dist: WaitingTime) -> StationaryState:
    """Stationary state of the unconditional protocol (reset to all-up)."""
    state, pair = _stationary_from_branches(dist, params, [(1.0, "up")])
    return StationaryState(state, pair, float(state[0, 0].real))


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
        t1 = math.asin(math.sqrt(w**2 / (2.0 * params.omega**2))) / w
        leaves = dist.t_max is None or t1 < dist.t_max
    else:
        leaves = False
    if leaves:
        return ResetWeights(0.5, 0.5)
    degenerate = n_spins is None and params.omega == params.delta and params.omega > 0.0
    return ResetWeights(1.0, 0.0, degenerate=degenerate)


def stationary_state_p2(params: DriveParams, dist: WaitingTime,
                        n_spins: int | None = None) -> StationaryState:
    """Stationary state of the conditional (majority-vote) protocol.

    A weighted mixture of the survival-averaged evolutions from all-up
    and all-down.  With equal weights the density is 1/2 by symmetry,
    and that value is returned exactly.
    """
    weights = reset_rates_R(params, dist, n_spins)
    state, pair = _stationary_from_branches(
        dist, params, [(weights.c_up, "up"), (weights.c_down, "down")]
    )
    if weights.c_up == weights.c_down:
        density = 0.5
    else:
        density = float(state[0, 0].real)
    note = "omega == delta assigned to the omega < delta branch" if weights.degenerate else ""
    return StationaryState(state, pair, density, weights=weights, note=note)
