"""Majority-flip probability of N spins at a measurement.

A measurement of the excitation density of N independent spins, each
down with probability p, falls below 1/2 with the binomial tail
probability computed here.  Three regimes: exact summation, the
erf form of the normal approximation and its large-N endpoint
asymptotics.  The thermodynamic limit, a step function at p = 1/2, is
taken in closed form by renewal.reset_rates_R.

N is assumed odd throughout so the measured density can never tie at
exactly 1/2.
"""

from __future__ import annotations

import enum
import math

import numpy as np
from scipy.special import erf, gammaln, xlogy


class ApproxVariant(enum.Enum):
    NORMAL_ERF = "normal-erf"
    ASYMPTOTIC = "asymptotic"


def _check_n(n_spins: int) -> int:
    n = int(n_spins)
    if n != n_spins or n < 1 or n % 2 == 0:
        raise ValueError(f"n_spins must be a positive odd integer, got {n_spins}")
    return n


def _check_p(p):
    p = np.asarray(p, dtype=float)
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("p must lie in [0, 1]")
    return p


def transition_prob_exact(n_spins: int, p):
    """P(at most (N-1)/2 of N spins stay up), each up with probability 1-p.

    Terms are assembled in the log domain (log-gamma binomials survive
    N ~ 1e4) and summed with compensated summation; each term is at
    most 1 so nothing overflows.
    """
    n = _check_n(n_spins)
    p = _check_p(p)
    m = (n - 1) // 2
    k = np.arange(m + 1)
    log_binom = gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)

    def one(pv):
        logs = log_binom + xlogy(k, 1.0 - pv) + xlogy(n - k, pv)
        return math.fsum(np.exp(logs))

    if p.ndim == 0:
        return one(float(p))
    out = np.array([one(pv) for pv in p.ravel()])
    return out.reshape(p.shape)


def _normal_erf(n: int, p):
    s = np.sqrt(2.0 * n * p * (1.0 - p))
    with np.errstate(divide="ignore", invalid="ignore"):
        val = 0.5 * (erf((n * p - 0.5 * n) / s) - erf((n * p - 1.0 * n) / s))
    # the variance vanishes at the endpoints; the limits are exact
    return np.where(p <= 0.0, 0.0, np.where(p >= 1.0, 1.0, val))


def _asymptotic(n: int, p):
    if np.any(p == 0.5):
        raise ValueError("asymptotic variant has a pole at p = 1/2; "
                         "use NORMAL_ERF or the exact sum there")
    with np.errstate(divide="ignore", invalid="ignore"):
        var = p * (1.0 - p)
        c = np.sqrt(2.0 * var) / (2.0 * math.sqrt(math.pi * n))
        e1 = np.exp(-n * (0.5 - p) ** 2 / (2.0 * var))
        e2 = np.exp(-n * (1.0 - p) ** 2 / (2.0 * var))
        # the prefactor carries the distance from the dominant endpoint
        # of the Gaussian integral, |1/2 - p|, on both sides of 1/2
        low = c * (e1 / (0.5 - p) - e2 / (1.0 - p))
        high = 1.0 - c * (e1 / (p - 0.5) + e2 / (1.0 - p))
        val = np.where(p < 0.5, low, high)
    return np.where(p <= 0.0, 0.0, np.where(p >= 1.0, 1.0, val))


def transition_prob_approx(n_spins: int, p, variant: ApproxVariant):
    """Normal-approximation forms of transition_prob_exact.

    Documented validity N >= 51.  NORMAL_ERF is the difference of two
    error functions; ASYMPTOTIC is its large-N endpoint expansion,
    accurate relative to the erf form (both are normal approximations
    and share its absolute error against the exact sum).
    """
    n = _check_n(n_spins)
    p = _check_p(p)
    if variant is ApproxVariant.NORMAL_ERF:
        out = _normal_erf(n, p)
    elif variant is ApproxVariant.ASYMPTOTIC:
        out = _asymptotic(n, p)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return float(out) if p.ndim == 0 else out
