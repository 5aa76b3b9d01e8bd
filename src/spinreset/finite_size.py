"""Majority-flip probability of N spins at a measurement.

A measurement of the excitation density of N independent spins, each
down with probability p, falls below 1/2 with the binomial tail
probability computed here, by exact summation or by the erf form of the
normal approximation.  The thermodynamic limit, a step function at
p = 1/2, is taken in closed form by renewal.reset_rates_R.

N is assumed odd throughout so the measured density can never tie at
exactly 1/2.
"""

from __future__ import annotations

import math

import numpy as np


def _check_n(n_spins: int) -> int:
    try:
        n = int(n_spins)
    except (OverflowError, ValueError):  # inf, nan
        n = None
    if n is None or n != n_spins or n < 1 or n % 2 == 0:
        raise ValueError(f"n_spins must be a positive odd integer, got {n_spins}")
    return n


def _check_p(p):
    p = np.asarray(p, dtype=float)
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("p must lie in [0, 1]")
    return p


_LOG_FACTORIALS = np.zeros(1)  # log 0! = lgamma(1.0) = 0; extended on demand
_LOG_FACTORIALS.flags.writeable = False


def _log_factorials(n: int) -> np.ndarray:
    """Read-only log j! = math.lgamma(j + 1.0) for j = 0..n.

    One table serves every n: a larger n extends it, a smaller one reads
    its prefix, so each entry is computed once per process.
    """
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS
    if n >= table.size:
        table = np.concatenate([table, [math.lgamma(j + 1.0) for j in range(table.size, n + 1)]])
        table.flags.writeable = False
        _LOG_FACTORIALS = table
    return table[:n + 1]


def _xlogy(x: np.ndarray, y: float) -> np.ndarray:
    """x * log(y) for non-negative integers x, with 0 * log 0 = 0.

    math.log is the C log, so for y > 0 this is scipy.special.xlogy's
    product bit for bit (np.log rounds differently on some inputs).
    """
    if y == 0.0:
        return np.where(x == 0, 0.0, -math.inf)
    return x * math.log(y)


def _erf(x: np.ndarray) -> np.ndarray:
    """math.erf elementwise over an array of any shape (0-d included)."""
    return np.array([math.erf(v) for v in x.ravel().tolist()]).reshape(x.shape)


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
    log_fact = _log_factorials(n)
    log_binom = log_fact[n] - log_fact[k] - log_fact[n - k]

    def one(pv):
        logs = log_binom + _xlogy(k, 1.0 - pv) + _xlogy(n - k, pv)
        return math.fsum(np.exp(logs))

    if p.ndim == 0:
        return one(float(p))
    out = np.array([one(pv) for pv in p.ravel()])
    return out.reshape(p.shape)


def transition_prob_approx(n_spins: int, p):
    """Normal approximation of transition_prob_exact: a difference of two
    error functions.  Documented validity N >= 51."""
    n = _check_n(n_spins)
    p = _check_p(p)
    s = np.sqrt(2.0 * n * p * (1.0 - p))
    with np.errstate(divide="ignore", invalid="ignore"):
        val = 0.5 * (_erf((n * p - 0.5 * n) / s) - _erf((n * p - 1.0 * n) / s))
    # the variance vanishes at the endpoints; the limits are exact
    out = np.where(p <= 0.0, 0.0, np.where(p >= 1.0, 1.0, val))
    return float(out) if p.ndim == 0 else out
