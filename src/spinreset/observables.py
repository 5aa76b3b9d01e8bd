"""Two-spin observables: connected correlation and discord.

The discord measure used throughout is the local quantum uncertainty,
1 - lambda_max(W) with W_ab = Tr[sqrt(rho) (sigma_a x 1) sqrt(rho)
(sigma_b x 1)].  It vanishes exactly when some local observable of the
first spin commutes with the state.

The two-spin observables take a stack of states and return one value
per state; the single-state functions are the one-row case of the same
code.  Stacked eigh/eigvalsh/matmul/trace run the same LAPACK/BLAS call
per matrix as on one matrix, so a value does not depend on the stack it
was computed in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin_dynamics import (
    IDENTITY_2,
    NUMBER_OP,
    PAULI,
    PSD_EPS,
    DriveParams,
    HERMITICITY_TOL,
    as_stack,
    require_states,
)

CORRELATION_TOL = 1e-10

_N_FIRST = np.kron(NUMBER_OP, IDENTITY_2)
_N_SECOND = np.kron(IDENTITY_2, NUMBER_OP)
_NN = np.kron(NUMBER_OP, NUMBER_OP)
_LOCALS = [np.kron(s, IDENTITY_2) for s in PAULI]


def _trace(m):
    return np.trace(m, axis1=-2, axis2=-1)


def connected_correlations(states) -> np.ndarray:
    """<n_j n_k> - <n_j><n_k> of each two-spin state of a stack (n, 4, 4)."""
    rho = require_states(states, 4)
    nn = _trace(_NN @ rho).real
    nj = _trace(_N_FIRST @ rho).real
    nk = _trace(_N_SECOND @ rho).real
    c = nn - nj * nk
    bad = np.flatnonzero(~((-0.25 - CORRELATION_TOL <= c) & (c <= 0.25 + CORRELATION_TOL)))
    if bad.size:
        raise ValueError(f"connected correlation {float(c[bad[0]])} outside [-1/4, 1/4]")
    return c


def connected_correlation(state) -> float:
    """<n_j n_k> - <n_j><n_k> of a two-spin state; lies in [-1/4, 1/4]."""
    return float(connected_correlations(as_stack(state, 4))[0])


def connected_correlation_closed_form(protocol: int, params: DriveParams, gamma: float) -> float:
    """Stationary connected correlation under Poisson resetting.

    protocol=1: unconditional reset to all-up.  protocol=2: the
    conditional protocol; its own closed form only applies on the
    omega > delta branch, elsewhere the protocols coincide and the
    protocol-1 value is returned.
    """
    if not (0.0 < gamma < math.inf):
        raise ValueError(f"gamma must be finite and > 0, got {gamma}")
    g2 = gamma * gamma
    om2 = params.omega**2
    ob2 = params.effective_rabi**2
    if protocol == 1 or (protocol == 2 and params.omega <= params.delta):
        a = g2 + 4.0 * ob2
        b = g2 + 16.0 * ob2
        return 4.0 * om2 * om2 * (5.0 * g2 + 8.0 * ob2) / (a * a * b)
    if protocol == 2:
        num = g2 - 12.0 * om2 + 16.0 * ob2
        den = g2 * g2 + 20.0 * g2 * ob2 + 64.0 * ob2 * ob2
        return 0.25 - 2.0 * om2 * num / den
    raise ValueError(f"no closed form for protocol {protocol}")


def _hermitian_sqrts(m) -> np.ndarray:
    """hermitian_sqrt of each matrix of a stack (n, d, d)."""
    herm = np.max(np.abs(m - m.conj().swapaxes(-1, -2)), axis=(-2, -1))
    bad = np.flatnonzero(herm > HERMITICITY_TOL)
    if bad.size:
        raise ValueError(f"matrix is not Hermitian (max deviation {herm[bad[0]]:.3e})")
    lam, vec = np.linalg.eigh(0.5 * (m + m.conj().swapaxes(-1, -2)))
    bad = np.flatnonzero(lam[:, 0] < -PSD_EPS)
    if bad.size:
        raise ValueError(f"matrix is not PSD (eigenvalue {lam[bad[0], 0]:.3e})")
    lam = np.clip(lam, 0.0, None)
    return (vec * np.sqrt(lam)[:, None, :]) @ vec.conj().swapaxes(-1, -2)


def hermitian_sqrt(m) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix via eigendecomposition.

    Eigenvalues in [-PSD_EPS, 0) are clamped to zero (averaging noise);
    anything more negative is rejected with the offending eigenvalue.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return _hermitian_sqrts(m[None])[0]


@dataclass(frozen=True)
class LquResult:
    """Local quantum uncertainty with its 3x3 correlation matrix."""

    value: float
    w_matrix: np.ndarray
    lambda_max: float


def lqu_stack(states):
    """Local quantum uncertainty of each two-spin state of a stack (n, 4, 4).

    Returns the values, the W matrices (n, 3, 3) and their largest
    eigenvalues; see lqu.
    """
    sq = _hermitian_sqrts(require_states(states, 4))
    sq_locals = [sq @ o for o in _LOCALS]
    w = np.empty((len(sq), 3, 3))
    for a in range(3):
        for b in range(3):
            w[:, a, b] = _trace(sq_locals[a] @ sq_locals[b]).real
    w = 0.5 * (w + w.swapaxes(-1, -2))
    lam_max = np.linalg.eigvalsh(w)[:, -1]
    value = 1.0 - lam_max
    bad = np.flatnonzero((value < -1e-8) | (value > 1.0 + 1e-8))
    if bad.size:
        raise ValueError(f"local quantum uncertainty {float(value[bad[0]])} outside [0, 1]")
    return np.clip(value, 0.0, 1.0), w, lam_max


def lqu(state) -> LquResult:
    """Local quantum uncertainty of a two-spin state, observable on spin j.

    The local Pauli acts on the first tensor slot; for the
    exchange-symmetric states produced here the choice of slot is
    unobservable.  W is symmetrized before the eigenvalue solve since
    rounding breaks its analytic symmetry.
    """
    value, w, lam_max = lqu_stack(as_stack(state, 4))
    return LquResult(float(value[0]), w[0], float(lam_max[0]))
