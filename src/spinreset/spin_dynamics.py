"""Reset-free dynamics of Rabi-driven spins.

Each spin evolves under H = omega * sigma_x + delta * sigma_z (hbar = 1),
so every single-spin quantity is a trigonometric function of the
effective Rabi frequency obar = sqrt(omega^2 + delta^2).  Spins do not
interact: two-spin quantities factorize into products of single-spin
ones, which is what makes the reset protocols solvable.

All frequencies are understood in units of the detuning delta and times
in units of 1/delta, but nothing here enforces that normalization; the
formulas are homogeneous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trigpoly import TrigPoly, kron_poly, poly_matrix

# Tolerances for state validation.  Ensemble-averaged matrices pick up
# rounding noise roughly at the 1e-12 level; these sit safely above it.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_EPS = 1e-10

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)

# Excitation number operator n = (1 + sigma_z)/2 = |up><up|.
NUMBER_OP = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)

UP = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
DOWN = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


@dataclass(frozen=True)
class DriveParams:
    """Rabi frequency and detuning of the drive.

    Both are finite and non-negative; the phase diagrams only ever use the ratio
    omega/delta >= 0.  The effective Rabi frequency is recomputed on
    access so it can never go stale.
    """

    omega: float
    delta: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.omega < np.inf):
            raise ValueError(f"omega must be finite and >= 0, got {self.omega}")
        if not (0.0 <= self.delta < np.inf):
            raise ValueError(f"delta must be finite and >= 0, got {self.delta}")

    @property
    def effective_rabi(self) -> float:
        return float(np.hypot(self.omega, self.delta))


def _require_state(rho, dim: int) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix, got shape {rho.shape}")
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian (max deviation {herm:.3e})")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"matrix has trace {tr}, expected 1")
    lam = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if lam[0] < -PSD_EPS:
        raise ValueError(f"matrix is not positive semidefinite (eigenvalue {lam[0]:.3e})")
    return rho


def require_qubit_state(rho) -> np.ndarray:
    """Validate a 2x2 density matrix (Hermitian, unit trace, PSD)."""
    return _require_state(rho, 2)


def require_two_qubit_state(rho) -> np.ndarray:
    """Validate a 4x4 density matrix."""
    return _require_state(rho, 4)


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


def propagator(params: DriveParams, t: float) -> np.ndarray:
    """Single-spin unitary exp(-i H t) in axis-angle form."""
    obar = params.effective_rabi
    if obar == 0.0:
        return IDENTITY_2.copy()
    axis = (params.omega * SIGMA_X + params.delta * SIGMA_Z) / obar
    th = obar * t
    return np.cos(th) * IDENTITY_2 - 1j * np.sin(th) * axis


def evolve_qubit(params: DriveParams, t: float, initial) -> np.ndarray:
    """Unitary conjugation of a qubit state by the drive propagator."""
    if t < 0.0:
        raise ValueError("time must be >= 0")
    rho = require_qubit_state(initial)
    u = propagator(params, t)
    return u @ rho @ u.conj().T


def _pure_state(init: str) -> np.ndarray:
    if init == "up":
        return UP.copy()
    if init == "down":
        return DOWN.copy()
    raise ValueError(f"initial state must be 'up' or 'down', got {init!r}")


def free_two_spin_state(params: DriveParams, t: float, init_j: str, init_k: str) -> np.ndarray:
    """Joint state of two non-interacting spins evolved from |init_j init_k>."""
    rj = evolve_qubit(params, t, _pure_state(init_j))
    rk = evolve_qubit(params, t, _pure_state(init_k))
    return np.kron(rj, rk)


# ---------------------------------------------------------------------------
# Trig-polynomial form of the free trajectories.
#
# The spinor evolved from |up> is (alpha, beta) with
#   alpha(t) = cos(obar t) - i (delta/obar) sin(obar t)
#   beta(t)  = -i (omega/obar) sin(obar t)
# and the |down> branch is (beta, conj(alpha)).  Density-matrix entries
# are products of two amplitudes, so they live on frequencies
# {0, +-2 obar}; two-spin entries on {0, +-2 obar, +-4 obar}.
# ---------------------------------------------------------------------------


def free_amplitudes(params: DriveParams, init: str):
    """Spinor amplitudes (a_up(t), a_down(t)) as TrigPoly."""
    obar = params.effective_rabi
    if obar == 0.0:
        one, zero = TrigPoly.constant(1.0), TrigPoly()
        return (one, zero) if init == "up" else (zero, one)
    alpha = TrigPoly(
        {obar: 0.5 - params.delta / (2.0 * obar), -obar: 0.5 + params.delta / (2.0 * obar)}
    )
    beta = TrigPoly(
        {obar: -params.omega / (2.0 * obar), -obar: params.omega / (2.0 * obar)}
    )
    if init == "up":
        return alpha, beta
    if init == "down":
        return beta, alpha.conj()
    raise ValueError(f"initial state must be 'up' or 'down', got {init!r}")


def free_qubit_poly(params: DriveParams, init: str) -> np.ndarray:
    """Entries of the reset-free qubit state as a 2x2 array of TrigPoly."""
    amps = free_amplitudes(params, init)
    return poly_matrix([[amps[i] * amps[j].conj() for j in range(2)] for i in range(2)])


def free_pair_poly(params: DriveParams, init_j: str, init_k: str) -> np.ndarray:
    """Entries of the reset-free two-spin product state, 4x4 TrigPoly array."""
    return kron_poly(free_qubit_poly(params, init_j), free_qubit_poly(params, init_k))


def flip_probability_poly(params: DriveParams) -> TrigPoly:
    """flip_probability as a TrigPoly (frequencies 0, +-2 obar)."""
    obar = params.effective_rabi
    if obar == 0.0:
        return TrigPoly()
    a = (params.omega / obar) ** 2
    # sin^2(obar t) = 1/2 - cos(2 obar t)/2
    return TrigPoly({0.0: 0.5 * a, 2.0 * obar: -0.25 * a, -2.0 * obar: -0.25 * a})
