"""Reset-free dynamics of Rabi-driven spins.

Each spin evolves under H = omega * sigma_x + delta * sigma_z (hbar = 1),
so every single-spin quantity is a trigonometric function of the
effective Rabi frequency obar = sqrt(omega^2 + delta^2).  Spins do not
interact: two-spin quantities factorize into products of single-spin
ones, which is what makes the reset protocols solvable.

All frequencies are understood in units of the detuning delta and times
in units of 1/delta, but nothing here enforces that normalization; the
formulas are homogeneous.

The *_batch functions build the trig-polynomial entries of a whole grid
of drives at once, on the multiples k * obar of each row's frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .trigpoly import TrigPoly, TrigPolyBatch, kron_poly, poly_matrix

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


def require_states(rho, dim: int) -> np.ndarray:
    """Validate a stack (n, dim, dim) of density matrices.

    Each check runs over the whole stack in turn (Hermitian, unit trace,
    PSD), and the first matrix failing it names the error.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 3 or rho.shape[1:] != (dim, dim):
        raise ValueError(f"expected a stack of {dim}x{dim} matrices, got shape {rho.shape}")
    herm = np.max(np.abs(rho - rho.conj().swapaxes(-1, -2)), axis=(-2, -1))
    bad = np.flatnonzero(herm > HERMITICITY_TOL)
    if bad.size:
        raise ValueError(f"matrix is not Hermitian (max deviation {herm[bad[0]]:.3e})")
    tr = np.trace(rho, axis1=-2, axis2=-1).real
    bad = np.flatnonzero(abs(tr - 1.0) > TRACE_TOL)
    if bad.size:
        raise ValueError(f"matrix has trace {tr[bad[0]]}, expected 1")
    lam = np.linalg.eigvalsh(0.5 * (rho + rho.conj().swapaxes(-1, -2)))[:, 0]
    bad = np.flatnonzero(lam < -PSD_EPS)
    if bad.size:
        raise ValueError(f"matrix is not positive semidefinite (eigenvalue {lam[bad[0]]:.3e})")
    return rho


def as_stack(rho, dim: int) -> np.ndarray:
    """One dim x dim matrix as a stack of one, for the stacked checks."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix, got shape {rho.shape}")
    return rho[None]


def require_qubit_state(rho) -> np.ndarray:
    """Validate a 2x2 density matrix (Hermitian, unit trace, PSD)."""
    return require_states(as_stack(rho, 2), 2)[0]


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
    return _evolve(params, t, require_qubit_state(initial))


def _evolve(params: DriveParams, t: float, rho: np.ndarray) -> np.ndarray:
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
    origin_j, origin_k = _pure_state(init_j), _pure_state(init_k)
    if t < 0.0:
        raise ValueError("time must be >= 0")
    # pure origins are valid states by construction: no validation pass
    rj = _evolve(params, t, origin_j)
    rk = rj if init_k == init_j else _evolve(params, t, origin_k)
    # np.kron's own broadcast product, without its set-up cost
    return (rj[:, None, :, None] * rk[None, :, None, :]).reshape(4, 4)


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


def _coherence_re(params: DriveParams, obar: float) -> float:
    """delta * omega / obar**2, the up branch's coherence over sin^2(obar t).

    Taken over 2**e (obar = m * 2**e) where obar**2 would not be a normal
    float, so it neither overflows nor underflows at any scale; elsewhere
    unscaled, since libm's pow does not round evenly under such scaling.
    """
    e = 0 if 2.0**-450 < obar < 2.0**450 else math.frexp(obar)[1]
    return math.ldexp(params.delta, -e) * math.ldexp(params.omega, -e) / math.ldexp(obar, -e) ** 2


def _amplitude_coeffs(omega, delta, obar):
    """Coefficients of alpha and beta on exp(i obar t) and exp(-i obar t)."""
    return ((0.5 - delta / (2.0 * obar), 0.5 + delta / (2.0 * obar)),
            (-omega / (2.0 * obar), omega / (2.0 * obar)))


def _from_origin(alpha, beta, init: str):
    if init == "up":
        return alpha, beta
    if init == "down":
        return beta, alpha.conj()
    raise ValueError(f"initial state must be 'up' or 'down', got {init!r}")


def free_amplitudes(params: DriveParams, init: str):
    """Spinor amplitudes (a_up(t), a_down(t)) as TrigPoly."""
    obar = params.effective_rabi
    if obar == 0.0:
        one, zero = TrigPoly.constant(1.0), TrigPoly()
        return (one, zero) if init == "up" else (zero, one)
    alpha, beta = (TrigPoly({obar: plus, -obar: minus})
                   for plus, minus in _amplitude_coeffs(params.omega, params.delta, obar))
    return _from_origin(alpha, beta, init)


def free_amplitudes_batch(omega, delta, obar, init: str):
    """free_amplitudes for a grid of drives, keyed by multiples of obar.

    omega, delta and obar are arrays over the rows (obar as
    DriveParams.effective_rabi computes it, obar > 0); the coefficients
    are those free_amplitudes builds, bit for bit.
    """
    n, zero = len(obar), np.zeros(len(obar))
    alpha, beta = (TrigPolyBatch(n, {1: (plus, zero), -1: (minus, zero)})
                   for plus, minus in _amplitude_coeffs(omega, delta, obar))
    return _from_origin(alpha, beta, init)


def _qubit_entries(amps) -> np.ndarray:
    return poly_matrix([[amps[i] * amps[j].conj() for j in range(2)] for i in range(2)])


def free_qubit_poly(params: DriveParams, init: str) -> np.ndarray:
    """Entries of the reset-free qubit state as a 2x2 array of TrigPoly."""
    return _qubit_entries(free_amplitudes(params, init))


def free_pair_poly(params: DriveParams, init_j: str, init_k: str) -> np.ndarray:
    """Entries of the reset-free two-spin product state, 4x4 TrigPoly array."""
    return kron_poly(free_qubit_poly(params, init_j), free_qubit_poly(params, init_k))


def free_state_batch(omega, delta, obar, init: str):
    """Qubit (2x2) and two-spin (4x4, both spins from init) entries over a grid.

    Object arrays of TrigPolyBatch on the multiples k in {0, +-2} and
    {0, +-2, +-4} of obar; row i matches free_qubit_poly and
    free_pair_poly(params, init, init) of its drive wherever the batch
    does not flag it unsafe.
    """
    qubit = _qubit_entries(free_amplitudes_batch(omega, delta, obar, init))
    return qubit, kron_poly(qubit, qubit)


def flip_probability_poly(params: DriveParams) -> TrigPoly:
    """The flip probability (omega/obar)^2 sin^2(obar t) as a TrigPoly (frequencies 0, +-2 obar)."""
    obar = params.effective_rabi
    if obar == 0.0:
        return TrigPoly()
    a = (params.omega / obar) ** 2
    # sin^2(obar t) = 1/2 - cos(2 obar t)/2
    return TrigPoly({0.0: 0.5 * a, 2.0 * obar: -0.25 * a, -2.0 * obar: -0.25 * a})
