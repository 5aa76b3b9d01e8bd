"""Reset-free dynamics of Rabi-driven spins.

Each spin evolves under H = omega * sigma_x + delta * sigma_z (hbar = 1),
so every single-spin quantity is a trigonometric function of the
effective Rabi frequency obar = sqrt(omega^2 + delta^2).  Spins do not
interact: two-spin quantities factorize into products of single-spin
ones, which is what makes the reset protocols solvable.

All frequencies are understood in units of the detuning delta and times
in units of 1/delta, but nothing here enforces that normalization; the
formulas are homogeneous.

free_qubit_poly and free_pair_poly build the trig-polynomial entries of
the free states of a whole grid of drives at once, on the multiples
k * obar of each row's frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .trigpoly import TrigPolyBatch, kron_poly

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
    access; the Rabi axis, which the propagator reads at every time, is
    built once per drive (the instance is frozen, so it cannot go stale).
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
        with np.errstate(over="ignore"):  # inf past the float range, which callers refuse
            return float(np.hypot(self.omega, self.delta))

    @cached_property
    def rabi_axis(self):
        """(obar, (omega sigma_x + delta sigma_z) / obar) as propagator reads it;
        the axis is None when obar = 0, and read-only otherwise."""
        obar = self.effective_rabi
        if obar == 0.0:
            return obar, None
        axis = (self.omega * SIGMA_X + self.delta * SIGMA_Z) / obar
        axis.flags.writeable = False
        return obar, axis


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
    obar, axis = params.rabi_axis
    if axis is None:
        return IDENTITY_2.copy()
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
    """The shared origin |init><init|; callers only read it."""
    if init == "up":
        return UP
    if init == "down":
        return DOWN
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


def _spinor(omega, delta, obar, init: str) -> TrigPolyBatch:
    """Spinor amplitudes from init over a grid, as a 2x1 column: (alpha, beta) from
    up and (beta, conj alpha) from down, on the multiples +-1 of obar."""
    zero = np.zeros(len(obar))
    alpha, beta = ({1: (plus, zero), -1: (minus, zero)}
                   for plus, minus in _amplitude_coeffs(omega, delta, obar))
    if init == "up":
        return TrigPolyBatch.from_entries((2, 1), (alpha, beta))
    if init == "down":
        conj_alpha = {-k: (re, -im) for k, (re, im) in alpha.items()}
        return TrigPolyBatch.from_entries((2, 1), (beta, conj_alpha))
    raise ValueError(f"initial state must be 'up' or 'down', got {init!r}")


def free_qubit_poly(omega, delta, obar, init: str) -> TrigPolyBatch:
    """Entries of the reset-free qubit state from init, for a grid of drives.

    omega, delta and obar are arrays over the rows (obar as
    DriveParams.effective_rabi computes it, obar > 0).  The state is the
    outer product of the spinor with its adjoint, on the multiples
    k in {0, +-2} of obar.
    """
    ket = _spinor(omega, delta, obar, init)
    return kron_poly(ket, ket.adjoint())


def free_pair_poly(qubit: TrigPolyBatch) -> TrigPolyBatch:
    """Entries of the reset-free two-spin product state, both spins from the origin of
    the qubit entries given: their Kronecker square, on the multiples k in {0, +-2, +-4}."""
    return kron_poly(qubit, qubit)
