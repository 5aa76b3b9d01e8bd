import math

import numpy as np
import pytest

from spinreset.observables import (
    connected_correlation,
    connected_correlation_closed_form,
    hermitian_sqrt,
    lqu,
)
from spinreset.renewal import WaitingTime, stationary_state_p1, stationary_state_p2
from spinreset.spin_dynamics import DriveParams

RNG = np.random.default_rng(2024)


def random_qubit(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_two_qubit(rng, rank=4):
    a = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def bell_state():
    v = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    return np.outer(v, v).astype(complex)


def test_connected_correlation_values():
    up_up = np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])).astype(complex)
    assert connected_correlation(up_up) == pytest.approx(0.0, abs=1e-15)
    # 50/50 classical mixture of |uu> and |dd> saturates the bound
    mix = 0.5 * up_up
    mix[3, 3] += 0.5
    assert connected_correlation(mix) == pytest.approx(0.25, abs=1e-15)
    rho = random_two_qubit(RNG)
    nn = rho[0, 0].real
    nj = rho[0, 0].real + rho[1, 1].real
    nk = rho[0, 0].real + rho[2, 2].real
    assert connected_correlation(rho) == pytest.approx(nn - nj * nk, abs=1e-13)


def test_closed_form_correlation_branches():
    g = 0.5
    p = DriveParams(omega=1.0, delta=1.0)
    om2, ob2 = 1.0, 2.0
    expect = 4.0 * om2**2 * (5 * g**2 + 8 * ob2) / ((g**2 + 4 * ob2) ** 2 * (g**2 + 16 * ob2))
    assert connected_correlation_closed_form(1, p, g) == pytest.approx(expect, abs=1e-15)
    # protocols coincide below the threshold
    below = DriveParams(omega=0.6, delta=1.0)
    assert connected_correlation_closed_form(2, below, g) == \
        connected_correlation_closed_form(1, below, g)
    above = DriveParams(omega=2.0, delta=1.0)
    om2, ob2 = 4.0, 5.0
    expect2 = 0.25 - 2 * om2 * (g**2 - 12 * om2 + 16 * ob2) / (
        g**4 + 20 * g**2 * ob2 + 64 * ob2**2)
    assert connected_correlation_closed_form(2, above, g) == pytest.approx(expect2, abs=1e-15)
    with pytest.raises(ValueError):
        connected_correlation_closed_form(3, p, g)
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="gamma must be finite and > 0"):
            connected_correlation_closed_form(1, p, bad)


def test_closed_form_matches_renewal_pair_state():
    # two derivations of the same number: trig-polynomial average of the
    # pair state vs the algebraic expression
    g = 0.5
    for omega in np.linspace(0.1, 2.0, 20):
        p = DriveParams(omega=float(omega), delta=1.0)
        st = stationary_state_p1(p, WaitingTime.poisson(g))
        assert connected_correlation(st.pair_state) == pytest.approx(
            connected_correlation_closed_form(1, p, g), abs=1e-10)
    for omega in (1.2, 1.6, 2.0):
        p = DriveParams(omega=float(omega), delta=1.0)
        st = stationary_state_p2(p, WaitingTime.poisson(g))
        assert connected_correlation(st.pair_state) == pytest.approx(
            connected_correlation_closed_form(2, p, g), abs=1e-10)


def test_hermitian_sqrt_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        dim = int(rng.integers(2, 5))
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = a @ a.conj().T
        s = hermitian_sqrt(m)
        np.testing.assert_allclose(s @ s, m, atol=1e-10 * max(1.0, np.linalg.norm(m)))
        np.testing.assert_allclose(s, s.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(s)[0] >= -1e-12


def test_hermitian_sqrt_rejects():
    with pytest.raises(ValueError):
        hermitian_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        hermitian_sqrt(np.diag([1.0, -0.5]))
    with pytest.raises(ValueError):
        hermitian_sqrt(np.zeros((2, 3)))
    # tiny negative eigenvalues from averaging noise are clamped
    s = hermitian_sqrt(np.diag([1.0, -1e-12]))
    assert s[1, 1] == 0.0


def test_lqu_reference_points():
    up_up = np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])).astype(complex)
    assert lqu(up_up).value == pytest.approx(0.0, abs=1e-10)
    assert lqu(np.eye(4) / 4.0).value == pytest.approx(0.0, abs=1e-10)
    assert lqu(bell_state()).value == pytest.approx(1.0, abs=1e-10)
    res = lqu(bell_state())
    assert res.lambda_max == pytest.approx(0.0, abs=1e-10)
    assert res.w_matrix.shape == (3, 3)


def test_lqu_range_and_product_states():
    rng = np.random.default_rng(17)
    for _ in range(200):
        val = lqu(random_two_qubit(rng)).value
        assert 0.0 <= val <= 1.0
    # pure product states carry no discord
    for _ in range(50):
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        phi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        phi /= np.linalg.norm(phi)
        v = np.kron(psi, phi)
        assert lqu(np.outer(v, v.conj())).value == pytest.approx(0.0, abs=1e-8)


def test_lqu_invariant_under_second_spin_unitary():
    # the observable lives on the first spin; rotating the second spin
    # must not change the value
    rng = np.random.default_rng(23)
    for _ in range(20):
        rho = random_two_qubit(rng)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(a)
        u = np.kron(np.eye(2), q)
        rotated = u @ rho @ u.conj().T
        assert lqu(rotated).value == pytest.approx(lqu(rho).value, abs=1e-8)


def test_lqu_against_independent_eigendecomposition():
    # recompute W from scratch: W_ab = Tr[sqrt(rho) K_a sqrt(rho) K_b]
    # with K = sigma (x) 1, sqrt via explicit spectral decomposition
    pauli = [np.array([[0, 1], [1, 0]], dtype=complex),
             np.array([[0, -1j], [1j, 0]]),
             np.array([[1, 0], [0, -1]], dtype=complex)]
    rng = np.random.default_rng(31)
    for _ in range(40):
        rho = random_two_qubit(rng)
        lam, vec = np.linalg.eigh(rho)
        sq = vec @ np.diag(np.sqrt(np.clip(lam, 0.0, None))) @ vec.conj().T
        w = np.empty((3, 3))
        for a in range(3):
            for b in range(3):
                ka = np.kron(pauli[a], np.eye(2))
                kb = np.kron(pauli[b], np.eye(2))
                w[a, b] = np.trace(sq @ ka @ sq @ kb).real
        expect = 1.0 - np.linalg.eigvalsh(0.5 * (w + w.T))[-1]
        assert lqu(rho).value == pytest.approx(expect, abs=1e-10)
