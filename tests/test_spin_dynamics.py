import numpy as np
import pytest

from spinreset.spin_dynamics import (
    DriveParams,
    evolve_qubit,
    flip_probability,
    flip_probability_poly,
    free_excitation_density,
    free_pair_poly,
    free_qubit_poly,
    free_two_point_density,
    free_two_spin_state,
    propagator,
    require_qubit_state,
    require_two_qubit_state,
)
from spinreset.trigpoly import evaluate_matrix

RNG = np.random.default_rng(42)


def random_params():
    return DriveParams(omega=float(RNG.uniform(0.0, 3.0)),
                       delta=float(RNG.uniform(0.1, 2.0)))


def test_drive_params_validation():
    with pytest.raises(ValueError):
        DriveParams(omega=-0.1)
    with pytest.raises(ValueError):
        DriveParams(omega=1.0, delta=-1.0)
    p = DriveParams(omega=3.0, delta=4.0)
    assert p.effective_rabi == pytest.approx(5.0)


def test_flip_probability_is_down_amplitude_of_propagator():
    for _ in range(25):
        params = random_params()
        t = float(RNG.uniform(0.0, 20.0))
        u = propagator(params, t)
        amp = abs(u[1, 0]) ** 2
        assert flip_probability(params, t) == pytest.approx(amp, abs=1e-13)


def test_flip_probability_bounds_and_edges():
    params = DriveParams(omega=1.4, delta=0.9)
    ts = np.linspace(0.0, 40.0, 400)
    p = flip_probability(params, ts)
    cap = params.omega**2 / params.effective_rabi**2
    assert np.all(p >= 0.0) and np.all(p <= cap + 1e-15)
    assert flip_probability(params, 0.0) == 0.0
    assert flip_probability(DriveParams(omega=0.0, delta=1.0), 2.3) == 0.0
    with pytest.raises(ValueError):
        flip_probability(params, -1.0)


def test_propagator_is_unitary_and_composes():
    params = random_params()
    t1, t2 = 0.7, 2.9
    u1, u2 = propagator(params, t1), propagator(params, t2)
    np.testing.assert_allclose(u1 @ u1.conj().T, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(u1 @ u2, propagator(params, t1 + t2), atol=1e-13)
    np.testing.assert_allclose(propagator(params, 0.0), np.eye(2), atol=0)


def test_evolve_qubit_matches_conjugation():
    params = random_params()
    rho = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
    u = propagator(params, 1.8)
    np.testing.assert_allclose(evolve_qubit(params, 1.8, rho), u @ rho @ u.conj().T,
                               atol=1e-14)
    with pytest.raises(ValueError):
        evolve_qubit(params, -0.5, rho)


def test_free_excitation_density_affine_in_origin_density():
    params = random_params()
    ts = np.linspace(0.0, 10.0, 50)
    p = flip_probability(params, ts)
    for n0 in (0.0, 0.25, 1.0):
        np.testing.assert_allclose(free_excitation_density(params, ts, n0),
                                   n0 * (1 - p) + (1 - n0) * p, atol=1e-15)
    # mirror symmetry of the two pure branches
    np.testing.assert_allclose(free_excitation_density(params, ts, 1.0),
                               1.0 - free_excitation_density(params, ts, 0.0),
                               atol=1e-15)
    with pytest.raises(ValueError):
        free_excitation_density(params, 1.0, 1.5)


def test_two_spin_state_is_product_of_singles():
    params = random_params()
    t = 3.3
    rho = free_two_spin_state(params, t, "up", "down")
    rj = evolve_qubit(params, t, np.diag([1.0, 0.0]).astype(complex))
    rk = evolve_qubit(params, t, np.diag([0.0, 1.0]).astype(complex))
    np.testing.assert_allclose(rho, np.kron(rj, rk), atol=1e-14)
    require_two_qubit_state(rho)
    with pytest.raises(ValueError):
        free_two_spin_state(params, t, "sideways", "up")


def test_two_point_density_averages_origin_pairs():
    params = random_params()
    ts = np.linspace(0.0, 8.0, 30)
    n0 = 0.4
    p = flip_probability(params, ts)
    mix = (n0**2 * (1 - p) ** 2 + 2 * n0 * (1 - n0) * (1 - p) * p
           + (1 - n0) ** 2 * p**2)
    np.testing.assert_allclose(free_two_point_density(params, ts, n0), mix, atol=1e-15)
    # pure origins factorize exactly
    d_up = free_excitation_density(params, ts, 1.0)
    np.testing.assert_allclose(free_two_point_density(params, ts, 1.0), d_up**2,
                               atol=1e-15)


def test_state_validators_reject_bad_matrices():
    good = np.eye(2) / 2
    require_qubit_state(good)
    with pytest.raises(ValueError):
        require_qubit_state(np.eye(3) / 3)
    with pytest.raises(ValueError):
        require_qubit_state(np.array([[0.5, 0.3], [0.1, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        require_qubit_state(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        require_qubit_state(np.diag([1.5, -0.5]))  # negative eigenvalue


@pytest.mark.parametrize("init", ["up", "down"])
def test_qubit_poly_matches_direct_evolution(init):
    params = random_params()
    entries = free_qubit_poly(params, init)
    pure = np.diag([1.0, 0.0]) if init == "up" else np.diag([0.0, 1.0])
    for t in (0.0, 0.9, 4.7, 13.2):
        np.testing.assert_allclose(evaluate_matrix(entries, t),
                                   evolve_qubit(params, t, pure.astype(complex)),
                                   atol=1e-13)


def test_pair_poly_matches_direct_evolution():
    params = random_params()
    entries = free_pair_poly(params, "up", "down")
    for t in (0.4, 2.8, 9.1):
        np.testing.assert_allclose(evaluate_matrix(entries, t),
                                   free_two_spin_state(params, t, "up", "down"),
                                   atol=1e-13)


def test_flip_probability_poly_matches_scalar():
    for params in (random_params(), DriveParams(omega=0.0, delta=1.0)):
        poly = flip_probability_poly(params)
        ts = np.linspace(0.0, 25.0, 60)
        np.testing.assert_allclose(np.real(poly(ts)), flip_probability(params, ts),
                                   atol=1e-14)
