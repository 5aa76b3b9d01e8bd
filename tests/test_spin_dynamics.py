import numpy as np
import pytest

from spinreset.spin_dynamics import (
    DriveParams,
    _coherence_re,
    evolve_qubit,
    free_pair_poly,
    free_qubit_poly,
    free_two_spin_state,
    free_two_spin_states,
    propagator,
    require_qubit_state,
    require_states,
)

import reference_sim as ref
from reference_sim import flip_probability, free_excitation_density

RNG = np.random.default_rng(42)


def at(entries, t):
    """An object array of TrigPoly evaluated at one time."""
    return np.array([[p(t) for p in row] for row in entries])


def batch_at(entries, params, t):
    """The one row of a TrigPolyBatch of params evaluated at one time."""
    phase = np.exp(1j * entries.keys() * params.effective_rabi * t)
    return entries.entry_sums((entries.re[:, 0] + 1j * entries.im[:, 0]) * phase).reshape(
        entries.shape)


def qubit_batch(params, init):
    return free_qubit_poly(np.array([params.omega]), np.array([params.delta]),
                           np.array([params.effective_rabi]), init)


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


def axis_drives():
    """Random drives, signed zeros, and drives at the ends of the float range."""
    drives = [random_params() for _ in range(20)]
    drives += [DriveParams(omega=0.0), DriveParams(omega=-0.0),
               DriveParams(omega=0.0, delta=0.0), DriveParams(omega=-0.0, delta=0.0)]
    return drives + [DriveParams(omega=om, delta=d) for d in (2.0**600, 2.0**-600)
                     for om in (0.0, 0.7 * d, 1.3)]


def test_per_drive_axis_keeps_every_bit():
    # the reference rebuilds obar and the axis on every call; the package builds
    # them once per drive.  The -0.0 drives compare and hash equal to the 0.0
    # drives evaluated just before them, as a cache keyed by value would see them.
    drives = axis_drives()
    times = [0.0, 1e-300] + [float(t) for t in RNG.uniform(0.0, 200.0, 12)]
    mixed = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
    origins = [("up", "up"), ("up", "down"), ("down", "up"), ("down", "down")]
    for params in drives:
        for t in times:
            for init_j, init_k in origins:
                assert (free_two_spin_state(params, t, init_j, init_k).tobytes()
                        == ref.free_two_spin_state(params, t, init_j, init_k).tobytes())
            for rho in (ref.UP, ref.DOWN, mixed):
                assert evolve_qubit(params, t, rho).tobytes() == ref.evolve(params, t, rho).tobytes()


def test_stacked_two_spin_states_keep_every_bit_of_the_per_time_state():
    # verify's quadrature evaluates a whole panel's nodes at once
    times = np.concatenate([[0.0, 1e-300], RNG.uniform(0.0, 200.0, 20)])
    origins = [("up", "up"), ("up", "down"), ("down", "up"), ("down", "down")]
    for params in axis_drives():
        for init_j, init_k in origins:
            got = free_two_spin_states(params, times, init_j, init_k)
            per_time = [free_two_spin_state(params, t, init_j, init_k) for t in times.tolist()]
            assert got.shape == (len(times), 4, 4)
            assert got.tobytes() == np.array(per_time).tobytes()
    params = random_params()
    assert free_two_spin_states(params, np.array([]), "up", "up").shape == (0, 4, 4)
    with pytest.raises(ValueError, match="time must be >= 0"):
        free_two_spin_states(params, np.array([1.0, -1e-9]), "up", "up")
    with pytest.raises(ValueError, match="initial state"):
        free_two_spin_states(params, times, "up", "sideways")


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
    require_states(rho[None], 4)
    with pytest.raises(ValueError):
        free_two_spin_state(params, t, "sideways", "up")


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
    batch, oracle = qubit_batch(params, init), ref.free_qubit_poly(params, init)
    pure = np.diag([1.0, 0.0]) if init == "up" else np.diag([0.0, 1.0])
    for t in (0.0, 0.9, 4.7, 13.2):
        direct = evolve_qubit(params, t, pure.astype(complex))
        np.testing.assert_allclose(batch_at(batch, params, t), direct, atol=1e-13)
        np.testing.assert_allclose(at(oracle, t), direct, atol=1e-13)


def test_pair_poly_matches_direct_evolution():
    params = random_params()
    for init in ("up", "down"):
        pair = free_pair_poly(qubit_batch(params, init))
        for t in (0.4, 2.8, 9.1):
            np.testing.assert_allclose(batch_at(pair, params, t),
                                       free_two_spin_state(params, t, init, init), atol=1e-13)
    # the oracle also pairs spins from different origins
    entries = ref.free_pair_poly(params, "up", "down")
    for t in (0.4, 2.8, 9.1):
        np.testing.assert_allclose(at(entries, t),
                                   free_two_spin_state(params, t, "up", "down"),
                                   atol=1e-13)


def test_flip_probability_poly_matches_scalar():
    for params in (random_params(), DriveParams(omega=0.0, delta=1.0)):
        poly = ref.flip_probability_poly(params)
        ts = np.linspace(0.0, 25.0, 60)
        np.testing.assert_allclose(np.real(poly(ts)), flip_probability(params, ts),
                                   atol=1e-14)


def test_coherence_constant_at_any_scale():
    # delta * omega / obar**2 keeps the unscaled formula's bits at ordinary
    # scales, and stays finite and right where obar**2 over- or underflows
    for _ in range(200):
        p = random_params()
        o = p.effective_rabi
        value = _coherence_re(p, o)
        assert value == p.delta * p.omega / o**2
        for s in (2.0**-600, 1e-200, 1e200, 2.0**600):
            scaled = DriveParams(s * p.omega, s * p.delta)
            assert _coherence_re(scaled, scaled.effective_rabi) == pytest.approx(value, rel=1e-15)


def test_effective_rabi_is_hypot_computed_once_per_drive(monkeypatch):
    # defined last, so its random drives leave the other tests' draws as they were
    drives = axis_drives()
    want = [np.float64(np.hypot(p.omega, p.delta)).tobytes() for p in drives]
    calls, hypot = [], np.hypot
    monkeypatch.setattr(np, "hypot", lambda *args: calls.append(args) or hypot(*args))
    for params, value in zip(drives, want):
        calls.clear()
        got = [params.effective_rabi, params.rabi_axis[0], params.effective_rabi]
        assert [np.float64(v).tobytes() for v in got] == [value] * 3
        assert calls == [(params.omega, params.delta)]
