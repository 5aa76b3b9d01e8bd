"""End-to-end checks of the package's headline claims.

One test per criterion; the conftest hook prints a PASS/FAIL scorecard
after the run.  Monte Carlo checks use seed 0 throughout (chosen once,
up front) so statistical assertions are reproducible; pulls are tested
at three standard errors.
"""

import numpy as np
import pytest

from spinreset.analysis import (
    McTemplate,
    REGIME_MC,
    REGIME_MIXTURE,
    estimate_discontinuity,
    fit_power_law,
    sweep_stationary,
)
from spinreset.cli import execute_command
from spinreset.finite_size import transition_prob_approx, transition_prob_exact
from spinreset.observables import (
    connected_correlation,
    connected_correlation_closed_form,
    lqu,
)
from spinreset.renewal import (
    WaitingTime,
    exp_weighted_average,
    stationary_density_closed_form,
    stationary_state_p1,
)
from spinreset.spin_dynamics import DriveParams, free_two_spin_state
from spinreset.trajectory_sim import ProtocolKind, run_ensemble

GAMMA = 0.5
POISSON = WaitingTime.poisson(GAMMA)
GRID_20 = np.linspace(0.2, 2.0, 20)


def eq_density(omega, gamma=GAMMA, delta=1.0):
    return 1.0 - 2.0 * omega**2 / (gamma**2 + 4.0 * (omega**2 + delta**2))


def eq_correlation(omega, gamma=GAMMA, delta=1.0):
    ob2 = omega**2 + delta**2
    return (4.0 * omega**4 * (5.0 * gamma**2 + 8.0 * ob2)
            / ((gamma**2 + 4.0 * ob2) ** 2 * (gamma**2 + 16.0 * ob2)))


@pytest.fixture(scope="module")
def protocol_one_mc():
    mc = McTemplate(n_trajectories=20000, observation_time=30.0, seed=0, workers=4)
    return sweep_stationary(ProtocolKind.UNCONDITIONAL_RESET, POISSON, GRID_20,
                            mc=mc, use_mc=True)


def test_criterion_01_unconditional_density_matches_closed_form(protocol_one_mc):
    sweep = protocol_one_mc
    assert sweep.regime == [REGIME_MC] * 20
    pulls = np.abs(sweep.density - eq_density(GRID_20)) / sweep.density_stderr
    assert np.all(sweep.density_stderr > 0.0)
    assert np.max(pulls) < 3.0


def test_criterion_02_unconditional_correlation_three_paths(protocol_one_mc):
    sweep = protocol_one_mc
    pulls = np.abs(sweep.correlation - eq_correlation(GRID_20)) / sweep.correlation_stderr
    assert np.max(pulls) < 3.0
    # the same number three independent ways: algebraic closed form,
    # term-by-term average of the trig-polynomial pair state, adaptive
    # quadrature of the propagated matrices
    worst = 0.0
    for omega in GRID_20:
        params = DriveParams(omega=float(omega), delta=1.0)
        closed = connected_correlation_closed_form(1, params, GAMMA)
        renewal = connected_correlation(stationary_state_p1(params, POISSON).pair_state)
        quad_pair = exp_weighted_average(
            POISSON, lambda t: free_two_spin_state(params, float(t), "up", "up"))
        quad_pair = 0.5 * (quad_pair + quad_pair.conj().T)
        quad_pair /= np.trace(quad_pair).real   # entrywise quadrature drifts ~1e-10
        quad = connected_correlation(quad_pair)
        worst = max(worst, abs(closed - renewal), abs(closed - quad))
    assert worst < 1e-8


def test_criterion_03_conditional_protocol_jump():
    grid = np.round(np.arange(0.2, 2.0001, 0.05), 10)
    sweep = sweep_stationary(ProtocolKind.CONDITIONAL_TWO_STATE, POISSON, grid)
    below, above = grid < 1.0, grid > 1.0
    np.testing.assert_allclose(sweep.density[below], eq_density(grid[below]),
                               atol=1e-12)
    assert np.all(sweep.density[above] == 0.5)
    assert all(r == REGIME_MIXTURE for r, hi in zip(sweep.regime, above) if hi)
    jump = estimate_discontinuity(sweep, critical_point=1.0)
    assert jump.value == pytest.approx(0.257576, abs=5e-7)   # rounded target
    assert jump.value == pytest.approx(25.0 / 33.0 - 0.5, abs=1e-12)
    assert jump.stderr == 0.0
    # the unconditional protocol is continuous there
    ref = sweep_stationary(ProtocolKind.UNCONDITIONAL_RESET, POISSON, grid)
    flat = estimate_discontinuity(ref, critical_point=1.0)
    assert flat.value == 0.0 and flat.stderr == 0.0


def test_criterion_04_conditional_correlation_closed_form():
    grid = np.array([1.2, 1.4, 1.6, 1.8, 2.0])
    mc = McTemplate(n_trajectories=20000, observation_time=30.0, seed=0, workers=4)
    sweep = sweep_stationary(ProtocolKind.CONDITIONAL_TWO_STATE, POISSON, grid,
                             mc=mc, use_mc=True)
    expect = np.array([connected_correlation_closed_form(
        2, DriveParams(float(x), 1.0), GAMMA) for x in grid])
    pulls = np.abs(sweep.correlation - expect) / sweep.correlation_stderr
    assert np.max(pulls) < 3.0


def test_criterion_05_flip_protocol_exponents():
    grid = [1.02, 1.04, 1.07, 1.10, 1.13, 1.16, 1.19, 1.22, 1.25]
    mc = McTemplate(n_trajectories=40000, observation_time=30.0, seed=0, workers=4)
    sweep = sweep_stationary(ProtocolKind.CONDITIONAL_FLIP, POISSON, grid, mc=mc)
    assert not sweep.row_errors
    # the observables approach their values at the threshold from the
    # continuous side; the fits measure how that distance closes, so the
    # baselines are the closed-form values at the threshold itself
    st = stationary_state_p1(DriveParams(1.0, 1.0), POISSON)
    base_density = st.density
    base_corr = connected_correlation(st.pair_state)
    base_lqu = lqu(st.pair_state).value
    window = (1.02, 1.25)
    beta_density = fit_power_law(sweep, "density", window=window,
                                 baseline=base_density).exponent
    beta_corr = fit_power_law(sweep, "correlation", window=window,
                              baseline=base_corr).exponent
    delta_lqu = fit_power_law(sweep, "lqu", window=window, baseline=base_lqu).exponent
    assert 0.4 <= beta_density <= 0.6
    assert 0.4 <= beta_corr <= 0.6
    assert 0.13 <= delta_lqu <= 0.27


def test_criterion_06_finite_size_crossover_ordering():
    dens = {}
    for n in (51, 201, 1001):
        mc = McTemplate(n_trajectories=10000, observation_time=2000.0, seed=0,
                        workers=4, average_window=(1900.0, 2000.0),
                        window_points=26, n_spins=n)
        stats = run_ensemble(mc.config(ProtocolKind.CONDITIONAL_TWO_STATE,
                                       DriveParams(0.95, 1.0), POISSON))
        dens[n] = stats.window_density
    assert dens[51] < dens[201] < dens[1001]


def test_criterion_07_chopped_exponential_limit():
    params_grid = [DriveParams(float(x), 1.0) for x in GRID_20]
    # the truncated law reduces to the plain exponential one
    far = WaitingTime.chopped(GAMMA, 40.0 / GAMMA)
    worst = max(abs(stationary_density_closed_form(p, far) - eq_density(p.omega))
                for p in params_grid)
    assert worst < 1e-6
    # and the averaging machinery reproduces its printed form
    for gtm in (1.0, 5.0, 20.0):
        dist = WaitingTime.chopped(GAMMA, gtm / GAMMA)
        worst = max(abs(stationary_state_p1(p, dist).density
                        - stationary_density_closed_form(p, dist))
                    for p in params_grid)
        assert worst < 1e-10


def test_criterion_08_finite_n_probability_oracle():
    ps = np.linspace(0.05, 0.95, 181)
    diffs = []
    for n in (51, 201, 1001, 5001):
        gap = np.max(np.abs(transition_prob_exact(n, ps)
                            - transition_prob_approx(n, ps)))
        diffs.append(float(gap))
    assert diffs[0] > diffs[1] > diffs[2] > diffs[3]
    assert diffs[2] < 5e-3


def test_criterion_09_lqu_unit_suite():
    up_up = np.zeros((4, 4), dtype=complex)
    up_up[0, 0] = 1.0
    assert lqu(up_up).value == pytest.approx(0.0, abs=1e-10)
    assert lqu(np.eye(4) / 4.0).value == pytest.approx(0.0, abs=1e-10)
    # Bell state against an oracle assembled from scratch
    v = np.array([1.0, 0, 0, 1.0]) / np.sqrt(2.0)
    bell = np.outer(v, v).astype(complex)
    lam, vec = np.linalg.eigh(bell)
    sq = vec @ np.diag(np.sqrt(np.clip(lam, 0.0, None))) @ vec.conj().T
    pauli = [np.array([[0, 1], [1, 0]], dtype=complex),
             np.array([[0, -1j], [1j, 0]]),
             np.array([[1, 0], [0, -1]], dtype=complex)]
    w = np.empty((3, 3))
    for a in range(3):
        for b in range(3):
            ka, kb = np.kron(pauli[a], np.eye(2)), np.kron(pauli[b], np.eye(2))
            w[a, b] = np.trace(sq @ ka @ sq @ kb).real
    oracle = 1.0 - np.linalg.eigvalsh(0.5 * (w + w.T))[-1]
    assert oracle == pytest.approx(1.0, abs=1e-12)
    assert lqu(bell).value == pytest.approx(oracle, abs=1e-8)
    assert lqu(bell).value == pytest.approx(1.0, abs=1e-8)
    # the unconditional stationary state has no discord discontinuity
    grid = np.arange(0.02, 2.0001, 0.02)
    vals = np.array([lqu(stationary_state_p1(DriveParams(float(x), 1.0),
                                             POISSON).pair_state).value
                     for x in grid])
    assert np.max(np.abs(np.diff(vals))) < 0.02


def test_criterion_10_cli_byte_identical_across_workers(tmp_path):
    stems = {}
    for tag, workers in (("w1", "1"), ("w4", "4"), ("w8", "8"), ("again", "1")):
        stem = str(tmp_path / tag)
        code = execute_command([
            "ensemble", "--protocol", "2", "--omega", "1.3",
            "--trajectories", "4000", "--time", "20", "--points", "21",
            "--seed", "0", "--workers", workers, "--format", "csv",
            "--output", stem])
        assert code == 0
        stems[tag] = (tmp_path / (tag + ".csv")).read_bytes()
    assert stems["w1"] == stems["w4"] == stems["w8"] == stems["again"]
