import math

import numpy as np
import pytest

from spinreset.analysis import (
    DEFAULT_BASELINES,
    JumpEstimate,
    McTemplate,
    PowerLawFit,
    REGIME_CLOSED,
    REGIME_FAILED,
    REGIME_MC,
    REGIME_MIXTURE,
    SweepResult,
    ensemble_lqu,
    estimate_discontinuity,
    fit_power_law,
    require_exchange_symmetric,
    sweep_stationary,
)
from spinreset.observables import connected_correlation_closed_form, lqu
from spinreset.renewal import WaitingTime, stationary_density_closed_form
from spinreset.spin_dynamics import DriveParams
from spinreset.trajectory_sim import ProtocolKind, run_ensemble

POISSON = WaitingTime.poisson(0.5)


def synthetic_sweep(xs, values, stderrs=None, regime=None):
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    stderrs = np.zeros_like(values) if stderrs is None else np.asarray(stderrs, float)
    regime = regime or [REGIME_MC] * len(xs)
    zeros = np.zeros_like(values)
    return SweepResult(protocol=ProtocolKind.CONDITIONAL_FLIP, dist=POISSON, delta=1.0,
                       omega_over_delta=xs, density=values, density_stderr=stderrs,
                       correlation=zeros, correlation_stderr=zeros,
                       lqu=zeros, lqu_stderr=zeros, regime=regime)


def test_require_exchange_symmetric():
    sym = np.diag([0.4, 0.3, 0.3, 0.0]).astype(complex)
    require_exchange_symmetric(sym)
    bad = np.diag([0.4, 0.5, 0.1, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        require_exchange_symmetric(bad)


def test_mc_template_config():
    mc = McTemplate(n_trajectories=100, observation_time=12.0, seed=5, window_points=4)
    cfg = mc.config(ProtocolKind.UNCONDITIONAL_RESET, DriveParams(1.0, 1.0), POISSON)
    assert cfg.average_window == (8.0, 12.0)
    assert len(cfg.sample_grid) == 4
    assert cfg.sample_grid[0] == 8.0 and cfg.sample_grid[-1] == 12.0
    assert cfg.seed == 5 and cfg.n_trajectories == 100
    assert mc.config(ProtocolKind.UNCONDITIONAL_RESET, DriveParams(1.0, 1.0),
                     POISSON, workers=7).workers == 7


def test_sweep_result_validation():
    with pytest.raises(ValueError):
        synthetic_sweep([1.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        synthetic_sweep([1.0, 2.0], [0.5])
    with pytest.raises(ValueError):
        synthetic_sweep([1.0, 2.0], [0.5, 0.5], regime=["monte-carlo", ""])
    sweep = synthetic_sweep([1.0, 2.0], [0.5, 0.4])
    vals, errs = sweep.column("density")
    np.testing.assert_array_equal(vals, [0.5, 0.4])
    with pytest.raises(ValueError):
        sweep.column("entropy")


def test_closed_form_sweep_protocol_one():
    grid = [0.5, 1.0, 1.5]
    sweep = sweep_stationary(ProtocolKind.UNCONDITIONAL_RESET, POISSON, grid)
    assert sweep.regime == [REGIME_CLOSED] * 3
    for i, x in enumerate(grid):
        expect = stationary_density_closed_form(DriveParams(x, 1.0), POISSON)
        assert sweep.density[i] == pytest.approx(expect, abs=1e-12)
        assert sweep.correlation[i] == pytest.approx(
            connected_correlation_closed_form(1, DriveParams(x, 1.0), 0.5), abs=1e-10)
    assert np.all(sweep.density_stderr == 0.0)
    assert np.all(sweep.lqu >= 0.0) and np.all(sweep.lqu <= 1.0)


def test_closed_form_sweep_protocol_two():
    sweep = sweep_stationary(ProtocolKind.CONDITIONAL_TWO_STATE, POISSON, [0.5, 1.5])
    assert sweep.regime == [REGIME_CLOSED, REGIME_MIXTURE]
    assert sweep.density[0] == pytest.approx(
        stationary_density_closed_form(DriveParams(0.5, 1.0), POISSON), abs=1e-12)
    assert sweep.density[1] == 0.5
    with pytest.raises(ValueError):
        sweep_stationary(ProtocolKind.CONDITIONAL_TWO_STATE, POISSON, [])
    with pytest.raises(ValueError):
        sweep_stationary(ProtocolKind.CONDITIONAL_TWO_STATE, POISSON, [0.5], delta=0.0)


def test_mc_sweep_rows_and_row_parallelism():
    mc = McTemplate(n_trajectories=512, observation_time=6.0, seed=0,
                    average_window=(4.0, 6.0), window_points=5)
    grid = [0.8, 1.1, 1.4]
    serial = sweep_stationary(ProtocolKind.CONDITIONAL_FLIP, POISSON, grid, mc=mc)
    assert serial.regime == [REGIME_MC] * 3
    assert np.all(serial.density_stderr > 0.0)
    # row-level threads must not change any number (common random
    # numbers are per row, not shared state)
    mc_par = McTemplate(n_trajectories=512, observation_time=6.0, seed=0,
                        average_window=(4.0, 6.0), window_points=5, workers=3)
    parallel = sweep_stationary(ProtocolKind.CONDITIONAL_FLIP, POISSON, grid, mc=mc_par)
    np.testing.assert_array_equal(serial.density, parallel.density)
    np.testing.assert_array_equal(serial.lqu_stderr, parallel.lqu_stderr)


@pytest.mark.parametrize("workers", [1, 2])
def test_mc_sweep_records_row_failures(workers):
    # even n_spins blows up inside the row; the sweep must keep going,
    # whether the rows run serially or on the row pool
    mc = McTemplate(n_trajectories=64, observation_time=6.0, workers=workers,
                    average_window=(4.0, 6.0), window_points=5, n_spins=10)
    sweep = sweep_stationary(ProtocolKind.CONDITIONAL_TWO_STATE, POISSON, [0.9, 1.1],
                             mc=mc)
    assert sweep.regime == [REGIME_FAILED, REGIME_FAILED]
    assert np.all(np.isnan(sweep.density))
    assert set(sweep.row_errors) == {0, 1}
    assert "ValueError" in sweep.row_errors[0]


def test_use_mc_agrees_with_closed_form():
    mc = McTemplate(n_trajectories=4096, observation_time=25.0, seed=0)
    sweep = sweep_stationary(ProtocolKind.UNCONDITIONAL_RESET, POISSON, [1.0],
                             mc=mc, use_mc=True)
    assert sweep.regime == [REGIME_MC]
    expect = stationary_density_closed_form(DriveParams(1.0, 1.0), POISSON)
    pull = (sweep.density[0] - expect) / sweep.density_stderr[0]
    assert abs(pull) < 4.0


def test_ensemble_lqu_batch_means():
    mc = McTemplate(n_trajectories=1100, observation_time=8.0, seed=2,
                    average_window=(5.0, 8.0), window_points=7)
    stats = run_ensemble(mc.config(ProtocolKind.UNCONDITIONAL_RESET,
                                   DriveParams(1.2, 1.0), POISSON))
    value, err = ensemble_lqu(stats)
    assert value == pytest.approx(lqu(stats.window_pair).value, abs=1e-14)
    chunk_vals = np.array([lqu(c).value for c in stats.chunk_window_pair_means])
    w = stats.chunk_counts.astype(float)
    vbar = (w * chunk_vals).sum() / w.sum()
    s2 = (w * (chunk_vals - vbar) ** 2).sum() / (len(w) - 1)
    assert err == pytest.approx(math.sqrt(s2 / w.sum()), abs=1e-14)
    assert err > 0.0
    # no window -> no estimator
    cfg = mc.config(ProtocolKind.UNCONDITIONAL_RESET, DriveParams(1.2, 1.0), POISSON)
    cfg = type(cfg)(**{**cfg.__dict__, "average_window": None})
    with pytest.raises(ValueError):
        ensemble_lqu(run_ensemble(cfg))


def test_jump_protocol_two_is_exact():
    grid = np.arange(0.8, 1.21, 0.05)
    sweep = sweep_stationary(ProtocolKind.CONDITIONAL_TWO_STATE, POISSON, grid)
    jump = estimate_discontinuity(sweep, critical_point=1.0)
    assert jump.value == pytest.approx(25.0 / 33.0 - 0.5, abs=1e-15)
    assert jump.stderr == 0.0
    assert jump.left == pytest.approx(25.0 / 33.0, abs=1e-15)
    assert jump.right == 0.5


def test_jump_protocol_one_is_zero():
    grid = np.arange(0.8, 1.21, 0.05)
    sweep = sweep_stationary(ProtocolKind.UNCONDITIONAL_RESET, POISSON, grid)
    jump = estimate_discontinuity(sweep, critical_point=1.0)
    assert jump.value == 0.0
    assert jump.stderr == 0.0


def test_jump_antisymmetry_is_bitwise():
    # dyadic grid so the mirrored abscissas are exact floats
    xs = np.array([0.75, 0.875, 1.125, 1.25])
    values = np.array([0.8, 0.7, 0.4, 0.3])
    errs = np.array([0.01, 0.02, 0.03, 0.04])
    fwd = estimate_discontinuity(synthetic_sweep(xs, values, errs), 1.0)
    rev = estimate_discontinuity(synthetic_sweep(xs, values[::-1], errs[::-1]), 1.0)
    assert rev.value == -fwd.value
    assert rev.stderr == fwd.stderr
    assert rev.left == fwd.right and rev.right == fwd.left


def test_jump_skips_failed_rows_and_center_row():
    xs = np.array([0.8, 0.9, 1.0, 1.1, 1.2])
    values = np.array([0.7, np.nan, 0.123, 0.45, 0.4])
    errs = np.array([0.02, np.nan, 0.0, 0.01, 0.01])
    regime = [REGIME_MC, REGIME_FAILED, REGIME_MC, REGIME_MC, REGIME_MC]
    jump = estimate_discontinuity(synthetic_sweep(xs, values, errs, regime), 1.0)
    # single surviving left row: used as-is; the row at the critical
    # point never participates
    assert jump.left == 0.7 and jump.left_stderr == 0.02
    assert jump.right == pytest.approx(2 * 0.45 - 0.4, abs=1e-12)
    with pytest.raises(ValueError):
        estimate_discontinuity(synthetic_sweep(xs[:2], values[:2], errs[:2],
                                               [REGIME_MC, REGIME_MC]), 2.0)


@pytest.mark.parametrize("beta", [0.2, 0.5, 1.0])
def test_power_law_recovery_noiseless(beta):
    xs = 1.0 + np.linspace(0.02, 0.25, 9)
    amp, base = 0.31, 0.5
    values = base + amp * (xs - 1.0) ** beta
    fit = fit_power_law(synthetic_sweep(xs, values), "density")
    assert fit.exponent == pytest.approx(beta, abs=1e-6)
    assert fit.amplitude == pytest.approx(amp, abs=1e-6)
    assert fit.residual < 1e-10
    assert fit.fit_window == (1.02, 1.25)


@pytest.mark.parametrize("beta", [0.2, 0.5, 1.0])
def test_power_law_recovery_with_noise(beta):
    rng = np.random.default_rng(0)
    xs = 1.0 + np.linspace(0.02, 0.25, 9)
    amp = 0.31
    values = 0.5 + amp * (xs - 1.0) ** beta * (1.0 + 0.01 * rng.standard_normal(9))
    fit = fit_power_law(synthetic_sweep(xs, values), "density")
    assert fit.exponent == pytest.approx(beta, abs=0.05)


def test_power_law_negative_offsets():
    xs = 1.0 + np.linspace(0.02, 0.25, 9)
    values = 0.5 - 0.2 * (xs - 1.0) ** 0.5
    fit = fit_power_law(synthetic_sweep(xs, values), "density")
    assert fit.exponent == pytest.approx(0.5, abs=1e-8)
    assert fit.amplitude == pytest.approx(-0.2, abs=1e-8)


def test_power_law_rejects_mixed_signs():
    xs = 1.0 + np.linspace(0.02, 0.25, 9)
    values = 0.5 + np.linspace(-0.01, 0.01, 9)
    with pytest.raises(ValueError, match="omega/delta=1.02"):
        fit_power_law(synthetic_sweep(xs, values), "density")


def test_power_law_window_and_point_count():
    xs = 1.0 + np.linspace(0.02, 0.25, 9)
    values = 0.5 + 0.3 * (xs - 1.0) ** 0.5
    sweep = synthetic_sweep(xs, values)
    with pytest.raises(ValueError):
        fit_power_law(sweep, "density", window=(0.9, 1.25))  # straddles x_c
    with pytest.raises(ValueError):
        fit_power_law(sweep, "density", window=(1.2, 1.25))  # too few rows
    # explicit baseline overrides the default
    fit = fit_power_law(sweep, "density", baseline=0.5)
    assert fit.exponent == pytest.approx(0.5, abs=1e-8)
    assert DEFAULT_BASELINES == {"density": 0.5, "correlation": 0.0, "lqu": 0.0}


def test_power_law_fit_window_validation():
    with pytest.raises(ValueError):
        PowerLawFit(exponent=0.5, amplitude=1.0, fit_window=(0.9, 1.2),
                    residual=0.0, critical_point=1.0)
    with pytest.raises(ValueError):
        PowerLawFit(exponent=0.5, amplitude=1.0, fit_window=(1.1, 1.2),
                    residual=float("nan"), critical_point=1.0)


def test_finite_size_crossover_is_resolved():
    # far enough from the threshold the N-ordering is unambiguous:
    # small systems get kicked to the mixed state, large ones do not
    mc = lambda n: McTemplate(n_trajectories=2000, observation_time=1000.0, seed=0,
                              average_window=(900.0, 1000.0), window_points=11,
                              n_spins=n)
    dens = {}
    for n in (51, 1001):
        stats = run_ensemble(mc(n).config(ProtocolKind.CONDITIONAL_TWO_STATE,
                                          DriveParams(0.86, 1.0), POISSON))
        dens[n] = stats.window_density
    assert dens[51] < 0.55
    assert dens[1001] > 0.75
