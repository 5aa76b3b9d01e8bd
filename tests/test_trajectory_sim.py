import numpy as np
import pytest
from scipy import stats

from spinreset.renewal import WaitingTime
from spinreset.spin_dynamics import DriveParams, flip_probability, free_excitation_density
from spinreset.trajectory_sim import (
    CHUNK,
    EnsembleStats,
    ProtocolKind,
    SimConfig,
    _trajectory_streams,
    binomial_quantile,
    run_ensemble,
)

from reference_sim import apply_reset_rule, measurement_outcome, run_trajectory

POISSON = WaitingTime.poisson(0.5)
PARAMS = DriveParams(omega=1.3, delta=1.0)


def small_config(protocol, n_spins=None, n_traj=128, omega=1.3, seed=3):
    grid = tuple(np.linspace(0.0, 8.0, 9))
    return SimConfig(protocol=protocol, params=DriveParams(omega=omega, delta=1.0),
                     dist=POISSON, observation_time=8.0, sample_grid=grid,
                     n_trajectories=n_traj, seed=seed, n_spins=n_spins,
                     average_window=(4.0, 8.0))


def test_sim_config_validation():
    good = small_config(ProtocolKind.UNCONDITIONAL_RESET)
    assert good.window_indices().tolist() == [4, 5, 6, 7, 8]
    with pytest.raises(ValueError):
        small_config(ProtocolKind.UNCONDITIONAL_RESET, n_traj=0)
    with pytest.raises(ValueError):
        small_config(ProtocolKind.CONDITIONAL_TWO_STATE, n_spins=10)
    base = dict(protocol=ProtocolKind.UNCONDITIONAL_RESET, params=PARAMS, dist=POISSON,
                n_trajectories=8, seed=0)
    with pytest.raises(ValueError):
        SimConfig(observation_time=0.0, sample_grid=(0.0,), **base)
    with pytest.raises(ValueError):
        SimConfig(observation_time=5.0, sample_grid=(), **base)
    with pytest.raises(ValueError):
        SimConfig(observation_time=5.0, sample_grid=(3.0, 1.0), **base)
    with pytest.raises(ValueError):
        SimConfig(observation_time=5.0, sample_grid=(0.0, 6.0), **base)
    with pytest.raises(ValueError):
        SimConfig(observation_time=5.0, sample_grid=(0.0, 5.0), workers=0, **base)
    with pytest.raises(ValueError):
        SimConfig(observation_time=5.0, sample_grid=(0.0, 5.0),
                  average_window=(4.0, 6.0), **base)
    with pytest.raises(ValueError):
        # window contains no grid point
        SimConfig(observation_time=5.0, sample_grid=(0.0, 5.0),
                  average_window=(1.0, 2.0), **base)
    with pytest.raises(ValueError):
        SimConfig(observation_time=5.0, sample_grid=(0.0, 5.0),
                  **{**base, "seed": -1})


def test_binomial_quantile_matches_cumsum_oracle():
    rng = np.random.default_rng(9)
    for n in (1, 5, 51, 201):
        for p in (0.02, 0.3, 0.5, 0.97):
            # cumsum of pmf would drift off the exact cdf at tie points
            cdf = stats.binom.cdf(np.arange(n + 1), n, p)
            us = np.concatenate([[0.0, 0.5], rng.random(200)])
            expect = np.searchsorted(cdf, us, side="left").clip(0, n)
            got = binomial_quantile(us, n, p)
            np.testing.assert_array_equal(got, expect)
    # degenerate p
    assert binomial_quantile(0.7, 9, 0.0) == 0
    assert binomial_quantile(0.7, 9, 1.0) == 9
    assert binomial_quantile(0.3, 0, 0.5) == 0
    # scalar in, scalar out
    assert isinstance(binomial_quantile(0.4, 11, 0.3), int)


def test_binomial_quantile_round_trips_cdf():
    # u drawn inside a cdf step must reproduce that k
    n, p = 31, 0.42
    cum = np.cumsum(stats.binom.pmf(np.arange(n + 1), n, p))
    for k in (0, 3, 15, 30):
        lo = 0.0 if k == 0 else cum[k - 1]
        u = 0.5 * (lo + cum[k])
        assert binomial_quantile(u, n, p) == k


def test_measurement_outcome_thermo_is_deterministic():
    rng = np.random.default_rng(1)
    for proto in ProtocolKind:
        val = measurement_outcome(proto, None, 0.2, 0.75, rng)
        assert val == pytest.approx(0.75 * 0.8 + 0.25 * 0.2, abs=1e-15)
    with pytest.raises(ValueError):
        measurement_outcome(ProtocolKind.UNCONDITIONAL_RESET, None, 1.2, 1.0, rng)


def test_measurement_outcome_finite_n_statistics():
    rng = np.random.default_rng(2)
    n, p, n0 = 51, 0.3, 1.0
    draws = np.array([measurement_outcome(ProtocolKind.CONDITIONAL_TWO_STATE,
                                          n, p, n0, rng) for _ in range(4000)])
    counts = draws * n
    np.testing.assert_allclose(counts, np.round(counts), atol=1e-9)
    mean = 1.0 - p  # all spins start up
    se = np.sqrt(p * (1 - p) / n / 4000)
    assert abs(draws.mean() - mean) < 4 * se
    with pytest.raises(ValueError):
        measurement_outcome(ProtocolKind.CONDITIONAL_TWO_STATE, 51, 0.3, 0.013, rng)


def test_measurement_outcome_consumes_two_uniforms():
    # fixed draw budget keeps trajectories aligned across protocols
    r1 = np.random.default_rng(7)
    r2 = np.random.default_rng(7)
    for proto in (ProtocolKind.CONDITIONAL_TWO_STATE, ProtocolKind.CONDITIONAL_FLIP):
        measurement_outcome(proto, 11, 0.4, 1.0, r1)
        r2.random(2)
        assert r1.random() == r2.random()


def test_apply_reset_rule():
    assert apply_reset_rule(ProtocolKind.UNCONDITIONAL_RESET, 0.1) == 1.0
    assert apply_reset_rule(ProtocolKind.UNCONDITIONAL_RESET, 0.9) == 1.0
    assert apply_reset_rule(ProtocolKind.CONDITIONAL_TWO_STATE, 0.51) == 1.0
    assert apply_reset_rule(ProtocolKind.CONDITIONAL_TWO_STATE, 0.49) == 0.0
    assert apply_reset_rule(ProtocolKind.CONDITIONAL_TWO_STATE, 0.5) == 0.0
    assert apply_reset_rule(ProtocolKind.CONDITIONAL_FLIP, 0.8) == 1.0
    assert apply_reset_rule(ProtocolKind.CONDITIONAL_FLIP, 0.3) == pytest.approx(0.7)
    assert apply_reset_rule(ProtocolKind.CONDITIONAL_FLIP, 0.5) == 0.5
    with pytest.raises(ValueError):
        apply_reset_rule(ProtocolKind.UNCONDITIONAL_RESET, 1.3)


def test_trajectory_without_resets_is_free_evolution():
    # push the first reset far beyond the horizon
    config = SimConfig(protocol=ProtocolKind.UNCONDITIONAL_RESET, params=PARAMS,
                       dist=WaitingTime.poisson(1e-12), observation_time=8.0,
                       sample_grid=tuple(np.linspace(0.0, 8.0, 9)),
                       n_trajectories=4, seed=0)
    d, x, pair = run_trajectory(config, np.random.default_rng(0))
    ts = np.asarray(config.sample_grid)
    np.testing.assert_allclose(d, free_excitation_density(PARAMS, ts, 1.0), atol=1e-12)
    np.testing.assert_allclose(x, free_excitation_density(PARAMS, ts, 1.0) ** 2,
                               atol=1e-12)
    assert pair.shape == (len(ts), 4, 4)
    np.testing.assert_allclose(pair[0], np.diag([1.0, 0, 0, 0]), atol=1e-15)


@pytest.mark.parametrize("protocol", list(ProtocolKind))
@pytest.mark.parametrize("n_spins", [None, 11])
def test_ensemble_matches_scalar_reference(protocol, n_spins):
    config = small_config(protocol, n_spins=n_spins)
    stats_out = run_ensemble(config)
    n = config.n_trajectories
    ds, xs, pairs = [], [], []
    for i in range(n):
        wait, meas = _trajectory_streams(config.seed, i)
        d, x, pair = run_trajectory(config, wait, meas)
        ds.append(d)
        xs.append(x)
        pairs.append(pair)
    ds, xs, pairs = np.array(ds), np.array(xs), np.array(pairs)
    np.testing.assert_allclose(stats_out.density, ds.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(stats_out.two_point, xs.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(stats_out.correlation, xs.mean(axis=0) - ds.mean(axis=0) ** 2,
                               atol=1e-12)
    np.testing.assert_allclose(stats_out.pair_states, pairs.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(stats_out.density_stderr,
                               ds.std(axis=0, ddof=1) / np.sqrt(n), atol=1e-12)
    # windowed quasi-stationary estimators: per-trajectory time averages
    widx = config.window_indices()
    wd, wx = ds[:, widx].mean(axis=1), xs[:, widx].mean(axis=1)
    assert stats_out.window_density == pytest.approx(wd.mean(), abs=1e-12)
    assert stats_out.window_density_stderr == pytest.approx(
        wd.std(ddof=1) / np.sqrt(n), abs=1e-12)
    assert stats_out.window_two_point == pytest.approx(wx.mean(), abs=1e-12)
    assert stats_out.window_correlation == pytest.approx(
        wx.mean() - wd.mean() ** 2, abs=1e-12)
    np.testing.assert_allclose(stats_out.window_pair, pairs[:, widx].mean(axis=(0, 1)),
                               atol=1e-12)


def test_window_correlation_stderr_delta_method():
    config = small_config(ProtocolKind.UNCONDITIONAL_RESET, n_traj=512)
    out = run_ensemble(config)
    widx = config.window_indices()
    wd, wx = [], []
    for i in range(config.n_trajectories):
        wait, meas = _trajectory_streams(config.seed, i)
        d, x, _ = run_trajectory(config, wait, meas)
        wd.append(d[widx].mean())
        wx.append(x[widx].mean())
    wd, wx = np.array(wd), np.array(wx)
    n = len(wd)
    md = wd.mean()
    var = (wx.var(ddof=1) + 4 * md**2 * wd.var(ddof=1)
           - 4 * md * np.cov(wd, wx, ddof=1)[0, 1])
    assert out.window_correlation_stderr == pytest.approx(np.sqrt(var / n), abs=1e-12)


def test_ensemble_bitwise_worker_independence():
    # more than one chunk so the split actually matters
    grid = tuple(np.linspace(0.0, 4.0, 5))
    base = dict(protocol=ProtocolKind.CONDITIONAL_TWO_STATE, params=PARAMS,
                dist=POISSON, observation_time=4.0, sample_grid=grid,
                n_trajectories=2 * CHUNK + 100, seed=12, n_spins=11,
                average_window=(2.0, 4.0))
    outs = [run_ensemble(SimConfig(workers=w, **base)) for w in (1, 4, 8)]
    for other in outs[1:]:
        assert outs[0].density.tobytes() == other.density.tobytes()
        assert outs[0].two_point.tobytes() == other.two_point.tobytes()
        assert outs[0].pair_states.tobytes() == other.pair_states.tobytes()
        assert outs[0].window_density == other.window_density
        assert outs[0].window_correlation_stderr == other.window_correlation_stderr
        assert outs[0].chunk_pair_means.tobytes() == other.chunk_pair_means.tobytes()
    assert outs[0].chunk_counts.sum() == base["n_trajectories"]


def test_repeat_runs_are_identical_and_seeds_matter():
    config = small_config(ProtocolKind.CONDITIONAL_FLIP, n_spins=11, n_traj=256)
    a = run_ensemble(config)
    b = run_ensemble(config)
    assert a.density.tobytes() == b.density.tobytes()
    other = run_ensemble(small_config(ProtocolKind.CONDITIONAL_FLIP, n_spins=11,
                                      n_traj=256, seed=4))
    assert a.density.tobytes() != other.density.tobytes()


def test_protocols_coincide_below_threshold():
    # flip probability never reaches 1/2 for omega < delta, so in the
    # thermodynamic limit every conditional reset lands on all-up
    kwargs = dict(n_spins=None, n_traj=256, omega=0.7, seed=6)
    ref = run_ensemble(small_config(ProtocolKind.UNCONDITIONAL_RESET, **kwargs))
    for proto in (ProtocolKind.CONDITIONAL_TWO_STATE, ProtocolKind.CONDITIONAL_FLIP):
        out = run_ensemble(small_config(proto, **kwargs))
        assert out.density.tobytes() == ref.density.tobytes()
        assert out.pair_states.tobytes() == ref.pair_states.tobytes()


def test_finite_n_density_is_lattice_valued():
    config = small_config(ProtocolKind.CONDITIONAL_TWO_STATE, n_spins=5, n_traj=1)
    d, x, pair = run_trajectory(config, *_trajectory_streams(config.seed, 0))
    # from a sharp count the density is a hypergeometric average, but at
    # t = 0 it must sit exactly on the lattice
    assert d[0] == 1.0
    assert np.all((d >= 0.0) & (d <= 1.0))
    assert np.all((x >= -1e-12) & (x <= 1.0 + 1e-12))


def test_ensemble_stats_bookkeeping():
    config = small_config(ProtocolKind.UNCONDITIONAL_RESET, n_traj=64)
    out = run_ensemble(config)
    assert isinstance(out, EnsembleStats)
    assert out.n_trajectories == 64
    assert out.wall_time >= 0.0
    assert out.times.shape == (9,)
    assert out.chunk_counts.sum() == 64
    assert out.chunk_pair_means.shape[0] == len(out.chunk_counts)
    assert out.chunk_window_pair_means.shape == (len(out.chunk_counts), 4, 4)
    # no window requested -> no window fields
    cfg2 = SimConfig(protocol=ProtocolKind.UNCONDITIONAL_RESET, params=PARAMS,
                     dist=POISSON, observation_time=4.0, sample_grid=(0.0, 4.0),
                     n_trajectories=8, seed=0)
    out2 = run_ensemble(cfg2)
    assert out2.window_density is None
    assert out2.chunk_window_pair_means is None


def test_mc_agrees_with_flip_probability_one_spin():
    # N = 1, protocol II: the spin is re-measured at every reset; at
    # short horizon with a dense grid the first segment dominates and
    # the density must track 1 - p(t) before the first reset
    config = SimConfig(protocol=ProtocolKind.CONDITIONAL_TWO_STATE, params=PARAMS,
                       dist=WaitingTime.poisson(1e-12), observation_time=2.0,
                       sample_grid=(0.0, 1.0, 2.0), n_trajectories=16, seed=1,
                       n_spins=1)
    out = run_ensemble(config)
    expect = 1.0 - flip_probability(PARAMS, np.array([0.0, 1.0, 2.0]))
    np.testing.assert_allclose(out.density, expect, atol=1e-12)
