import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinreset import analysis, renewal, trajectory_sim
from spinreset.analysis import (
    DEFAULT_BASELINES,
    JumpEstimate,
    McTemplate,
    PowerLawFit,
    REGIME_CLOSED,
    REGIME_FAILED,
    REGIME_MC,
    REGIME_MIXTURE,
    SWEEP_COLUMNS,
    SweepResult,
    ensemble_lqu,
    estimate_discontinuity,
    fit_power_law,
    require_exchange_symmetric,
    sweep_stationary,
)
from spinreset.observables import connected_correlation_closed_form, lqu
from spinreset.renewal import WaitingTime, stationary_density_closed_form
from spinreset.spin_dynamics import DriveParams, require_states
from spinreset.trajectory_sim import CHUNK, ProtocolKind, SimConfig, run_ensemble, run_ensembles

from reference_sim import branch_mix_poly

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
    # the template's workers are the ensemble's chunk processes
    assert McTemplate(workers=7).config(ProtocolKind.UNCONDITIONAL_RESET,
                                        DriveParams(1.0, 1.0), POISSON).workers == 7


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


def _reference_row(protocol, params, dist, n_spins=None):
    """One exact row the per-row way: the oracle's TrigPoly state, 2-D observables."""
    weights = renewal.reset_rates_R(params, dist, n_spins)
    if protocol is ProtocolKind.UNCONDITIONAL_RESET:
        branches = [(1.0, "up")]
    else:
        branches = [(weights.c_up, "up"), (weights.c_down, "down")]
    state, pair = branch_mix_poly(dist, params, branches)
    if protocol is ProtocolKind.CONDITIONAL_TWO_STATE and weights.c_up == weights.c_down:
        density = 0.5
    else:
        density = float(state[0, 0].real)
    n1, num = np.diag([1.0, 0.0]), np.eye(2)
    nj, nk = np.kron(n1, num).astype(complex), np.kron(num, n1).astype(complex)
    nn = np.kron(n1, n1).astype(complex)
    corr = float(np.trace(nn @ pair).real - np.trace(nj @ pair).real * np.trace(nk @ pair).real)
    lam, vec = np.linalg.eigh(0.5 * (pair + pair.conj().T))
    sq = (vec * np.sqrt(np.clip(lam, 0.0, None))) @ vec.conj().T
    paulis = ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])
    sq_locals = [sq @ np.kron(np.array(s, dtype=complex), np.eye(2)) for s in paulis]
    w = np.array([[np.trace(a @ b).real for b in sq_locals] for a in sq_locals])
    value = 1.0 - float(np.linalg.eigvalsh(0.5 * (w + w.T))[-1])
    return (density, corr, min(max(value, 0.0), 1.0)), state, pair


def _bits(x):
    return np.asarray(x, dtype=complex).view(np.uint64)


@pytest.mark.parametrize("protocol", [ProtocolKind.UNCONDITIONAL_RESET,
                                      ProtocolKind.CONDITIONAL_TWO_STATE])
@pytest.mark.parametrize("dist", [POISSON, WaitingTime.poisson(1.7),
                                  WaitingTime.chopped(0.5, 4.0), WaitingTime.chopped(1.7, 2.5),
                                  WaitingTime.chopped(0.5, 2e-8), WaitingTime.chopped(1.7, 1e-4),
                                  WaitingTime.chopped(0.5, 0.6)],
                         ids=["poisson", "poisson-1.7", "chopped", "chopped-1.7",
                              "chopped-short", "chopped-1.7-short", "chopped-below-cutoff"])
def test_batched_rows_equal_the_per_row_reference_bit_for_bit(protocol, dist):
    rng = np.random.default_rng(4)
    generic = [(x, 1.0) for x in np.r_[np.arange(0.01, 3.0, 0.0475), rng.uniform(0.0, 3.0, 25)]]
    # terms are keyed by their exact frequency, so a tiny obar (small
    # delta) is a generic row too
    generic += [(x * 1e-10, 1e-10) for x in (0.5, 1.5)]
    # no coefficient is dropped, so exact and tiny zeros (omega/delta = 0,
    # 1e-12, 1e-9) keep the term structure; omega = delta is the
    # protocol-2 threshold; obar = 0 has no dynamics
    degenerate = [(x, 1.0) for x in (0.0, 1e-12, 1e-9, 1e-7, 1.0, 2.0)] + [(0.0, 0.0)]
    drives = generic + degenerate + [(x * 1e-3, 1e-3) for x in (0.5, 1.0, 1.5)]
    params = [DriveParams(om, de) for om, de in drives]
    up = np.diag([1.0, 0.0]).astype(complex)
    for n_spins in (None, 51):
        rows, states = analysis.closed_form_rows(protocol, params, dist, n_spins)
        for p, row, st in zip(params, rows, states):
            (density, corr, discord), state, pair = _reference_row(protocol, p, dist, n_spins)
            assert np.array_equal(_bits(st.state), _bits(state)), p
            assert np.array_equal(_bits(st.pair_state), _bits(pair)), p
            got = np.array([row[0], row[2], row[4]], dtype=complex)
            assert np.array_equal(_bits(got), _bits([density, corr, discord])), p
            # and the one-row case is the same code
            one, _ = analysis.closed_form_row(protocol, p, dist, n_spins)
            assert np.array_equal(_bits([one[0], one[2], one[4]]), _bits(got)), p
        # the undriven row is its origin state
        still = states[drives.index((0.0, 0.0))]
        assert np.array_equal(_bits(still.state), _bits(up))
        assert np.array_equal(_bits(still.pair_state), _bits(np.kron(up, up)))


@pytest.mark.parametrize("protocol", [ProtocolKind.UNCONDITIONAL_RESET,
                                      ProtocolKind.CONDITIONAL_TWO_STATE])
def test_sweep_row_failing_a_batched_check_raises_the_per_row_error(protocol, monkeypatch):
    # survival weights off their law by a factor 40 at every nonzero
    # frequency leave states that are not PSD: the sweep fails with the
    # first failing row's own message
    weight = renewal._fourier_weight
    monkeypatch.setattr(renewal, "_fourier_weight",
                        lambda d, w: weight(d, w) * (40.0 if w else 1.0))
    dist = WaitingTime.chopped(0.5, 4.0)
    grid = [0.5, 0.9, 1.3, 1.7, 2.0, 2.5]
    with pytest.raises(ValueError) as per_row:
        analysis.closed_form_row(protocol, DriveParams(grid[0], 1.0), dist)
    with pytest.raises(ValueError) as swept:
        sweep_stationary(protocol, dist, grid)
    assert str(swept.value) == str(per_row.value)
    assert "not positive semidefinite" in str(swept.value)


def test_mc_sweep_rows_and_row_parallelism():
    mc = McTemplate(n_trajectories=2 * CHUNK + 100, observation_time=6.0, seed=0,
                    average_window=(4.0, 6.0), window_points=5)
    grid = [0.8, 1.1, 1.4]
    serial = sweep_stationary(ProtocolKind.CONDITIONAL_FLIP, POISSON, grid, mc=mc)
    assert serial.regime == [REGIME_MC] * 3
    assert np.all(serial.density_stderr > 0.0)
    # chunk processes must not change any number (every row replays the
    # chunk's one schedule, and chunks are combined in index order)
    mc_par = McTemplate(n_trajectories=2 * CHUNK + 100, observation_time=6.0, seed=0,
                        average_window=(4.0, 6.0), window_points=5, workers=3)
    parallel = sweep_stationary(ProtocolKind.CONDITIONAL_FLIP, POISSON, grid, mc=mc_par)
    np.testing.assert_array_equal(serial.density, parallel.density)
    np.testing.assert_array_equal(serial.lqu_stderr, parallel.lqu_stderr)


@pytest.mark.parametrize("workers", [1, 2])
def test_mc_sweep_records_row_failures(workers, monkeypatch):
    # an ensemble run that raises fails every row of the sweep, which
    # still returns, whether the chunks run serially or on the pool
    calls = []

    def failing(configs):
        calls.append(configs)
        raise ValueError(f"injected failure at omega {configs[0].params.omega}")

    monkeypatch.setattr(analysis, "run_ensembles", failing)
    mc = McTemplate(n_trajectories=64, observation_time=6.0, workers=workers,
                    average_window=(4.0, 6.0), window_points=5, n_spins=11)
    sweep = sweep_stationary(ProtocolKind.CONDITIONAL_TWO_STATE, POISSON, [0.9, 1.1],
                             mc=mc)
    assert sweep.regime == [REGIME_FAILED, REGIME_FAILED]
    assert np.all(np.isnan(sweep.density))
    assert set(sweep.row_errors) == {0, 1}
    assert "ValueError" in sweep.row_errors[0]
    assert sweep.row_errors[1] == sweep.row_errors[0]
    # one call runs the whole sweep, with every row's drive
    assert [[c.params.omega for c in configs] for configs in calls] == [[0.9, 1.1]]
    assert {c.workers for c in calls[0]} == {workers}


def test_mc_row_failure_fails_only_its_own_row(monkeypatch):
    mc_row = analysis._mc_row

    def failing(stats):
        if stats.config.params.omega == 1.1:
            raise ValueError("injected failure at omega 1.1")
        return mc_row(stats)

    monkeypatch.setattr(analysis, "_mc_row", failing)
    mc = McTemplate(n_trajectories=64, observation_time=6.0,
                    average_window=(4.0, 6.0), window_points=5)
    grid = [0.8, 1.1, 1.4]
    sweep = sweep_stationary(ProtocolKind.CONDITIONAL_FLIP, POISSON, grid, mc=mc)
    assert sweep.regime == [REGIME_MC, REGIME_FAILED, REGIME_MC]
    assert sweep.row_errors == {1: "ValueError: injected failure at omega 1.1"}
    assert np.isnan(sweep.density[1]) and not np.any(np.isnan(sweep.density[[0, 2]]))
    monkeypatch.setattr(analysis, "_mc_row", mc_row)
    clean = sweep_stationary(ProtocolKind.CONDITIONAL_FLIP, POISSON, grid, mc=mc)
    np.testing.assert_array_equal(sweep.density[[0, 2]], clean.density[[0, 2]])


STATS_ARRAYS = ("density", "density_stderr", "two_point", "two_point_stderr", "correlation",
                "correlation_stderr", "chunk_counts", "window_pair", "chunk_window_pair_means")
STATS_WINDOW = ("window_density", "window_density_stderr", "window_two_point",
                "window_two_point_stderr", "window_correlation", "window_correlation_stderr")


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("dist", [POISSON, WaitingTime.chopped(0.5, 3.0)],
                         ids=["poisson", "chopped"])
@pytest.mark.parametrize("n_spins", [None, 11])
@pytest.mark.parametrize("protocol", list(ProtocolKind))
def test_mc_sweep_rows_equal_independent_ensembles(protocol, n_spins, dist, workers,
                                                   monkeypatch):
    # every row replays the chunk's one schedule, yet each row must be
    # bit for bit the ensemble its drive gives on its own
    run = analysis.run_ensembles
    batches = []
    monkeypatch.setattr(analysis, "run_ensembles",
                        lambda configs: batches.append(run(configs)) or batches[-1])
    mc = McTemplate(n_trajectories=CHUNK + 200, observation_time=8.0, seed=4,
                    workers=workers, average_window=(4.0, 8.0), window_points=5,
                    n_spins=n_spins)
    grid = [0.0, 0.5, 1.0, 1.3]  # Omega = 0 and Omega = Delta included
    sweep = sweep_stationary(protocol, dist, grid, mc=mc, use_mc=True)
    assert sweep.regime == [REGIME_MC] * len(grid)
    [batch] = batches
    for i, (x, shared) in enumerate(zip(grid, batch)):
        alone = run_ensemble(mc.config(protocol, DriveParams(x, 1.0), dist))
        assert shared.config == alone.config
        for name in STATS_ARRAYS:
            assert getattr(shared, name).tobytes() == getattr(alone, name).tobytes(), (x, name)
        for name in STATS_WINDOW:
            assert getattr(shared, name) == getattr(alone, name), (x, name)
        row = analysis._mc_row(alone)
        got = [getattr(sweep, c)[i] for c in SWEEP_COLUMNS[1:-1]]
        assert np.array(got).tobytes() == np.array(row[:-1]).tobytes(), x


def test_mc_sweep_settings_fail_before_any_row(monkeypatch):
    calls = []
    run = analysis.run_ensembles
    monkeypatch.setattr(analysis, "run_ensembles",
                        lambda configs: calls.append(configs) or run(configs))
    for bad in (dict(n_spins=10), dict(n_trajectories=0), dict(window_points=0),
                dict(observation_time=-5.0), dict(workers=0)):
        with pytest.raises(ValueError):
            McTemplate(**bad)
    # a grid value no row can run with is an error too, as in exact sweeps
    for grid in ([1.1, -0.5], [1.2, 1.1], [1.1, 1.1]):
        with pytest.raises(ValueError):
            sweep_stationary(ProtocolKind.CONDITIONAL_FLIP, POISSON, grid,
                             mc=McTemplate(n_trajectories=64))
    assert calls == []
    # positive control: a valid sweep does reach the patched engine
    sweep = sweep_stationary(ProtocolKind.CONDITIONAL_FLIP, POISSON, [1.1],
                             mc=McTemplate(n_trajectories=64))
    assert len(calls) == 1 and sweep.regime == [REGIME_MC]


def test_use_mc_agrees_with_closed_form():
    mc = McTemplate(n_trajectories=4096, observation_time=25.0, seed=0)
    sweep = sweep_stationary(ProtocolKind.UNCONDITIONAL_RESET, POISSON, [1.0],
                             mc=mc, use_mc=True)
    assert sweep.regime == [REGIME_MC]
    expect = stationary_density_closed_form(DriveParams(1.0, 1.0), POISSON)
    pull = (sweep.density[0] - expect) / sweep.density_stderr[0]
    assert abs(pull) < 4.0


def per_chunk_lqu(stats):
    """The window LQU and its size-weighted batch-means error, one lqu call per state."""
    chunk_vals = np.array([lqu(c).value for c in stats.chunk_window_pair_means])
    w = stats.chunk_counts.astype(float)
    vbar = (w * chunk_vals).sum() / w.sum()
    s2 = (w * (chunk_vals - vbar) ** 2).sum() / (len(w) - 1)
    return lqu(stats.window_pair).value, math.sqrt(s2 / w.sum())


def test_ensemble_lqu_batch_means():
    mc = McTemplate(n_trajectories=1100, observation_time=8.0, seed=2,
                    average_window=(5.0, 8.0), window_points=7)
    stats = run_ensemble(mc.config(ProtocolKind.UNCONDITIONAL_RESET,
                                   DriveParams(1.2, 1.0), POISSON))
    value, err = ensemble_lqu(stats)
    assert (value, err) == per_chunk_lqu(stats)
    assert err > 0.0
    # no window -> no estimator
    cfg = mc.config(ProtocolKind.UNCONDITIONAL_RESET, DriveParams(1.2, 1.0), POISSON)
    cfg = type(cfg)(**{**cfg.__dict__, "average_window": None})
    with pytest.raises(ValueError):
        ensemble_lqu(run_ensemble(cfg))


def test_mc_sweep_discord_equals_each_ensembles_per_chunk_lqu():
    mc = McTemplate(n_trajectories=2100, observation_time=8.0, seed=4,
                    average_window=(5.0, 8.0), window_points=5)
    grid = [0.6, 1.1, 1.7]
    sweep = sweep_stationary(ProtocolKind.CONDITIONAL_TWO_STATE, POISSON, grid, mc=mc,
                             use_mc=True)
    assert sweep.regime == [REGIME_MC] * len(grid)
    for i, x in enumerate(grid):
        stats = run_ensemble(mc.config(ProtocolKind.CONDITIONAL_TWO_STATE,
                                       DriveParams(x, 1.0), POISSON))
        assert (sweep.lqu[i], sweep.lqu_stderr[i]) == per_chunk_lqu(stats)


def test_jump_protocol_two_is_exact():
    grid = np.arange(0.8, 1.21, 0.05)
    sweep = sweep_stationary(ProtocolKind.CONDITIONAL_TWO_STATE, POISSON, grid)
    jump = estimate_discontinuity(sweep, critical_point=1.0)
    assert jump.value == pytest.approx(25.0 / 33.0 - 0.5, abs=1e-15)
    assert jump.stderr == 0.0
    assert jump.left == pytest.approx(25.0 / 33.0, abs=1e-15)
    assert jump.right == 0.5


def test_exact_rows_refuse_a_protocol_with_no_exact_state():
    params = DriveParams(1.3, 1.0)
    with pytest.raises(ValueError, match="protocol 3"):
        analysis.closed_form_rows(ProtocolKind.CONDITIONAL_FLIP, [params] * 6, POISSON)
    with pytest.raises(ValueError, match="protocol 3"):
        analysis.closed_form_row(ProtocolKind.CONDITIONAL_FLIP, params, POISSON)
    # a protocol-3 sweep labelled exact has no branch to evaluate at the
    # critical point: it raises instead of reading protocol 2's
    xs = [0.9, 1.1]
    sweep = synthetic_sweep(xs, [0.7, 0.5], regime=[REGIME_CLOSED, REGIME_MC])
    with pytest.raises(ValueError, match="protocol 3"):
        estimate_discontinuity(sweep, 1.0)


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


@pytest.mark.parametrize("column, bad", [("values", 1), ("values", 3), ("errs", 0),
                                         ("errs", 2)])
def test_jump_rejects_a_non_finite_row_that_did_not_fail(column, bad):
    # a NaN in a row not labelled failed (a hand-edited or foreign sweep)
    # used to come back as a NaN jump; it now names the row
    xs = np.array([0.8, 0.9, 1.1, 1.2])
    data = {"values": np.array([0.7, 0.65, 0.45, 0.4]), "errs": np.full(4, 0.01)}
    data[column][bad] = np.nan if column == "values" else np.inf
    with pytest.raises(ValueError, match=f"omega/delta={xs[bad]} .*not a finite value"):
        estimate_discontinuity(synthetic_sweep(xs, data["values"], data["errs"]), 1.0)
    # a row beyond the two nearest on its side is not read
    xs = np.array([0.7, 0.8, 0.9, 1.1, 1.2])
    values = np.array([np.nan, 0.7, 0.65, 0.45, 0.4])
    jump = estimate_discontinuity(synthetic_sweep(xs, values, np.full(5, 0.01)), 1.0)
    assert math.isfinite(jump.value) and math.isfinite(jump.stderr)


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


log_uniform = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)


def _rescaled(drives, dist, s):
    """The same dimensionless rows in units scaled by s: (s omega, s delta, s gamma, t_max / s)."""
    scaled = [DriveParams(s * p.omega, s * p.delta) for p in drives]
    if dist.t_max is None:
        return scaled, WaitingTime.poisson(s * dist.gamma)
    return scaled, WaitingTime.chopped(s * dist.gamma, dist.t_max / s)


@settings(max_examples=100, deadline=None)
@given(drives=st.lists(st.builds(DriveParams, omega=log_uniform, delta=log_uniform),
                       min_size=1, max_size=8),
       dist=st.one_of(st.builds(WaitingTime.poisson, log_uniform),
                      st.builds(WaitingTime.chopped, log_uniform, log_uniform)),
       n_spins=st.sampled_from([None, 1, 51, 1001]),
       scale=st.floats(-150.0, 150.0).map(lambda e: 10.0 ** e))
def test_closed_form_rows_are_valid_property(drives, dist, n_spins, scale):
    for protocol in (ProtocolKind.UNCONDITIONAL_RESET, ProtocolKind.CONDITIONAL_TWO_STATE):
        rows, states = analysis.closed_form_rows(protocol, drives, dist, n_spins)
        for params, (density, _, corr, _, discord, _, _), state in zip(drives, rows, states):
            # every row equals the per-row oracle bit for bit
            weights = state.weights
            ref_state, ref_pair = branch_mix_poly(
                dist, params, [(weights.c_up, "up"), (weights.c_down, "down")])
            assert np.array_equal(_bits(state.state), _bits(ref_state))
            assert np.array_equal(_bits(state.pair_state), _bits(ref_pair))
            assert 0.0 <= density <= 1.0
            assert -0.25 <= corr <= 0.25
            assert 0.0 <= discord <= 1.0
            if protocol is ProtocolKind.UNCONDITIONAL_RESET:
                assert density == pytest.approx(
                    stationary_density_closed_form(params, dist), abs=1e-12)
        # the rows depend only on the dimensionless groups; the LQU takes the
        # square root of a nearly singular state, which turns rounding-level
        # changes of that state into about 1e-8
        scaled, _ = analysis.closed_form_rows(protocol, *_rescaled(drives, dist, scale), n_spins)
        for row, other in zip(rows, scaled):
            assert other[0] == pytest.approx(row[0], abs=1e-14)
            assert other[2] == pytest.approx(row[2], abs=1e-14)
            assert other[4] == pytest.approx(row[4], abs=1e-7)


@settings(max_examples=40, deadline=None)
@given(drives=st.lists(st.builds(DriveParams, omega=log_uniform, delta=log_uniform),
                       min_size=1, max_size=3),
       dist=st.one_of(st.builds(WaitingTime.poisson, log_uniform),
                      st.builds(WaitingTime.chopped, log_uniform, log_uniform)),
       n_spins=st.sampled_from([None, 1, 11, 51]),
       protocol=st.sampled_from(list(ProtocolKind)),
       resets=st.floats(0.5, 40.0))
def test_ensemble_states_are_valid_property(drives, dist, n_spins, protocol, resets):
    # the horizon is `resets` mean waits, so every schedule stays small;
    # CHUNK + 1 trajectories make a second chunk for the batch-means error
    horizon = resets / trajectory_sim._expected_resets(dist, 1.0)
    configs = [SimConfig(protocol=protocol, params=params, dist=dist, observation_time=horizon,
                         sample_grid=tuple(np.linspace(horizon / 2, horizon, 3)),
                         n_trajectories=CHUNK + 1, seed=0, n_spins=n_spins,
                         average_window=(horizon / 2, horizon))
               for params in drives]
    for stats in run_ensembles(configs):
        states = np.concatenate([stats.window_pair[None], stats.chunk_window_pair_means])
        require_states(states, 4)
        require_exchange_symmetric(states)
        value, stderr = ensemble_lqu(stats)
        assert 0.0 <= value <= 1.0
        assert math.isfinite(stderr)
