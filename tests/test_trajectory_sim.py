import os
import re
import signal
import types
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import bdtr

from spinreset import trajectory_sim
from spinreset.analysis import McTemplate, sweep_stationary
from spinreset.renewal import WaitingTime
from spinreset.spin_dynamics import DriveParams
from spinreset.trajectory_sim import (
    CHUNK,
    EnsembleStats,
    ProtocolKind,
    SimConfig,
    _ChunkState,
    _RowStreams,
    _trajectory_streams,
    binomial_quantile,
    run_ensemble,
    run_ensembles,
)

from reference_sim import binomial_quantile as bdtr_walk_quantile
from reference_sim import (
    GridWalk,
    apply_reset_rule,
    flip_probability,
    free_excitation_density,
    measurement_outcome,
    new_accumulators,
    numpy_streams,
    record_finite,
    record_thermo,
    run_trajectory,
)

POISSON = WaitingTime.poisson(0.5)
PARAMS = DriveParams(omega=1.3, delta=1.0)


def small_config(protocol, n_spins=None, n_traj=128, omega=1.3, seed=3, horizon=8.0):
    grid = tuple(np.linspace(0.0, horizon, 9))
    return SimConfig(protocol=protocol, params=DriveParams(omega=omega, delta=1.0),
                     dist=POISSON, observation_time=horizon, sample_grid=grid,
                     n_trajectories=n_traj, seed=seed, n_spins=n_spins,
                     average_window=(horizon / 2, horizon))


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
    # counts are integers: a float or a string is refused, whatever its value
    for field, bad in (("n_trajectories", 10.5), ("n_trajectories", 8.0),
                       ("n_trajectories", "8"), ("workers", 1.5), ("workers", 2.0),
                       ("workers", "2")):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SimConfig(observation_time=5.0, sample_grid=(0.0, 5.0), **{**base, field: bad})
    # an integer of another type is stored as int: True is one trajectory
    for field, value in (("n_trajectories", True), ("n_trajectories", np.int64(8)),
                         ("workers", np.uint8(2))):
        config = SimConfig(observation_time=5.0, sample_grid=(0.0, 5.0), **{**base, field: value})
        stored = getattr(config, field)
        assert type(stored) is int and stored == value
    one = run_ensemble(replace(small_config(ProtocolKind.UNCONDITIONAL_RESET), n_trajectories=True))
    assert type(one.n_trajectories) is int and one.chunk_counts.tolist() == [1]


@pytest.mark.parametrize("n_spins", [5.5, 4, 0, -3, float("inf"), float("nan")])
def test_sim_config_rejects_n_spins_that_is_not_a_positive_odd_integer(n_spins):
    with pytest.raises(ValueError, match="positive odd integer"):
        small_config(ProtocolKind.CONDITIONAL_FLIP, n_spins=n_spins)


@pytest.mark.parametrize("n_spins", [None, 11], ids=["limit", "finite-n"])
@pytest.mark.parametrize("protocol", list(ProtocolKind))
def test_sim_config_refuses_a_drive_whose_rabi_frequency_is_not_finite(protocol, n_spins):
    base = dict(protocol=protocol, dist=POISSON, observation_time=5.0, sample_grid=(0.0, 5.0),
                n_trajectories=8, seed=0, n_spins=n_spins)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for omega, delta in [(1.7e308, 1.7e308), (1.5e308, 1e308)]:
            reason = (f"omega = {omega:g}, delta = {delta:g}: the Rabi frequency "
                      "hypot(omega, delta) is not finite")
            with pytest.raises(ValueError, match=re.escape(reason)):
                SimConfig(params=DriveParams(omega=omega, delta=delta), **base)
        SimConfig(params=DriveParams(omega=1e308, delta=1e308), **base)  # obar = 1.41e308


def test_binomial_quantile_matches_cumsum_oracle():
    rng = np.random.default_rng(9)
    cases = [(n, p) for n in (1, 5, 51, 201) for p in (0.02, 0.3, 0.5, 0.97)]
    # the normal seed is farthest off at large n and in the tails of p and u
    cases += [(n, p) for n in (1001, 10001) for p in (0.02, 0.3, 0.5, 0.97)]
    cases += [(n, p) for n in (1, 5, 51, 201, 1001, 10001) for p in (1e-6, 1.0 - 1e-6)]
    for n, p in cases:
        # cumsum of pmf would drift off the exact cdf at tie points
        cdf = stats.binom.cdf(np.arange(n + 1), n, p)
        # cdf(5000) = 1/2 exactly at (10001, 1/2): stats.binom.cdf rounds the
        # tie to 0.49999999999999967, bdtr to 0.5000000000016
        half = [] if (n, p) == (10001, 0.5) else [0.5]
        us = np.concatenate([[0.0], half, rng.random(200), [2.0**-53, 1.0 - 2.0**-53]])
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


@pytest.mark.parametrize("n", [1, 3, 51, 201, 1001, 10001])
def test_binomial_quantile_is_the_bdtr_walk_bit_for_bit(n, monkeypatch):
    # u at every cdf value and its two neighbours lies within the margin of the
    # pmf estimate, so there bdtr decides; u = 0 and the largest uniform are the ends
    for p in (1e-6, 0.02, 0.5, 0.97, 1.0 - 1e-6):
        cdf = bdtr(np.arange(n + 1.0), n, p)
        u = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0),
                            [0.0, 1.0 - 2.0**-53]])
        np.testing.assert_array_equal(binomial_quantile(u, n, p), bdtr_walk_quantile(u, n, p))
        # above _PMF_MAX_N no estimate decides, and every element walks by bdtr
        with monkeypatch.context() as patch:
            patch.setattr(trajectory_sim, "_PMF_MAX_N", n // 2)
            both = [n // 2, n]
            np.testing.assert_array_equal(binomial_quantile(u[:, None], both, p),
                                          bdtr_walk_quantile(u[:, None], both, p))


def _counting_bdtr(monkeypatch):
    """trajectory_sim.bdtr that logs each call's element count."""
    sizes = []
    monkeypatch.setattr(trajectory_sim, "bdtr",
                        lambda k, n, p: sizes.append(np.broadcast(k, n, p).size) or bdtr(k, n, p))
    return sizes


def test_binomial_quantile_leaves_bdtr_only_the_cdf_values(monkeypatch):
    rng = np.random.default_rng(11)
    size = 20_000
    u, n, p = rng.random(size), rng.integers(1, 202, size), rng.random(size)
    sizes = _counting_bdtr(monkeypatch)
    np.testing.assert_array_equal(binomial_quantile(u, n, p), bdtr_walk_quantile(u, n, p))
    # the in-house cdf bounds decide every comparison of random draws
    assert sizes == []
    # at the cdf values themselves u lies within the bounds' margin, and bdtr decides
    cdf = bdtr(np.arange(202.0), 201, 0.3)
    np.testing.assert_array_equal(binomial_quantile(cdf, 201, 0.3),
                                  bdtr_walk_quantile(cdf, 201, 0.3))
    assert sum(sizes) >= cdf.size


def test_bdtr_is_within_its_margin_of_the_exact_binomial_cdf():
    # _CDF_MARGIN covers bdtr's rounding, which _cdf_bracket puts below 6e-11
    # relative; checked against the exact cdf, summed in 40 digits over the
    # tail k bounds, at k up to 9 standard deviations off the mean
    rng = np.random.default_rng(5)
    worst = 0.0
    with mpmath.workdps(40):
        for _ in range(300):
            n = int(np.exp(rng.uniform(0.0, np.log(1e4))))
            p = float(rng.choice([rng.random(), 10 ** rng.uniform(-8, 0),
                                  1 - 10 ** rng.uniform(-8, 0)]))
            k = int(np.clip(np.rint(n * p + rng.uniform(-9, 9) * np.sqrt(n * p * (1 - p))), 0, n))
            exact = _exact_binomial_cdf(k, n, mpmath.mpf(p))
            if exact > mpmath.mpf("1e-300"):
                worst = max(worst, float(abs(bdtr(float(k), n, p) - exact) / exact))
    assert worst < 6e-11 < trajectory_sim._CDF_MARGIN


def _exact_binomial_cdf(k, n, p):
    """P(Bin(n, p) <= k) at mpmath's precision, by the pmf's ratio recurrence."""
    q = 1 - p
    if k >= n:
        return mpmath.mpf(1)
    if k <= n * p:  # the lower tail, from pmf(k) down
        term = mpmath.binomial(n, k) * p**k * q**(n - k)
        total = term
        for j in range(k, 0, -1):
            term = term * j / (n - j + 1) * q / p
            total += term
        return total
    term = mpmath.binomial(n, k + 1) * p**(k + 1) * q**(n - k - 1)  # the upper tail
    total = term
    for j in range(k + 1, n):
        term = term * (n - j) / (j + 1) * p / q
        total += term
    return 1 - total


def _exact_binomial_cdfs(n, p):
    """P(Bin(n, p) <= k) for k = 0..n at mpmath's precision, by the pmf's ratio recurrence."""
    p = mpmath.mpf(p)
    q = 1 - p
    term = q**n
    cdf = [term]
    for j in range(n):
        term = term * (n - j) / (j + 1) * p / q
        cdf.append(cdf[-1] + term)
    return cdf


@pytest.mark.parametrize("n", [1, 2, 7, 64, 201, 1001, trajectory_sim._PMF_MAX_N])
def test_cdf_bounds_contain_the_exact_binomial_cdf(n):
    # every k and p from 1e-300 to 1 - 1e-16, against the cdf summed in 40 digits;
    # at n = 1001, p = 0.937 the cdf at the majority is subnormal, where only the
    # bounds' absolute widening by the smallest normal float holds it
    rng = np.random.default_rng(n)
    k = np.arange(n + 1)
    for p in [1e-300, 1e-12, 1e-3, 0.3, 0.5, 0.937, 1 - 1e-9, 1 - 1e-16, *rng.random(2)]:
        lo, hi = trajectory_sim._cdf_bounds(k, np.full(k.size, n), np.full(k.size, p))
        with mpmath.workdps(40):
            exact = _exact_binomial_cdfs(n, p)
            outside = [j for j in k if not mpmath.mpf(lo[j]) <= exact[j] <= mpmath.mpf(hi[j])]
        assert outside == [], (p, outside[:5])
    assert 0.0 < bdtr(500, 1001, 0.937) < np.finfo(float).tiny


@pytest.mark.parametrize("n", [1, 3, 11, 201, 1001, 10**6])
def test_cdf_table_brackets_the_majority_cdf(n):
    # bdtr(half, n, q) falls as q rises, so on the table cell j = floor(q * M)
    # it lies in [lo_j, hi_j], and the table decides only outside that range
    rng = np.random.default_rng(n)
    half, cells = (n - 1) // 2, trajectory_sim._CDF_CELLS
    grid = np.arange(cells + 1) / cells
    q = np.concatenate([rng.random(100_000), grid, np.nextafter(grid, 0.0),
                        np.nextafter(grid, 2.0)])
    q = q[(q >= 0.0) & (q < 1.0)]
    lo, hi = trajectory_sim._cdf_bracket(half, n)
    j = (q * cells).astype(np.int64)
    cdf = bdtr(half, n, q)
    assert np.all((lo[j] <= cdf) & (cdf <= hi[j]))
    for u in (cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0)):
        np.testing.assert_array_equal(trajectory_sim._quantile_at_most(u, n, q, half),
                                      u <= cdf)
    # q = 1 keeps binomial_quantile's answer n, even at u = 0
    assert not trajectory_sim._quantile_at_most(np.zeros(1), n, np.ones(1), half).any()


# drives for the phase-cell tests: a generic one, ratio 1 (p reaches 1), ratio 0, obar = 0,
# one whose phase index passes _PHASE_FAR at moderate tau, and one for which
# obar * _PHASE_CELLS / pi overflows to inf
PHASE_DRIVES = [DriveParams(omega=1.3, delta=1.0), DriveParams(omega=1.0, delta=0.0),
                DriveParams(omega=0.0, delta=1.0), DriveParams(omega=0.0, delta=0.0),
                DriveParams(omega=0.2, delta=3.0), DriveParams(omega=1e6, delta=1e6),
                DriveParams(omega=1e305, delta=1e305)]


def _drive_columns(drives):
    """(obar, ratio) columns as _ChunkState builds them."""
    obar = [d.effective_rabi for d in drives]
    ratio = [(d.omega / o) ** 2 if o else 0.0 for d, o in zip(drives, obar)]
    return np.array(obar)[:, None], np.array(ratio)[:, None]


def _cell_edge_taus(obar, rng):
    """Waits at phase-cell edges, as the index and as the phase place them, and one ulp
    either side: the first cells, the fold point pi / 2, the period pi, random cells, and
    _PHASE_FAR."""
    cells = trajectory_sim._PHASE_CELLS
    k = np.concatenate([np.arange(6), cells // 2 + np.arange(-3, 4), cells + np.arange(-3, 4),
                        rng.integers(0, trajectory_sim._PHASE_FAR, 300),
                        trajectory_sim._PHASE_FAR + np.arange(-2, 3)]).astype(float)
    if obar == 0.0:
        edges = k
    else:
        edges = np.concatenate([k / (cells / np.pi) / obar, k * (np.pi / cells) / obar])
    return np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])


def _exact_at_most(u, n, q):
    """binomial_quantile(u, n, q) <= (n - 1) // 2 by the exact comparison; q >= 1 gives n."""
    return (q < 1.0) & (u <= bdtr((n - 1) // 2, n, q))


@pytest.mark.filterwarnings("error")  # no cast of inf or NaN to int, no other float warning
@pytest.mark.parametrize("n", [1, 3, 11, 201, 1001, 10**6])
def test_phase_cell_majority_tests_equal_the_exact_comparison(n):
    rng = np.random.default_rng(n)
    for drive in PHASE_DRIVES:
        obar, ratio = _drive_columns([drive])
        tau = _cell_edge_taus(obar[0, 0], rng)  # phases up to about 4e8
        p = trajectory_sim._flip_probability(obar, ratio, tau)[0]
        cdf_up, cdf_down = (bdtr((n - 1) // 2, n, q) for q in (1.0 - p, p))
        for step in (None, 0.0, 2.0):  # the cdf values themselves and their neighbours
            u_up, u_down = ((c if step is None else np.nextafter(c, step))
                            for c in (cdf_up, cdf_down))
            for u_up, u_down in ((u_up, u_down), (rng.random(tau.size), rng.random(tau.size))):
                up, down = trajectory_sim._majority_tests(n, obar, ratio, tau, u_up, u_down)
                np.testing.assert_array_equal(up[0], _exact_at_most(u_up, n, 1.0 - p))
                np.testing.assert_array_equal(down[0], _exact_at_most(u_down, n, p))
    # every drive at once, each at its own offset in the stacked tables
    obar, ratio = _drive_columns(PHASE_DRIVES)
    edges = _cell_edge_taus(1.3, rng)
    tau = np.concatenate([rng.exponential(2.0, 2000), edges[edges < 100.0]])  # obar * tau finite
    u_up, u_down = rng.random(tau.size), rng.random(tau.size)
    p = trajectory_sim._flip_probability(obar, ratio, tau)
    up, down = trajectory_sim._majority_tests(n, obar, ratio, tau, u_up, u_down)
    np.testing.assert_array_equal(up, _exact_at_most(u_up, n, 1.0 - p))
    np.testing.assert_array_equal(down, _exact_at_most(u_down, n, p))
    assert trajectory_sim._majority_tests(n, obar, ratio, tau, u_up)[1] is None


def test_protocol_two_benchmark_ensemble_evaluates_few_flip_probabilities(monkeypatch, tmp_path):
    # mc_finite_n's protocol-2 ensemble: the phase cells decide nearly every reset's
    # majority tests, and the exact p is evaluated for at most 1 % of the resets scanned
    from spinreset import cli

    scanned, evaluated = [], []
    majority, flip = trajectory_sim._majority_tests, trajectory_sim._flip_probability

    def scan(n, obar, ratio, tau, *u):
        scanned.append(obar.size * tau.size)
        return majority(n, obar, ratio, tau, *u)

    def exact(obar, ratio, tau):
        evaluated.append(np.broadcast(obar, ratio, tau).size)
        return flip(obar, ratio, tau)

    monkeypatch.setattr(trajectory_sim, "_majority_tests", scan)
    monkeypatch.setattr(trajectory_sim, "_flip_probability", exact)
    argv = ["ensemble", "--protocol", "2", "--omega", "1.3", "--trajectories", "2000",
            "--n-spins", "201", "--time", "2000.0", "--window", "1000.0:2000.0",
            "--workers", "1", "--seed", "0", "--output", str(tmp_path / "p2")]
    assert cli.execute_command(argv) == 0
    assert sum(scanned) > 1_000_000
    assert 0 < sum(evaluated) <= 0.01 * sum(scanned)


def _measured_count(n, count, u_up, u_down, p):
    # both binomials drawn in full by the bdtr walk, as the scalar reference measures
    return (bdtr_walk_quantile(u_up, count, 1.0 - p)
            + bdtr_walk_quantile(u_down, n - count, p))


def _two_quantile_rule(protocol, n, count, u_up, u_down, p):
    measured = _measured_count(n, count, u_up, u_down, p)
    minority = 2 * measured <= n
    if protocol is ProtocolKind.CONDITIONAL_TWO_STATE:
        return np.where(minority, 0, n)
    return np.where(minority, n - measured, n)


@pytest.mark.parametrize("n", [11, 201, 1001])
def test_finite_measurement_matches_two_quantile_rule(n):
    rng = np.random.default_rng(n)
    half = (n - 1) // 2
    # every combination of the edge values: u_up = 0, p = 0 and 1, a p
    # whose 1 - p rounds to 1, count = N and (N + 1) / 2, and counts that
    # let flip_up alone exceed half
    mesh = np.meshgrid([0.0, 0.5, 1.0 - 2.0**-53], [0.0, 0.5, 0.999999],
                       [n, half + 1, half, 0], [0.0, 1e-17, 0.3, 0.5, 0.999, 1.0],
                       indexing="ij")
    edges = [a.ravel() for a in mesh]  # u_up, u_down, count, p
    edges[2] = edges[2].astype(np.int64)
    assert np.any(binomial_quantile(edges[1], n - edges[2], edges[3]) > half)
    size = 100_000
    draws = (rng.random(size), rng.random(size), rng.integers(0, n + 1, size), rng.random(size))
    for u_up, u_down, count, p in (edges, draws):
        # protocol 3 at any origin, by the rule the waves apply below all-up
        expect = _two_quantile_rule(ProtocolKind.CONDITIONAL_FLIP, n, count, u_up, u_down, p)
        np.testing.assert_array_equal(trajectory_sim._flip_rule(n, count, p, u_up, u_down),
                                      expect)
        # an all-up origin's outcome as the slab pass decides it: the majority
        # test at scalar N (the cdf table), and stay_up for the flips alone
        all_up, all_down = np.full_like(count, n), np.zeros_like(count)
        flips = trajectory_sim._quantile_at_most(u_up, n, 1.0 - p, half)
        outcome = all_up.copy()
        outcome[flips] = n - binomial_quantile(u_up[flips], n, 1.0 - p[flips])
        np.testing.assert_array_equal(outcome, _two_quantile_rule(
            ProtocolKind.CONDITIONAL_FLIP, n, all_up, u_up, u_down, p))
        # protocol 2: an all-up origin ends all-down where its test holds, and
        # an all-down one stays there where the test of its uniform u_down holds
        for origin, u, q in ((all_up, u_up, 1.0 - p), (all_down, u_down, p)):
            np.testing.assert_array_equal(
                np.where(trajectory_sim._quantile_at_most(u, n, q, half), 0, n),
                _two_quantile_rule(ProtocolKind.CONDITIONAL_TWO_STATE, n, origin, u_up, u_down, p))


def _elements(u, *args):
    """u broadcast against the other arguments, one value per element."""
    return np.broadcast_to(u, np.broadcast(u, *args).shape).ravel()


def test_all_up_origins_draw_stay_up_only_for_resets_that_flip(monkeypatch):
    # an all-up origin has no down spin, so only the resets below all-up draw
    # flip_up.  The slab pass tests every reset once for what it makes of an
    # all-up origin, and draws stay_up for each reset that flips one; the
    # waves draw both counts in full at every reset below all-up.  A draw is
    # told apart by its uniform, the u_up or u_down of one reset.
    protocol = ProtocolKind.CONDITIONAL_FLIP
    config = small_config(protocol, n_spins=201, omega=1.1, horizon=200.0, n_traj=64)
    n = config.n_spins
    state = _ChunkState([config], 0, config.n_trajectories)
    scheduled = np.count_nonzero(state.resets <= config.sample_grid[-1])
    walk = GridWalk(state)
    log = []  # every reset of the walk: origin count, u_up, u_down, p (one drive)
    step = walk.finite_measurement

    def checked(idx, p):
        base = 2 * walk.cursor[idx]
        args = (walk.origin[0, idx].copy(), walk.meas_u[idx, base], walk.meas_u[idx, base + 1],
                p[0])
        step(idx, p)
        np.testing.assert_array_equal(walk.origin[0, idx], _two_quantile_rule(protocol, n, *args))
        log.append(args)

    walk.finite_measurement = checked
    origins, _ = walk.states(config.sample_grid)
    count, u_up, u_down, p = (np.concatenate(a) for a in zip(*log))
    assert np.unique(np.concatenate([u_up, u_down])).size == 2 * count.size
    below = count < n
    flipped = 2 * _measured_count(n, count, u_up, u_down, p) <= n
    all_up_flips = 2 * _measured_count(n, np.full_like(count, n), u_up, u_down, p) <= n

    draws, tests, phase_tests = [], [], []
    quantile, at_most = trajectory_sim.binomial_quantile, trajectory_sim._quantile_at_most
    majority = trajectory_sim._majority_tests
    monkeypatch.setattr(trajectory_sim, "binomial_quantile",
                        lambda u, m, q: draws.append(_elements(u, m, q)) or quantile(u, m, q))
    monkeypatch.setattr(trajectory_sim, "_quantile_at_most",
                        lambda u, m, q, h: tests.append(_elements(u, m, q)) or at_most(u, m, q, h))

    def phase_test(m, obar, ratio, tau, u, *down):
        phase_tests.append(_elements(u, obar * tau))  # one uniform per (drive, reset) pair
        return majority(m, obar, ratio, tau, u, *down)

    monkeypatch.setattr(trajectory_sim, "_majority_tests", phase_test)
    state.advance_to()
    assert_same_bits(state.grid_origin, origins)

    def same(got, expect):
        np.testing.assert_array_equal(np.sort(got), np.sort(expect))

    draws = np.concatenate(draws)
    flip_up = np.isin(draws, u_down)
    assert np.all(flip_up | np.isin(draws, u_up))
    same(draws[flip_up], u_down[below])  # flip_up: the resets below all-up
    # stay_up: the resets that flip an all-up origin, and every reset below all-up
    same(draws[~flip_up], np.concatenate([u_up[all_up_flips], u_up[below]]))
    # the all-up test of every reset with t <= t_end, once, by its phase cell
    same(np.concatenate(phase_tests), u_up)
    tests = np.concatenate(tests + [np.empty(0)])  # only where the cell's bracket leaves it open
    assert np.all(np.isin(tests, u_up)) and np.unique(tests).size == tests.size < u_up.size
    assert count.size == scheduled
    assert 0 < np.count_nonzero(flipped) < count.size / 2
    assert 0 < np.count_nonzero(below) < count.size / 2


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


# The N = 201 case sits where about a fifth of the resets flip, so the
# engine's cdf-decided flips meet the reference's two full quantiles often.
REFERENCE_CASES = [pytest.param(n, p, {}, id=f"{n}-{p}")
                   for n in (None, 11) for p in ProtocolKind]
REFERENCE_CASES.append(pytest.param(201, ProtocolKind.CONDITIONAL_FLIP,
                                    dict(omega=1.1, horizon=200.0, n_traj=64),
                                    id="201-ProtocolKind.CONDITIONAL_FLIP"))


@pytest.mark.parametrize("n_spins, protocol, overrides", REFERENCE_CASES)
def test_ensemble_matches_scalar_reference(protocol, n_spins, overrides):
    config = small_config(protocol, n_spins=n_spins, **overrides)
    stats_out = run_ensemble(config)
    n = config.n_trajectories
    ds, xs, pairs = [], [], []
    for i in range(n):
        d, x, pair = run_trajectory(config, *numpy_streams(config.seed, i))
        ds.append(d)
        xs.append(x)
        pairs.append(pair)
    ds, xs, pairs = np.array(ds), np.array(xs), np.array(pairs)
    np.testing.assert_allclose(stats_out.density, ds.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(stats_out.two_point, xs.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(stats_out.correlation, xs.mean(axis=0) - ds.mean(axis=0) ** 2,
                               atol=1e-12)
    # each grid point's pair state, as the window_pair of a one-point window
    for gi, tg in enumerate(config.sample_grid):
        point = run_ensemble(replace(config, average_window=(tg, tg)))
        np.testing.assert_allclose(point.window_pair, pairs[:, gi].mean(axis=0), atol=1e-12)
        assert point.chunk_window_pair_means.shape == (1, 4, 4)
        np.testing.assert_allclose(point.chunk_window_pair_means[0], point.window_pair,
                                   atol=1e-15)
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
        d, x, _ = run_trajectory(config, *numpy_streams(config.seed, i))
        wd.append(d[widx].mean())
        wx.append(x[widx].mean())
    wd, wx = np.array(wd), np.array(wx)
    n = len(wd)
    md = wd.mean()
    var = (wx.var(ddof=1) + 4 * md**2 * wd.var(ddof=1)
           - 4 * md * np.cov(wd, wx, ddof=1)[0, 1])
    assert out.window_correlation_stderr == pytest.approx(np.sqrt(var / n), abs=1e-12)


@pytest.mark.parametrize("n_spins", [None, 11])
@pytest.mark.parametrize("protocol", list(ProtocolKind))
def test_run_ensembles_gives_each_drive_its_own_ensemble(protocol, n_spins):
    # drives with effective Rabi frequency 0 (no flip ever), Omega = 0,
    # Omega = Delta and above share one schedule per chunk
    drives = [DriveParams(0.0, 0.0), DriveParams(0.0, 1.0), DriveParams(1.0, 1.0), PARAMS]
    base = small_config(protocol, n_spins=n_spins, n_traj=CHUNK + 40)
    configs = [replace(base, params=params, workers=2) for params in drives]
    for shared, config in zip(run_ensembles(configs), configs):
        alone = run_ensemble(config)
        assert shared.config == config
        for name in ("density", "two_point_stderr", "correlation_stderr", "window_pair",
                     "chunk_window_pair_means"):
            assert getattr(shared, name).tobytes() == getattr(alone, name).tobytes(), name
        assert shared.window_density == alone.window_density
        assert shared.window_correlation_stderr == alone.window_correlation_stderr
    # without a drive the density is frozen at all-up
    assert np.all(run_ensembles(configs)[0].density == 1.0)


def test_run_ensembles_takes_configs_that_differ_only_in_params():
    base = small_config(ProtocolKind.CONDITIONAL_FLIP)
    assert run_ensembles([]) == []
    for change in (dict(seed=4), dict(n_trajectories=64), dict(workers=2),
                   dict(dist=WaitingTime.poisson(0.6)), dict(n_spins=11)):
        with pytest.raises(ValueError, match="differ only in params"):
            run_ensembles([base, replace(base, params=DriveParams(0.5), **change)])


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
        assert outs[0].window_pair.tobytes() == other.window_pair.tobytes()
        assert outs[0].window_density == other.window_density
        assert outs[0].window_correlation_stderr == other.window_correlation_stderr
        assert (outs[0].chunk_window_pair_means.tobytes()
                == other.chunk_window_pair_means.tobytes())
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
        assert out.window_pair.tobytes() == ref.window_pair.tobytes()
        assert out.chunk_window_pair_means.tobytes() == ref.chunk_window_pair_means.tobytes()


def test_finite_n_density_is_lattice_valued():
    config = small_config(ProtocolKind.CONDITIONAL_TWO_STATE, n_spins=5, n_traj=1)
    d, x, pair = run_trajectory(config, *numpy_streams(config.seed, 0))
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


def one_wait_first_block(monkeypatch) -> list:
    """Ask for a one-wait first block (one Philox block once rounded up); the
    list returned gets each chunk's reset-table width, which exceeds that
    block only where the rows short of the horizon drew further blocks."""
    widths, draw = [], trajectory_sim._reset_times

    def recording(dist, streams, t_end):
        resets = draw(dist, streams, t_end)
        widths.append(resets.shape[1])
        return resets

    monkeypatch.setattr(trajectory_sim, "_initial_wait_capacity", lambda dist, horizon: 1)
    monkeypatch.setattr(trajectory_sim, "_reset_times", recording)
    return widths


@pytest.mark.parametrize("protocol", list(ProtocolKind))
@pytest.mark.parametrize("n_spins", [None, 11])
def test_output_does_not_depend_on_wait_buffer_size(protocol, n_spins, monkeypatch):
    # reset times are one running sum of the waits however they are
    # drawn, so a one-wait first buffer changes no byte
    config = small_config(protocol, n_spins=n_spins)
    full = run_ensemble(config)
    widths = one_wait_first_block(monkeypatch)
    short = run_ensemble(config)
    assert max(widths) > trajectory_sim._PHILOX_BLOCK  # the top-up path ran
    assert short.density.tobytes() == full.density.tobytes()
    assert short.chunk_window_pair_means.tobytes() == full.chunk_window_pair_means.tobytes()
    for name in ("window_density", "window_density_stderr", "window_two_point",
                 "window_correlation", "window_correlation_stderr"):
        assert getattr(short, name) == getattr(full, name)
    assert short.window_pair.tobytes() == full.window_pair.tobytes()


def test_measurement_stream_is_built_only_where_measured(monkeypatch, tmp_path):
    # streams are keyed once per chunk and kind, for all of its rows; chunks
    # run in forked processes too, so each call appends a line to a file
    log = tmp_path / "streams.log"
    derive = trajectory_sim._trajectory_streams

    def recording(seed, index, kind):
        with open(log, "a") as fh:
            fh.write(f"{kind} {' '.join(str(int(i)) for i in index)}\n")
        return derive(seed, index, kind)

    def recorded():
        lines = [line.split() for line in log.read_text().splitlines()]
        calls = [int(line[0]) for line in lines]
        return [(int(i), kind) for kind, line in zip(calls, lines) for i in line[1:]], calls

    monkeypatch.setattr(trajectory_sim, "_trajectory_streams", recording)
    n = 16
    for protocol in ProtocolKind:
        for n_spins in (None, 11):
            log.write_text("")
            run_ensemble(small_config(protocol, n_spins=n_spins, n_traj=n))
            keys, calls = recorded()
            measured = n_spins is not None and protocol is not ProtocolKind.UNCONDITIONAL_RESET
            expect = [(i, 0) for i in range(n)] + [(i, 1) for i in range(n) if measured]
            assert sorted(keys) == sorted(expect)
            assert calls == ([0, 1] if measured else [0])
    # a sweep draws each chunk's schedule once, whatever its grid length
    n = CHUNK + 5
    for protocol in ProtocolKind:
        for n_spins in (None, 11):
            measured = n_spins is not None and protocol is not ProtocolKind.UNCONDITIONAL_RESET
            kinds = [0, 1] if measured else [0]
            mc = McTemplate(n_trajectories=n, observation_time=4.0, window_points=3,
                            n_spins=n_spins, workers=2)
            for grid in ([1.1], [0.5, 1.0, 1.5, 2.0]):
                log.write_text("")
                sweep_stationary(protocol, POISSON, grid, mc=mc, use_mc=True)
                keys, calls = recorded()
                assert sorted(calls) == sorted(kinds * 2)  # 2 chunks x kinds
                assert sorted(keys) == [(i, k) for i in range(n) for k in kinds]


KEY_SEEDS = [0, 1, 12345, 2**32 - 1, 2**32, 2**40 + 7, 2**64 - 1]
KEY_INDICES = [0, 1, 1023, 1024, 2**32 - 1, 2**32, 2**32 + 5]


@pytest.mark.parametrize("kind", [0, 1])
@pytest.mark.parametrize("seed", KEY_SEEDS)
def test_stream_keys_match_seed_sequence(seed, kind):
    keys = _trajectory_streams(seed, np.array(KEY_INDICES, dtype=np.uint64), kind)
    streams = _RowStreams(keys)
    for row, i in enumerate(KEY_INDICES):
        bit_generator = np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(i, kind)))
        assert keys[row].tolist() == bit_generator.state["state"]["key"].tolist(), (seed, i, kind)
        expect = np.random.Generator(bit_generator).random(200)
        # skip > 0: a row short of the horizon re-keys and resumes at the
        # whole Philox block after what it drew
        for skip in (0, 4, 64, 68):
            got = np.empty(200 - skip)
            streams.fill(row, got, skip=skip)
            assert got.tobytes() == expect[skip:].tobytes(), (seed, i, kind, skip)


@pytest.mark.parametrize("seed", [1.5, -0.5, "3", 2**64])
def test_sim_config_rejects_seed_that_is_not_a_64_bit_unsigned_integer(seed):
    with pytest.raises(ValueError, match="64-bit unsigned integer"):
        small_config(ProtocolKind.UNCONDITIONAL_RESET, seed=seed)


def test_sim_config_stores_the_seed_as_int():
    assert type(small_config(ProtocolKind.UNCONDITIONAL_RESET, seed=np.uint64(7)).seed) is int


# The batched record against the einsum oracle of reference_sim, drive by
# drive, as float bits.  The drives include obar = 0 (omega = delta = 0),
# omega = 0 and delta = 0 in one batch.
ORACLE_DRIVES = [DriveParams(omega=1.3, delta=1.0), DriveParams(omega=0.0, delta=0.0),
                 DriveParams(omega=0.0, delta=1.0), DriveParams(omega=0.7, delta=0.0)]


def assert_record_matches_oracle(state, gi, times):
    """Each drive's sums from state.record at every time, into grid point gi
    and window slot gi, equal record_thermo / record_finite's bit for bit."""
    n_spins = state.config.n_spins
    points = len(state.t_last)
    acc = trajectory_sim._new_accumulators(len(state.params), points, points)
    refs = [new_accumulators(points) for _ in state.params]
    origin = state.grid_origin[gi]
    for tg in times:
        d, x = state.record(tg, acc, gi, gi)
        s = tg - state.t_last[gi]
        for k, (params, ref) in enumerate(zip(state.params, refs)):
            if n_spins is None:
                rd, rx = record_thermo(params, s, origin[k], ref, gi)
            else:
                rd, rx = record_finite(params, s, origin[k].astype(float), n_spins, ref, gi)
            assert d[k].tobytes() == rd.tobytes() and x[k].tobytes() == rx.tobytes()
    moments = acc["moments"]
    for k, ref in enumerate(refs):
        for m, key in enumerate(("sd", "sd2", "sx", "sx2", "sdx")):
            assert moments[k, :points, m].tobytes() == ref[key].tobytes(), (key, state.params[k])
        assert acc["pair"][k].tobytes() == ref["pair"].tobytes(), state.params[k]
    assert not moments[:, points].any()  # the window column is _chunk_sums' alone


def oracle_state(n_spins, rows, drives=ORACLE_DRIVES, protocol=ProtocolKind.CONDITIONAL_FLIP,
                 grid=(0.0, 8.0)):
    """A chunk state of `rows` trajectories, its schedule on the grid scanned."""
    # record reads only n_spins from the config, and SimConfig admits odd N only
    odd = None if n_spins is None else n_spins | 1
    configs = [SimConfig(protocol=protocol, params=params, dist=POISSON, observation_time=8.0,
                         sample_grid=grid, n_trajectories=rows, seed=5, n_spins=odd)
               for params in drives]
    state = _ChunkState(configs, 0, rows)
    state.advance_to()
    if odd != n_spins:
        state.config = types.SimpleNamespace(n_spins=n_spins)
        state.grid_origin[...] = n_spins
    return state


@pytest.mark.parametrize("rows", [1, 5, 1024])
@pytest.mark.parametrize("n_spins", [None, 11, 201])
@pytest.mark.parametrize("protocol", list(ProtocolKind))
def test_batched_record_matches_einsum_oracle_on_drawn_schedules(protocol, n_spins, rows):
    grid = (0.0, 3.0, 8.0)
    state = oracle_state(n_spins, rows, protocol=protocol, grid=grid)
    for gi, tg in enumerate(grid):
        assert_record_matches_oracle(state, gi, [tg, tg])


@pytest.mark.parametrize("rows", [1, 5, 1024])
@pytest.mark.parametrize("n_spins", [None, 1, 2, 11, 201])
def test_batched_record_matches_einsum_oracle_at_the_edges(n_spins, rows):
    # ages s = 0, origins n0 in {0, 1/2, 1} and counts 0 and N, cycled over the rows
    rng = np.random.default_rng(rows)
    state = oracle_state(n_spins, rows)
    ages = rng.exponential(2.0, rows)
    ages[::3] = 0.0
    state.t_last[1] = 8.0 - ages
    cycle = np.arange(len(ORACLE_DRIVES))[:, None] + np.arange(rows)
    if n_spins is None:
        state.grid_origin[1] = np.array([0.0, 0.5, 1.0, 0.75])[cycle % 4]
    else:
        state.grid_origin[1] = np.array([0, n_spins, n_spins // 2, 1 % n_spins])[cycle % 4]
    assert_record_matches_oracle(state, 1, [8.0, 8.0])


log_uniform = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)


@settings(max_examples=60, deadline=None)
@given(drives=st.lists(st.builds(DriveParams, omega=log_uniform, delta=log_uniform),
                       min_size=1, max_size=4),
       n_spins=st.one_of(st.none(), st.integers(1, 300)),
       data=st.data())
def test_batched_record_matches_einsum_oracle_property(drives, n_spins, data):
    rows = data.draw(st.integers(1, 40))
    state = oracle_state(n_spins, rows, drives=drives)
    ages = data.draw(st.lists(st.floats(0.0, 8.0), min_size=rows, max_size=rows))
    state.t_last[1] = 8.0 - np.array(ages)
    shape = (len(drives), rows)
    if n_spins is None:
        origins = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
        state.grid_origin[1] = np.array(data.draw(st.lists(
            origins, min_size=shape[0] * rows, max_size=shape[0] * rows))).reshape(shape)
    else:
        counts = st.integers(0, n_spins)
        state.grid_origin[1] = np.array(data.draw(st.lists(
            counts, min_size=shape[0] * rows, max_size=shape[0] * rows))).reshape(shape)
    assert_record_matches_oracle(state, 1, [8.0])


# The reset scan against the grid walk of reference_sim: every grid point's
# origins and last reset times, as bits.
CHOPPED = WaitingTime.chopped(1.0, 0.7)


def assert_same_bits(got, expect):
    assert got.dtype == expect.dtype and got.shape == expect.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(expect).tobytes()


def assert_scan_matches_walk(protocol, n_spins, rows, dist, grid, drives=ORACLE_DRIVES,
                             seed=5):
    """The chunk state after its scan and the grid walk, once they agree as bits."""
    configs = [SimConfig(protocol=protocol, params=params, dist=dist, observation_time=grid[-1],
                         sample_grid=grid, n_trajectories=rows, seed=seed, n_spins=n_spins)
               for params in drives]
    state = _ChunkState(configs, 0, rows)
    walk = GridWalk(state)  # copies the schedule the scan consumes
    state.advance_to()
    origins, t_last = walk.states(state.config.sample_grid)
    assert_same_bits(state.grid_origin, origins)
    assert_same_bits(state.t_last, t_last)
    assert state.resets is None and state.meas is None
    return state, walk


def row0_reset(dist, rows, k):
    """Row 0's reset k in a chunk of `rows` trajectories (seed 5)."""
    configs = [SimConfig(protocol=ProtocolKind.UNCONDITIONAL_RESET, params=PARAMS, dist=dist,
                         observation_time=8.0, sample_grid=(8.0,), n_trajectories=rows, seed=5)]
    return float(_ChunkState(configs, 0, rows).resets[0, k])


# One batch with obar = 0, Delta = 0 (p reaches 1) and Omega / Delta = 3, over
# a few hundred resets per row, so that protocol 3 runs many waves.
LONG_DRIVES = [DriveParams(omega=0.0, delta=0.0), DriveParams(omega=1.0, delta=0.0),
               DriveParams(omega=3.0, delta=1.0)]
LONG_GRID = (0.0, 37.0, 37.0, 80.0, 100.0)


@pytest.mark.parametrize("rows", [1, 5, 1024])
@pytest.mark.parametrize("dist", [WaitingTime.poisson(2.0), CHOPPED], ids=["poisson", "chopped"])
@pytest.mark.parametrize("n_spins", [None, 1, 3, 11, 201, 1001])
@pytest.mark.parametrize("protocol", list(ProtocolKind))
def test_reset_scan_matches_grid_walk(protocol, n_spins, dist, rows):
    # a grid from 0, with a repeated time and a time equal to a drawn reset
    reset = row0_reset(dist, rows, 2)
    assert reset < 3.0
    grid = tuple(sorted((0.0, 0.5, reset, 3.0, 3.0, 8.0)))
    state, _ = assert_scan_matches_walk(protocol, n_spins, rows, dist, grid)
    # a reset at a grid time is applied there
    assert state.t_last[grid.index(reset), 0] == reset
    _, walk = assert_scan_matches_walk(protocol, n_spins, rows, dist, LONG_GRID, LONG_DRIVES)
    assert walk.cursor.min() >= 100
    # row 0 has no reset by the last grid time
    _, walk = assert_scan_matches_walk(protocol, n_spins, rows, dist,
                                       (0.0, row0_reset(dist, rows, 0) / 2), LONG_DRIVES)
    assert walk.cursor[0] == 0


@settings(max_examples=40, deadline=None)
@given(drives=st.lists(st.builds(DriveParams, omega=log_uniform, delta=log_uniform),
                       min_size=1, max_size=3),
       protocol=st.sampled_from(list(ProtocolKind)),
       n_spins=st.one_of(st.none(), st.integers(0, 150).map(lambda h: 2 * h + 1),
                         st.just(1001)),
       chopped=st.booleans(),
       horizon=st.sampled_from([6.0, 150.0]),
       data=st.data())
def test_reset_scan_matches_grid_walk_property(drives, protocol, n_spins, chopped, horizon,
                                               data):
    rows = data.draw(st.integers(1, 40))
    times = data.draw(st.lists(st.floats(0.0, horizon), min_size=1, max_size=6))
    grid = tuple(sorted(times + data.draw(st.lists(st.sampled_from(times), max_size=2))))
    dist = WaitingTime.chopped(1.5, 0.9) if chopped else WaitingTime.poisson(1.5)
    assert_scan_matches_walk(protocol, n_spins, rows, dist, grid + (horizon,), drives=drives,
                             seed=data.draw(st.integers(0, 2**64 - 1)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("one_wait", [False, True], ids=["drawn", "one-wait"])
@pytest.mark.parametrize("dist", [POISSON, CHOPPED], ids=["poisson", "chopped"])
@pytest.mark.parametrize("n_spins", [None, 1, 201])
@pytest.mark.parametrize("protocol", list(ProtocolKind))
def test_ensemble_raises_no_float_warning(protocol, n_spins, dist, one_wait, monkeypatch):
    # a one-wait first block extends every row's waits WAIT_BLOCK at a time,
    # and the rows done by then are padded with +inf
    widths = one_wait_first_block(monkeypatch) if one_wait else None
    config = replace(small_config(protocol, n_spins=n_spins, n_traj=64), dist=dist)
    assert np.all(np.isfinite(run_ensemble(config).density))
    if one_wait:
        assert max(widths) > trajectory_sim._PHILOX_BLOCK  # the top-up path ran


def test_first_wait_block_is_capped_before_any_chunk_runs(monkeypatch):
    # chopped waits of t_max = 2e-8 make about 1e9 resets by t = 10: 400 rows
    # of them would be a 2.9 TiB first block
    def no_chunks(*args):
        raise AssertionError("a chunk ran")

    monkeypatch.setattr(trajectory_sim, "_chunk_sums", no_chunks)
    config = SimConfig(protocol=ProtocolKind.UNCONDITIONAL_RESET, params=PARAMS,
                       dist=WaitingTime.chopped(0.5, 2e-8), observation_time=10.0,
                       sample_grid=(0.0, 10.0), n_trajectories=400, seed=0)
    with pytest.raises(ValueError, match=r"about 1e\+09 resets per trajectory by t = 10"):
        run_ensemble(config)
    # the cap is on rows x first block: a first block of 24 waits at t = 8
    assert trajectory_sim._initial_wait_capacity(POISSON, 8.0) == 24
    rows = trajectory_sim.MAX_FIRST_WAIT_BLOCK // 24
    trajectory_sim._check_first_wait_block(POISSON, 8.0, rows)
    with pytest.raises(ValueError, match="about 4 resets per trajectory by t = 8"):
        trajectory_sim._check_first_wait_block(POISSON, 8.0, rows + 1)


# The chunk pool: the calling process and workers - 1 forked children.  No
# test here starts more than one child.


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_cpus(monkeypatch):
    # two processes even where this one may run on a single CPU
    monkeypatch.setattr(trajectory_sim, "_usable_cpus", lambda: 2)


def test_usable_cpus_is_the_affinity_mask():
    assert trajectory_sim._usable_cpus() == len(os.sched_getaffinity(0))


@pytest.mark.parametrize("failing", [(3, 4), (2, 5), (1,), (4,), (0, 1)])
def test_pool_raises_the_first_failing_item_in_input_order(failing, two_cpus):
    # item i runs in process i % 2: this one runs 0, 2 and 4, the child 1, 3 and 5
    def square(x):
        if x in failing:
            raise ValueError(f"item {x}")
        return x * x

    with pytest.raises(ValueError, match=f"^item {min(failing)}$"):
        trajectory_sim.ordered_map(square, range(6), 2)
    assert_no_child_left()
    assert trajectory_sim.ordered_map(lambda x: x * x, range(6), 2) == [x * x for x in range(6)]
    assert_no_child_left()


def test_pool_forks_no_more_than_the_usable_cpus(monkeypatch, two_cpus):
    forks, fork = [], os.fork

    def counting_fork():
        forks.append(None)  # before the fork: only this process counts
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    assert trajectory_sim.ordered_map(lambda x: x + 1, range(8), 100000) == list(range(1, 9))
    assert len(forks) == 1
    assert_no_child_left()


def test_pool_runs_here_without_fork(monkeypatch, two_cpus):
    monkeypatch.delattr(os, "fork")
    assert trajectory_sim.ordered_map(lambda x: os.getpid(), range(4), 2) == [os.getpid()] * 4


def test_chunks_run_in_two_processes(tmp_path, monkeypatch, two_cpus):
    log = tmp_path / "pids.log"
    chunk_sums = trajectory_sim._chunk_sums

    def logging_chunk_sums(configs, start, rows):
        with open(log, "a") as fh:
            fh.write(f"{start} {os.getpid()}\n")
        return chunk_sums(configs, start, rows)

    monkeypatch.setattr(trajectory_sim, "_chunk_sums", logging_chunk_sums)
    config = replace(small_config(ProtocolKind.CONDITIONAL_FLIP, n_traj=2 * CHUNK + 5), workers=2)
    pooled = run_ensemble(config)
    ran = {int(start): int(pid) for start, pid in map(str.split, log.read_text().splitlines())}
    assert sorted(ran) == [0, CHUNK, 2 * CHUNK]
    assert ran[0] == ran[2 * CHUNK] == os.getpid() != ran[CHUNK]
    assert_no_child_left()
    serial = run_ensemble(replace(config, workers=1))
    for name in ("density", "correlation_stderr", "window_pair", "chunk_window_pair_means"):
        assert getattr(pooled, name).tobytes() == getattr(serial, name).tobytes()
    assert pooled.window_density == serial.window_density


@pytest.mark.parametrize("n_spins", [None, 11], ids=["limit", "finite-n"])
def test_pair_state_is_built_only_at_window_points(n_spins, monkeypatch):
    # record sums d and x at every grid point, but builds a pair state (one
    # _symbol_products call) only at a window point: once per chunk and window point
    calls, symbol_products = [], trajectory_sim._symbol_products

    def counting(*args):
        calls.append(None)
        return symbol_products(*args)

    monkeypatch.setattr(trajectory_sim, "_symbol_products", counting)
    windowed = small_config(ProtocolKind.CONDITIONAL_FLIP, n_spins=n_spins, n_traj=2 * CHUNK + 5)
    windowless = replace(windowed, average_window=None)
    assert windowed.workers == 1 and len(windowed.window_indices()) == 5
    outs = []
    for config, builds in ((windowed, 3 * 5), (windowless, 0)):
        calls.clear()
        outs.append(run_ensemble(config))
        assert len(calls) == builds
    # the grid's own sums do not depend on the window
    for name in ("density", "two_point_stderr", "correlation_stderr"):
        assert getattr(outs[0], name).tobytes() == getattr(outs[1], name).tobytes()


@pytest.mark.parametrize("n_spins", [None, 11], ids=["limit", "finite-n"])
def test_coherence_is_computed_only_at_window_points(n_spins, monkeypatch):
    # record needs the Rabi phase's sin*cos only for a pair state: a windowless
    # run computes no cosine, a windowed one one per chunk and window point
    calls, coherence = [], trajectory_sim._coherence

    def counting(*args):
        calls.append(None)
        return coherence(*args)

    monkeypatch.setattr(trajectory_sim, "_coherence", counting)
    windowed = small_config(ProtocolKind.CONDITIONAL_FLIP, n_spins=n_spins, n_traj=2 * CHUNK + 5)
    outs = []
    for config, builds in ((windowed, 3 * 5), (replace(windowed, average_window=None), 0)):
        calls.clear()
        outs.append(run_ensemble(config))
        assert len(calls) == builds
    assert outs[0].density.tobytes() == outs[1].density.tobytes()


def test_a_chunk_process_that_dies_raises_its_exit_status(monkeypatch, two_cpus):
    parent, chunk_sums = os.getpid(), trajectory_sim._chunk_sums

    def dying_chunk_sums(configs, start, rows):
        if os.getpid() != parent:
            os._exit(1)
        return chunk_sums(configs, start, rows)

    def hung(signum, frame):
        raise TimeoutError("the pool waits on a dead child")

    monkeypatch.setattr(trajectory_sim, "_chunk_sums", dying_chunk_sums)
    config = replace(small_config(ProtocolKind.UNCONDITIONAL_RESET, n_traj=CHUNK + 5), workers=2)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(ChildProcessError, match="exited with status 1$"):
            run_ensemble(config)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert_no_child_left()
