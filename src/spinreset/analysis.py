"""Phase-diagram sweeps, jump estimates, and power-law exponent fits.

A sweep walks a grid of omega/delta values and produces one row of
stationary observables per point.  Rows use the exact renewal states
wherever the protocol has one and measures no finite sample (the
unconditional protocol everywhere, the conditional two-state protocol in
the thermodynamic limit) and Monte Carlo ensembles elsewhere (the flip
protocol, finite N).  Every row records which path produced it.  The
exact rows of a sweep are computed together, as stacked arrays in one
pass over the grid; a single exact row is the one-row case of the same
code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .observables import connected_correlations, lqu_stack
from .renewal import ProtocolKind, WaitingTime, stationary_states
from .spin_dynamics import DriveParams
from .trajectory_sim import STAT_FIELDS, EnsembleStats, SimConfig, run_ensembles

REGIME_CLOSED = "closed-form"
REGIME_MIXTURE = "mixture"
REGIME_MC = "monte-carlo"
REGIME_FAILED = "failed"

# The table layouts of the CLI's CSV and JSON outputs, in column order.
# Sweep columns are SweepResult fields; series columns are "time" and STAT_FIELDS.
SWEEP_COLUMNS = ("omega_over_delta", "density", "density_stderr", "correlation",
                 "correlation_stderr", "lqu", "lqu_stderr", "regime")
SERIES_COLUMNS = ("time",) + STAT_FIELDS

# the two-spin states built here are exchange symmetric, so acting on
# the first spin in the discord measure is a convention, not a choice
_SWAP = np.array([
    [1, 0, 0, 0],
    [0, 0, 1, 0],
    [0, 1, 0, 0],
    [0, 0, 0, 1],
], dtype=float)
EXCHANGE_TOL = 1e-8


def require_exchange_symmetric(pair_state: np.ndarray, tol: float = EXCHANGE_TOL):
    """Reject two-spin states where the local-observable slot would matter.

    Takes one state or a stack of them; the first failing one names the error.
    """
    pair_state = np.asarray(pair_state)
    gap = np.max(np.abs(_SWAP @ pair_state @ _SWAP - pair_state), axis=(-2, -1))
    bad = np.flatnonzero(gap > tol)
    if bad.size:
        raise ValueError("two-spin state is not exchange symmetric "
                         f"(max deviation {np.ravel(gap)[bad[0]]:.3g})")


@dataclass(frozen=True)
class McTemplate:
    """Monte Carlo settings shared by the stochastic rows of a sweep.

    Quasi-stationary values are per-trajectory time averages over
    window_points grid times in average_window (default: the trailing
    third of the run).  Every row reuses the same seed, so adjacent rows
    see common random numbers and the sweep curve is smoother than
    independent sampling would give.
    """

    n_trajectories: int = 40000
    observation_time: float = 30.0
    seed: int = 0
    workers: int = 1
    average_window: tuple | None = None
    window_points: int = 11
    n_spins: int | None = None

    def __post_init__(self):
        if self.window_points < 1:
            raise ValueError(f"window_points must be >= 1, got {self.window_points}")
        # a template is valid when the ensembles it configures are
        self.config(ProtocolKind.UNCONDITIONAL_RESET, DriveParams(1.0), WaitingTime.poisson(1.0))

    def config(self, protocol: ProtocolKind, params: DriveParams,
               dist: WaitingTime) -> SimConfig:
        window = self.average_window
        if window is None:
            window = (2.0 * self.observation_time / 3.0, self.observation_time)
        grid = tuple(np.linspace(window[0], window[1], self.window_points))
        return SimConfig(
            protocol=protocol,
            params=params,
            dist=dist,
            observation_time=self.observation_time,
            sample_grid=grid,
            n_trajectories=self.n_trajectories,
            seed=self.seed,
            n_spins=self.n_spins,
            workers=self.workers,
            average_window=window,
        )


def _require_increasing(grid: np.ndarray):
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("omega_over_delta grid must be strictly increasing")


@dataclass
class SweepResult:
    """One stationary-observable row per omega/delta grid point."""

    protocol: ProtocolKind
    dist: WaitingTime
    delta: float
    omega_over_delta: np.ndarray
    density: np.ndarray
    density_stderr: np.ndarray
    correlation: np.ndarray
    correlation_stderr: np.ndarray
    lqu: np.ndarray
    lqu_stderr: np.ndarray
    regime: list
    n_spins: int | None = None
    row_errors: dict = field(default_factory=dict)

    def __post_init__(self):
        self.omega_over_delta = np.asarray(self.omega_over_delta, dtype=float)
        _require_increasing(self.omega_over_delta)
        n = len(self.omega_over_delta)
        for name in SWEEP_COLUMNS[1:-1]:
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise ValueError(f"{name} must have one entry per grid point")
            setattr(self, name, arr)
        self.regime = list(self.regime)
        if len(self.regime) != n or not all(self.regime):
            raise ValueError("every row needs a provenance label")

    @classmethod
    def from_rows(cls, protocol: ProtocolKind, dist: WaitingTime, delta: float,
                  omega_over_delta, rows, n_spins: int | None = None,
                  row_errors: dict | None = None) -> "SweepResult":
        """Assemble a sweep from rows holding SWEEP_COLUMNS after the grid column."""
        columns = dict(zip(SWEEP_COLUMNS, [omega_over_delta, *zip(*rows)]))
        return cls(protocol=protocol, dist=dist, delta=delta, n_spins=n_spins,
                   row_errors=row_errors or {}, **columns)

    def column(self, observable: str):
        """(values, stderrs) for one of density / correlation / lqu."""
        if observable not in ("density", "correlation", "lqu"):
            raise ValueError(f"unknown observable {observable!r}")
        return getattr(self, observable), getattr(self, observable + "_stderr")


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares exponent of observable ~ amplitude * (x - x_c)^exponent."""

    exponent: float
    amplitude: float
    fit_window: tuple
    residual: float
    critical_point: float

    def __post_init__(self):
        object.__setattr__(self, "fit_window",
                           (float(self.fit_window[0]), float(self.fit_window[1])))
        if not self.fit_window[0] > self.critical_point:
            raise ValueError(
                f"fit window {self.fit_window} must lie strictly above "
                f"the critical point {self.critical_point}")
        if not math.isfinite(self.residual):
            raise ValueError(f"residual must be finite, got {self.residual}")


@dataclass(frozen=True)
class JumpEstimate:
    """Left-limit minus right-limit of an observable at the critical point."""

    value: float
    stderr: float
    left: float
    left_stderr: float
    right: float
    right_stderr: float


def ensemble_lqu(stats: EnsembleStats):
    """Discord measure of an ensemble's windowed mean state, with error.

    The measure is a nonlinear spectral function of the mean state, so
    there is no per-trajectory estimator; the standard error comes from
    batch means over the simulation chunks (size-weighted, since the
    trailing chunk can be smaller).
    """
    if stats.window_pair is None:
        raise ValueError("ensemble was run without an average_window")
    require_exchange_symmetric(stats.window_pair)
    values = lqu_stack(np.concatenate([stats.window_pair[None], stats.chunk_window_pair_means]))[0]
    value, chunk_vals = float(values[0]), values[1:]
    m = len(chunk_vals)
    if m < 2:
        return value, float("nan")
    w = stats.chunk_counts.astype(float)
    vbar = (w * chunk_vals).sum() / w.sum()
    # chunk i estimates the value with variance s2/w_i, so w-weighted
    # squared deviations pool into one variance scale
    s2 = (w * (chunk_vals - vbar) ** 2).sum() / (m - 1)
    return value, math.sqrt(s2 / w.sum())


def closed_form_rows(protocol: ProtocolKind, params_list, dist: WaitingTime,
                     n_spins: int | None = None):
    """Exact sweep rows for a grid of drives and the stationary states they come from.

    One batched pass: the states, their checks, the correlation and the
    discord are computed as stacked arrays.  A row whose state puts
    weight on the all-down branch is labelled a mixture; the others are
    the unconditional closed form.  A protocol with no exact state
    raises ValueError.
    """
    states = stationary_states(protocol, params_list, dist, n_spins)
    regimes = [REGIME_CLOSED if st.weights.c_down == 0.0 else REGIME_MIXTURE for st in states]
    pairs = np.array([st.pair_state for st in states])
    require_exchange_symmetric(pairs)
    corr = connected_correlations(pairs)
    discord = lqu_stack(pairs)[0]
    rows = [(st.density, 0.0, float(c), 0.0, float(d), 0.0, regime)
            for st, c, d, regime in zip(states, corr, discord, regimes)]
    return rows, states


def closed_form_row(protocol: ProtocolKind, params: DriveParams, dist: WaitingTime,
                    n_spins: int | None = None):
    """One exact sweep row and the stationary state it comes from."""
    rows, states = closed_form_rows(protocol, [params], dist, n_spins)
    return rows[0], states[0]


def _mc_row(stats: EnsembleStats):
    discord, discord_err = ensemble_lqu(stats)
    return (stats.window_density, stats.window_density_stderr,
            stats.window_correlation, stats.window_correlation_stderr,
            discord, discord_err, REGIME_MC)


def sweep_stationary(protocol: ProtocolKind, dist: WaitingTime, omega_over_delta_grid,
                     mc: McTemplate | None = None, delta: float = 1.0,
                     use_mc: bool = False) -> SweepResult:
    """Stationary density, correlation and discord across a drive grid.

    Exact rows where the protocol has an exact state and does not
    measure at the template's n_spins; Monte Carlo rows elsewhere, or
    everywhere when use_mc is set.  The exact rows are one
    closed_form_rows call; a row failing its checks fails the sweep with
    the error that row raises on its own.  Each Monte Carlo row builds its
    own SimConfig; the rows it accepts share the template's seed, so they
    run as one run_ensembles call, in which every row replays each chunk's
    one schedule.  Settings no row can run with raise ValueError before
    any row runs.  A row that raises is recorded as failed (NaN values,
    error kept in row_errors) without aborting the others; if the
    ensemble run raises, each of its rows fails with its message, and the
    sweep still returns.
    """
    grid = np.asarray(list(omega_over_delta_grid), dtype=float)
    if grid.size == 0:
        raise ValueError("omega_over_delta grid must not be empty")
    _require_increasing(grid)
    if delta <= 0.0:
        raise ValueError("sweeps need delta > 0 (the grid is in units of delta)")
    top = float(np.max(np.abs(grid)))
    if not math.isfinite(top * delta):
        raise ValueError(f"omega/delta = {top:g} times delta = {delta:g} is not finite")
    mc = mc or McTemplate()
    needs_mc = use_mc or not protocol.has_exact_state or protocol.measures(mc.n_spins)

    def params(x):
        return DriveParams(omega=x * delta, delta=delta)

    if not needs_mc:
        try:
            rows, _ = closed_form_rows(protocol, [params(x) for x in grid], dist)
        except ValueError:
            # the batch runs each check over the whole stack; row by row,
            # the first failing row raises its own error
            for x in grid:
                closed_form_row(protocol, params(x), dist)
            raise
        return SweepResult.from_rows(protocol, dist, delta, grid, rows)

    def outcome(fn, *args):
        # a failure is returned as its message and recorded below in grid order
        try:
            return fn(*args)
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"

    rows = [outcome(mc.config, protocol, params(x), dist) for x in grid]
    accepted = [i for i, r in enumerate(rows) if not isinstance(r, str)]
    ensembles = outcome(run_ensembles, [rows[i] for i in accepted])
    for k, i in enumerate(accepted):  # if the run raises, each of its rows fails with it
        rows[i] = ensembles if isinstance(ensembles, str) else outcome(_mc_row, ensembles[k])
    errors = {i: r for i, r in enumerate(rows) if isinstance(r, str)}
    nan_row = (math.nan,) * 6 + (REGIME_FAILED,)
    rows = [nan_row if isinstance(r, str) else r for r in rows]
    return SweepResult.from_rows(protocol, dist, delta, grid, rows,
                                 n_spins=mc.n_spins, row_errors=errors)


def _one_sided_limit(xs, ys, es, xc):
    """Extrapolate (x, y) rows to xc from one side; xs ordered nearest first."""
    if len(xs) == 1:
        return float(ys[0]), float(es[0])
    (x1, x2), (y1, y2), (e1, e2) = xs[:2], ys[:2], es[:2]
    a = (xc - x1) / (x2 - x1)
    return float((1.0 - a) * y1 + a * y2), float(math.hypot((1.0 - a) * e1, a * e2))


def estimate_discontinuity(sweep: SweepResult, critical_point: float = 1.0,
                           observable: str = "density") -> JumpEstimate:
    """Jump of an observable at the critical point: left limit minus right.

    Each side is a linear extrapolation of its two nearest rows to the
    critical point; a row exactly at the critical point is ignored (its
    branch assignment is a convention).  A side whose nearest row is
    exact skips the extrapolation and evaluates its branch at the
    critical point itself, which carries zero error; mixture rows do not
    qualify because evaluating at the critical point would cross onto
    the other branch.  A row that did not fail but holds a non-finite
    value or standard error where a side reads it is an error naming it.
    """
    xs = sweep.omega_over_delta
    values, stderrs = sweep.column(observable)
    ok = np.array([r != REGIME_FAILED for r in sweep.regime], dtype=bool)
    left = np.nonzero((xs < critical_point) & ok)[0][::-1]  # nearest first
    right = np.nonzero((xs > critical_point) & ok)[0]
    if left.size == 0 or right.size == 0:
        raise ValueError(
            f"need rows on both sides of {critical_point}: "
            f"{left.size} below, {right.size} above")

    def limit(side):
        if sweep.regime[side[0]] == REGIME_CLOSED:
            params = DriveParams(omega=critical_point * sweep.delta, delta=sweep.delta)
            row, _ = closed_form_row(sweep.protocol, params, sweep.dist)
            return float(row[SWEEP_COLUMNS.index(observable) - 1]), 0.0
        for i in side[:2]:  # the rows _one_sided_limit reads
            if not (math.isfinite(values[i]) and math.isfinite(stderrs[i])):
                raise ValueError(f"observable {observable} at omega/delta={xs[i]} is "
                                 f"{values[i]} +- {stderrs[i]}, not a finite value")
        return _one_sided_limit(xs[side], values[side], stderrs[side], critical_point)

    lv, le = limit(left)
    rv, re = limit(right)
    return JumpEstimate(value=lv - rv, stderr=math.hypot(le, re),
                        left=lv, left_stderr=le, right=rv, right_stderr=re)


# raw-value baselines: the density jump rides on top of the 1/2 plateau,
# correlation and discord are fitted as-is unless the caller overrides
DEFAULT_BASELINES = {"density": 0.5, "correlation": 0.0, "lqu": 0.0}
DEFAULT_WINDOW = (0.02, 0.25)  # offsets from the critical point, units of delta
MIN_FIT_POINTS = 5


def fit_power_law(sweep: SweepResult, observable: str, critical_point: float = 1.0,
                  window: tuple | None = None, baseline: float | None = None) -> PowerLawFit:
    """Ordinary least squares for log|y - baseline| vs log(x - x_c).

    The window (inclusive) must lie strictly above the critical point
    and contain at least five rows that did not fail; failed rows are
    skipped, and a non-finite value in any other row is an error naming
    it.  Offsets must not straddle zero: an all-negative window is fitted
    in magnitude and reported with a negative amplitude; a mixed-sign or
    zero offset is an error naming the offending row.
    """
    if window is None:
        window = (critical_point + DEFAULT_WINDOW[0], critical_point + DEFAULT_WINDOW[1])
    if baseline is None:
        baseline = DEFAULT_BASELINES[observable]
    if not math.isfinite(baseline):
        raise ValueError(f"baseline must be finite, got {baseline}")
    lo, hi = (float(w) for w in window)
    if lo > hi:
        raise ValueError(f"fit window ({lo}, {hi}) has lo > hi")
    if not critical_point < lo:
        raise ValueError(f"fit window ({lo}, {hi}) must lie strictly above {critical_point}")
    xs = sweep.omega_over_delta
    values, _ = sweep.column(observable)
    ok = np.array([r != REGIME_FAILED for r in sweep.regime], dtype=bool)
    mask = (xs >= lo) & (xs <= hi) & ok
    if mask.sum() < MIN_FIT_POINTS:
        raise ValueError(f"need at least {MIN_FIT_POINTS} rows that did not fail "
                         f"in ({lo}, {hi}), found {int(mask.sum())}")
    x = xs[mask]
    y = values[mask] - baseline
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise ValueError(f"observable {observable} at omega/delta={x[bad[0]]} is "
                         f"{values[mask][bad[0]]}, not a finite value")
    if np.all(y > 0.0):
        sign = 1.0
    elif np.all(y < 0.0):
        sign = -1.0
        y = -y
    else:
        bad = int(np.nonzero(y <= 0.0)[0][0])
        raise ValueError(
            f"offsets change sign in the fit window: observable {observable} at "
            f"omega/delta={x[bad]} gives {values[mask][bad]} - {baseline} = {y[bad]}")
    logx = np.log(x - critical_point)
    logy = np.log(y)
    slope, intercept = np.polyfit(logx, logy, 1)
    resid = logy - (slope * logx + intercept)
    return PowerLawFit(
        exponent=float(slope),
        amplitude=float(sign * math.exp(intercept)),
        fit_window=(lo, hi),
        residual=float(np.sqrt(np.mean(resid**2))),
        critical_point=float(critical_point),
    )
