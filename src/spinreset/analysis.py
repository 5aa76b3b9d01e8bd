"""Phase-diagram sweeps, jump estimates, and power-law exponent fits.

A sweep walks a grid of omega/delta values and produces one row of
stationary observables per point.  Rows use the exact renewal results
wherever they exist (the unconditional protocol everywhere, the
conditional two-state protocol in the thermodynamic limit) and Monte
Carlo ensembles elsewhere (the flip protocol, finite N).  Every row
records which path produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .observables import connected_correlation, lqu
from .renewal import WaitingTime, stationary_state_p1, stationary_state_p2
from .spin_dynamics import DriveParams
from .trajectory_sim import EnsembleStats, ProtocolKind, SimConfig, ordered_map, run_ensemble

REGIME_CLOSED = "closed-form"
REGIME_MIXTURE = "mixture"
REGIME_MC = "monte-carlo"
REGIME_FAILED = "failed"

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
    """Reject two-spin states where the local-observable slot would matter."""
    pair_state = np.asarray(pair_state)
    gap = np.max(np.abs(_SWAP @ pair_state @ _SWAP - pair_state))
    if gap > tol:
        raise ValueError(f"two-spin state is not exchange symmetric (max deviation {gap:.3g})")


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
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    def config(self, protocol: ProtocolKind, params: DriveParams,
               dist: WaitingTime, workers: int | None = None) -> SimConfig:
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
            workers=self.workers if workers is None else workers,
            average_window=window,
        )


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
    fits: dict = field(default_factory=dict)
    row_errors: dict = field(default_factory=dict)

    def __post_init__(self):
        self.omega_over_delta = np.asarray(self.omega_over_delta, dtype=float)
        if np.any(np.diff(self.omega_over_delta) <= 0.0):
            raise ValueError("omega_over_delta grid must be strictly increasing")
        n = len(self.omega_over_delta)
        for name in ("density", "density_stderr", "correlation",
                     "correlation_stderr", "lqu", "lqu_stderr"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise ValueError(f"{name} must have one entry per grid point")
            setattr(self, name, arr)
        if len(self.regime) != n or not all(self.regime):
            raise ValueError("every row needs a provenance label")

    @classmethod
    def from_rows(cls, protocol: ProtocolKind, dist: WaitingTime, delta: float,
                  omega_over_delta, rows, n_spins: int | None = None,
                  row_errors: dict | None = None) -> "SweepResult":
        """Assemble a sweep from (density, err, correlation, err, lqu, err, regime) rows."""
        cols = list(zip(*rows))
        return cls(
            protocol=protocol,
            dist=dist,
            delta=delta,
            omega_over_delta=omega_over_delta,
            density=np.array(cols[0]),
            density_stderr=np.array(cols[1]),
            correlation=np.array(cols[2]),
            correlation_stderr=np.array(cols[3]),
            lqu=np.array(cols[4]),
            lqu_stderr=np.array(cols[5]),
            regime=list(cols[6]),
            n_spins=n_spins,
            row_errors=row_errors or {},
        )

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
    value = lqu(stats.window_pair).value
    chunk_vals = np.array([lqu(c).value for c in stats.chunk_window_pair_means])
    m = len(chunk_vals)
    if m < 2:
        return value, float("nan")
    w = stats.chunk_counts.astype(float)
    vbar = (w * chunk_vals).sum() / w.sum()
    # chunk i estimates the value with variance s2/w_i, so w-weighted
    # squared deviations pool into one variance scale
    s2 = (w * (chunk_vals - vbar) ** 2).sum() / (m - 1)
    return value, math.sqrt(s2 / w.sum())


def closed_form_row(protocol: ProtocolKind, params: DriveParams, dist: WaitingTime,
                    n_spins: int | None = None):
    """One exact sweep row and the stationary state it comes from.

    The conditional protocol is labelled a mixture of its two reset
    branches, except in the thermodynamic limit at omega <= delta, where
    every reset lands on all-up and the state is the closed form.
    """
    if protocol is ProtocolKind.UNCONDITIONAL_RESET:
        st = stationary_state_p1(params, dist)
        regime = REGIME_CLOSED
    else:
        st = stationary_state_p2(params, dist, n_spins)
        closed = n_spins is None and params.omega <= params.delta
        regime = REGIME_CLOSED if closed else REGIME_MIXTURE
    require_exchange_symmetric(st.pair_state)
    corr = connected_correlation(st.pair_state)
    discord = lqu(st.pair_state).value
    return (st.density, 0.0, corr, 0.0, discord, 0.0, regime), st


def _mc_row(protocol, params, dist, mc: McTemplate, workers):
    stats = run_ensemble(mc.config(protocol, params, dist, workers=workers))
    discord, discord_err = ensemble_lqu(stats)
    return (stats.window_density, stats.window_density_stderr,
            stats.window_correlation, stats.window_correlation_stderr,
            discord, discord_err, REGIME_MC)


def sweep_stationary(protocol: ProtocolKind, dist: WaitingTime, omega_over_delta_grid,
                     mc: McTemplate | None = None, delta: float = 1.0,
                     use_mc: bool = False) -> SweepResult:
    """Stationary density, correlation and discord across a drive grid.

    Exact rows where the renewal treatment applies; Monte Carlo rows for
    the flip protocol and for finite n_spins (taken from the template),
    or everywhere when use_mc is set.  A Monte Carlo row that raises is
    recorded as failed (NaN values, error kept in row_errors) without
    aborting the remaining rows.
    """
    grid = np.asarray(list(omega_over_delta_grid), dtype=float)
    if grid.size == 0:
        raise ValueError("omega_over_delta grid must not be empty")
    if delta <= 0.0:
        raise ValueError("sweeps need delta > 0 (the grid is in units of delta)")
    mc = mc or McTemplate()
    needs_mc = (use_mc
                or protocol is ProtocolKind.CONDITIONAL_FLIP
                or (mc.n_spins is not None and protocol is not ProtocolKind.UNCONDITIONAL_RESET))

    def params(x):
        return DriveParams(omega=x * delta, delta=delta)

    if not needs_mc:
        rows = [closed_form_row(protocol, params(x), dist)[0] for x in grid]
        return SweepResult.from_rows(protocol, dist, delta, grid, rows)

    def attempt(x):
        # rows run on worker threads, each single-worker; a failure is
        # returned as its message and recorded below in grid order
        try:
            return _mc_row(protocol, params(x), dist, mc, workers=1)
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"

    rows = ordered_map(attempt, grid, mc.workers)
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


def _column_index(observable: str) -> int:
    return {"density": 0, "correlation": 2, "lqu": 4}[observable]


def estimate_discontinuity(sweep: SweepResult, critical_point: float = 1.0,
                           observable: str = "density") -> JumpEstimate:
    """Jump of an observable at the critical point: left limit minus right.

    Each side is a linear extrapolation of its two nearest rows to the
    critical point; a row exactly at the critical point is ignored (its
    branch assignment is a convention).  A side whose nearest row is
    exact skips the extrapolation and evaluates its branch at the
    critical point itself, which carries zero error; mixture rows do not
    qualify because evaluating at the critical point would cross onto
    the other branch.
    """
    xs = sweep.omega_over_delta
    values, stderrs = sweep.column(observable)
    ok = np.array([r != REGIME_FAILED for r in sweep.regime])
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
            return float(row[_column_index(observable)]), 0.0
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
    and contain at least five rows.  Offsets must not straddle zero: an
    all-negative window is fitted in magnitude and reported with a
    negative amplitude; a mixed-sign or zero offset is an error naming
    the offending row.
    """
    if window is None:
        window = (critical_point + DEFAULT_WINDOW[0], critical_point + DEFAULT_WINDOW[1])
    if baseline is None:
        baseline = DEFAULT_BASELINES[observable]
    lo, hi = (float(w) for w in window)
    if not critical_point < lo <= hi:
        raise ValueError(f"fit window ({lo}, {hi}) must lie strictly above {critical_point}")
    xs = sweep.omega_over_delta
    values, _ = sweep.column(observable)
    mask = (xs >= lo) & (xs <= hi)
    if mask.sum() < MIN_FIT_POINTS:
        raise ValueError(
            f"need at least {MIN_FIT_POINTS} rows in ({lo}, {hi}), found {int(mask.sum())}")
    x = xs[mask]
    y = values[mask] - baseline
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
