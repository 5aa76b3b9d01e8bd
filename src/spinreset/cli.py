"""Command line surface: stationary tables, ensembles, sweeps, fits.

Every file-writing invocation drops a JSON manifest next to its outputs
recording the resolved configuration, so a run can be repeated exactly.
All frequencies are entered relative to delta (omega means omega/delta,
gamma means gamma/delta, times are in units of 1/delta); delta=0 is the
resonant special case and uses omega itself as the unit.

Exit codes: 0 success, 2 usage error, 3 validation or output error,
4 verification failure, 5 unreadable input file.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .analysis import (
    SERIES_COLUMNS,
    SWEEP_COLUMNS,
    McTemplate,
    SweepResult,
    closed_form_row,
    ensemble_lqu,
    fit_power_law,
    sweep_stationary,
)
from .finite_size import _check_n
from .observables import connected_correlation, connected_correlation_closed_form, lqu
from .renewal import (
    ProtocolKind,
    WaitingTime,
    renewal_state_at_time,
    stationary_density_closed_form,
    stationary_state_p1,
    stationary_state_p2,
)
from .spin_dynamics import DriveParams
from .trajectory_sim import EnsembleStats, SimConfig, run_ensemble

MAX_GRID_POINTS = 10**6  # a lo:hi:step grid is built as a list before any row runs

# argparse attributes that are plumbing, not configuration
_NOT_CONFIG = ("func", "command", "argv", "start")


class UnreadableInput(Exception):
    pass


# ---------------------------------------------------------------------------
# Manifest and table emission.
# ---------------------------------------------------------------------------


def _manifest(args, extra=None) -> dict:
    """This run's configuration, plus extra, its wall time so far and (once written) its outputs."""
    config = {k: list(v) if isinstance(v, tuple) else v
              for k, v in sorted(vars(args).items()) if k not in _NOT_CONFIG}
    config.update(extra or {})
    return {"command": args.command, "argv": list(args.argv), "config": config,
            "seed": getattr(args, "seed", None), "version": __version__,
            "wall_time": time.perf_counter() - args.start, "outputs": []}


def _write(path: str, text: str) -> str:
    """Write one file the CLI produces; returns its path."""
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _write_manifest(stem: str, manifest: dict, outputs: list) -> str:
    """Write <stem>.manifest.json listing outputs; returns its path."""
    manifest["outputs"] = outputs
    return _write(stem + ".manifest.json", _json_text(manifest))


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    return format(float(v), ".17g")


def _csv_text(columns, rows) -> str:
    lines = [", ".join(columns)]
    for row in rows:
        lines.append(", ".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _dist_dict(dist: WaitingTime) -> dict:
    return {"kind": dist.kind.value, "gamma": dist.gamma, "t_max": dist.t_max}


def _table(result):
    """(columns, column values, JSON fields before the columns, JSON fields after)."""
    if isinstance(result, SweepResult):
        head = {"kind": "sweep", "protocol": result.protocol.value,
                "dist": _dist_dict(result.dist), "delta": result.delta,
                "n_spins": result.n_spins}
        # "fits" is always empty; it stays until the benchmark's checksums are re-recorded
        tail = {"row_errors": {str(k): v for k, v in result.row_errors.items()}, "fits": {}}
        return SWEEP_COLUMNS, [getattr(result, c) for c in SWEEP_COLUMNS], head, tail
    if isinstance(result, EnsembleStats):
        # the time column is emitted as t*delta, mirroring the input groups
        d = result.config.params.delta
        unit = d if d > 0.0 else 1.0
        head = {"kind": "ensemble", "protocol": result.config.protocol.value,
                "dist": _dist_dict(result.config.dist), "n_spins": result.config.n_spins,
                "n_trajectories": result.n_trajectories}
        tail = {"wall_time": result.wall_time}
        if result.window_density is not None:
            lq, lq_err = ensemble_lqu(result)
            tail["window"] = {
                "range": [w * unit for w in result.config.average_window],
                **{c: getattr(result, "window_" + c) for c in SERIES_COLUMNS[1:]},
                "lqu": lq, "lqu_stderr": lq_err}
        values = [result.times * unit] + [getattr(result, c) for c in SERIES_COLUMNS[1:]]
        return SERIES_COLUMNS, values, head, tail
    raise ValueError(f"cannot serialize {type(result).__name__}")


def write_table(result, fmt: str, path: str, manifest: dict | None = None) -> list:
    """Write a sweep or time-series table as CSV and/or JSON files.

    fmt is csv, json, or both; path is the stem the extensions are
    appended to.  Returns the list of files written.
    """
    columns, values, head, tail = _table(result)
    written = []
    if fmt in ("csv", "both"):
        written.append(_write(path + ".csv", _csv_text(columns, zip(*values))))
    if fmt in ("json", "both"):
        doc = {**head, "columns": list(columns),
               **{c: v.tolist() if isinstance(v, np.ndarray) else list(v)
                  for c, v in zip(columns, values)},
               **tail}
        if manifest is not None:
            doc["manifest"] = manifest
        written.append(_write(path + ".json", _json_text(doc)))
    return written


# ---------------------------------------------------------------------------
# Minimal SVG line plots (polylines and ticks, nothing else).
# ---------------------------------------------------------------------------

_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")


def write_svg(path: str, x, series, labels, xlabel: str, ylabel: str):
    """One panel, one or more polylines over a shared x axis."""
    width, height = 640, 480
    ml, mr, mt, mb = 72, 16, 20, 48
    x = np.asarray(x, dtype=float)
    series = [np.asarray(y, dtype=float) for y in series]
    finite = np.concatenate([y[np.isfinite(y)] for y in series] or [np.array([0.0])])
    if finite.size == 0:
        finite = np.array([0.0, 1.0])
    x_lo, x_hi = float(x.min()), float(x.max())
    y_lo, y_hi = float(finite.min()), float(finite.max())
    if x_hi - x_lo < 1e-300:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    pad = max(0.05 * (y_hi - y_lo), 1e-3 * max(abs(y_lo), abs(y_hi), 1.0))
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(v):
        return ml + (v - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def sy(v):
        return height - mb - (v - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>',
    ]
    for i in range(5):
        xv = x_lo + i * (x_hi - x_lo) / 4
        yv = y_lo + i * (y_hi - y_lo) / 4
        parts.append(f'<line x1="{sx(xv):.1f}" y1="{height - mb}" x2="{sx(xv):.1f}" '
                     f'y2="{height - mb + 5}" stroke="black"/>')
        parts.append(f'<text x="{sx(xv):.1f}" y="{height - mb + 18}" '
                     f'text-anchor="middle">{xv:.4g}</text>')
        parts.append(f'<line x1="{ml - 5}" y1="{sy(yv):.1f}" x2="{ml}" '
                     f'y2="{sy(yv):.1f}" stroke="black"/>')
        parts.append(f'<text x="{ml - 8}" y="{sy(yv):.1f}" text-anchor="end" '
                     f'dominant-baseline="middle">{yv:.4g}</text>')
    parts.append(f'<text x="{(ml + width - mr) / 2:.1f}" y="{height - 12}" '
                 f'text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="16" y="{(mt + height - mb) / 2:.1f}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {(mt + height - mb) / 2:.1f})">{ylabel}</text>')
    for k, (y, label) in enumerate(zip(series, labels)):
        color = _SVG_COLORS[k % len(_SVG_COLORS)]
        pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, y) if math.isfinite(b))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{width - mr - 8}" y="{mt + 16 + 16 * k}" text-anchor="end" '
                     f'fill="{color}">{label}</text>')
    parts.append("</svg>")
    return _write(path, "\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# Argument handling.
# ---------------------------------------------------------------------------


def _parse_grid(text: str):
    try:
        if ":" in text:
            lo, hi, step = (float(v) for v in text.split(":"))
            if not all(map(math.isfinite, (lo, hi, step))) or step <= 0.0 or hi < lo:
                raise ValueError
            span = (hi - lo) / step  # inf when the quotient overflows
            if not (math.isfinite(span) and round(span) < MAX_GRID_POINTS):
                raise argparse.ArgumentTypeError(
                    f"grid {text!r} asks for {span + 1:.4g} points, "
                    f"more than the {MAX_GRID_POINTS} allowed")
            vals = [lo + k * step for k in range(round(span) + 1)]
            return [v for v in vals if v <= hi + 1e-9]
        vals = [float(v) for v in text.split(",")]
        if not all(map(math.isfinite, vals)):
            raise ValueError
        return vals
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"grid must be lo:hi:step or a comma list of finite numbers, got {text!r}") from None


def _parse_window(text: str):
    try:
        lo, hi = (float(v) for v in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"window must be lo:hi, got {text!r}") from None
    return lo, hi


def _parse_n_list(text: str):
    try:
        values = [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma list of integers, got {text!r}") from None
    if len(set(values)) != len(values):
        raise argparse.ArgumentTypeError(f"repeated value in {text!r}")
    return values


def _add_physics_args(p, omega=True):
    if omega:
        p.add_argument("--omega", type=float, required=True,
                       help="drive amplitude over delta (or absolute when --delta 0)")
    p.add_argument("--delta", type=float, default=1.0, help="detuning scale (0 for resonant drive)")
    p.add_argument("--gamma", type=float, default=None, help="reset rate over delta (default 0.5)")
    p.add_argument("--dist", choices=("poisson", "chopped"), default="poisson",
                   help="waiting-time law between resets")
    p.add_argument("--tmax", type=float, default=None,
                   help="cutoff of the chopped-exponential law (units of 1/delta)")


def _add_mc_args(p, trajectories=10000):
    p.add_argument("--trajectories", type=int, default=trajectories)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes, at most the usable CPUs (default 1)")
    p.add_argument("--time", type=float, default=None,
                   help="observation time (default 30, or 2000 at finite N)")


def _add_output_args(p):
    p.add_argument("--output", "-o", default=None,
                   help="output path stem; omit to print CSV on stdout")
    p.add_argument("--format", choices=("csv", "json", "both"), default="both")
    p.add_argument("--svg", action="store_true", help="also write SVG line plots")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call; callers must not modify it.

    A parse leaves no state in it: parse_args returns a fresh namespace,
    and no action appends to or mutates a default (a string default such
    as finite-size's --grid goes through its type on every parse).
    """
    parser = argparse.ArgumentParser(
        prog="spinreset", allow_abbrev=False,
        description="Stationary states and trajectory ensembles of driven spins under stochastic resetting.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    # no abbreviated options: a typo such as --point must not parse as --points
    add_command = functools.partial(parser.add_subparsers(dest="command", required=True).add_parser,
                                    allow_abbrev=False)

    p = add_command("stationary", help="exact stationary observables at one parameter point")
    p.add_argument("--protocol", type=int, required=True,
                   choices=[k.value for k in ProtocolKind if k.has_exact_state])
    _add_physics_args(p)
    p.add_argument("--n-spins", type=int, default=None)
    _add_output_args(p)
    p.set_defaults(func=cmd_stationary)

    p = add_command("ensemble", help="Monte Carlo trajectory ensemble time series")
    p.add_argument("--protocol", type=int, choices=(1, 2, 3), required=True)
    _add_physics_args(p)
    p.add_argument("--n-spins", type=int, default=None)
    _add_mc_args(p)
    p.add_argument("--points", type=int, default=61, help="sample grid size over [0, T]")
    p.add_argument("--window", type=_parse_window, default=None,
                   help="lo:hi time window for quasi-stationary averages")
    _add_output_args(p)
    p.set_defaults(func=cmd_ensemble)

    p = add_command("sweep", help="stationary observables across an omega/delta grid")
    p.add_argument("--protocol", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--grid", type=_parse_grid, required=True, help="lo:hi:step or comma list")
    _add_physics_args(p, omega=False)
    p.add_argument("--n-spins", type=int, default=None)
    p.add_argument("--mc", action="store_true", help="force Monte Carlo on every row")
    _add_mc_args(p)
    p.add_argument("--window-points", type=int, default=11)
    _add_output_args(p)
    p.set_defaults(func=cmd_sweep)

    p = add_command("finite-size", help="majority-vote protocol crossover curves at finite N")
    p.add_argument("--n-spins", type=_parse_n_list, required=True, help="comma list of odd N")
    p.add_argument("--grid", type=_parse_grid, default="0.85:1.1:0.05")
    _add_physics_args(p, omega=False)
    _add_mc_args(p)
    p.add_argument("--window-points", type=int, default=26)
    _add_output_args(p)
    p.set_defaults(func=cmd_finite_size)

    p = add_command("fit", help="power-law exponent fit on an existing sweep file")
    p.add_argument("--input", required=True, help="sweep .csv or .json file")
    p.add_argument("--observable", choices=("density", "correlation", "lqu"), required=True)
    p.add_argument("--critical-point", type=float, default=1.0)
    p.add_argument("--window", type=_parse_window, default=None)
    p.add_argument("--baseline", type=float, default=None,
                   help="value subtracted before the log-log fit (default per observable)")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_fit)

    p = add_command("verify", help="run the oracle cross-checks")
    p.set_defaults(func=cmd_verify)
    return parser


def _resolve_workers(args) -> int:
    return 1 if args.workers is None else args.workers


def _resolve_physics(args):
    """(params, dist, unit, delta_zero) from dimensionless CLI groups."""
    delta = args.delta
    if not (0.0 <= delta < math.inf):
        raise ValueError(f"delta must be finite and >= 0, got {delta}")
    delta_zero = delta == 0.0
    unit = 1.0 if delta_zero else delta
    omega = getattr(args, "omega", None)
    if omega is not None and not math.isfinite(omega * unit):
        raise ValueError(f"--omega {omega:g} times --delta {delta:g} is not finite")
    params = None if omega is None else DriveParams(omega=omega * unit, delta=delta)
    gamma = (0.5 if args.gamma is None else args.gamma) * unit
    if args.dist == "chopped":
        if args.tmax is None:
            raise ValueError("--dist chopped requires --tmax")
        dist = WaitingTime.chopped(gamma, args.tmax / unit)
    else:
        if args.tmax is not None:
            raise ValueError("--tmax only applies to --dist chopped")
        dist = WaitingTime.poisson(gamma)
    return params, dist, unit, delta_zero


def _emit(args, tables, extra=None, svg_series=None) -> int:
    """Print each table as CSV, or write its files, the SVG plots and a manifest.

    tables is a list of (stem suffix, heading, result); the heading
    precedes the table on stdout and a sweep's failed-row reports on
    stderr.  extra joins the configuration recorded in the manifest.
    """
    for _, heading, result in tables:
        if isinstance(result, SweepResult):
            prefix = f"{heading}: " if heading else ""
            for i, err in sorted(result.row_errors.items()):
                print(f"{prefix}row {i} (omega/delta={result.omega_over_delta[i]}) failed: {err}",
                      file=sys.stderr)
    if args.output is None:
        for _, heading, result in tables:
            if heading:
                sys.stdout.write(f"# {heading}\n")
            columns, values, _, _ = _table(result)
            sys.stdout.write(_csv_text(columns, zip(*values)))
        return 0
    manifest = _manifest(args, extra)
    outputs = []
    for suffix, _, result in tables:
        outputs.extend(write_table(result, args.format, args.output + suffix, manifest))
    if args.svg and svg_series:
        for name, (x, ys, labels, xlabel, ylabel) in svg_series.items():
            outputs.append(write_svg(f"{args.output}.{name}.svg", x, ys, labels, xlabel, ylabel))
    outputs.append(_write_manifest(args.output, manifest, outputs))
    print("\n".join(outputs))
    return 0


# ---------------------------------------------------------------------------
# Subcommand bodies.
# ---------------------------------------------------------------------------


def cmd_stationary(args) -> int:
    if args.svg:
        raise ValueError("stationary writes a single row, so --svg has nothing to plot")
    if args.n_spins is not None:
        _check_n(args.n_spins)
    params, dist, unit, delta_zero = _resolve_physics(args)
    protocol = ProtocolKind(args.protocol)
    row, st = closed_form_row(protocol, params, dist, args.n_spins)
    result = SweepResult.from_rows(protocol, dist, args.delta, [args.omega], [row],
                                   n_spins=args.n_spins)
    return _emit(args, [("", None, result)], {"delta_zero": delta_zero, "note": st.note})


def _resolve_horizon(args, protocol, unit) -> float:
    """Observation time in internal units from the T*delta CLI group."""
    horizon = args.time
    if horizon is None:
        horizon = 2000.0 if protocol.measures(getattr(args, "n_spins", None)) else 30.0
    elif not (0.0 < horizon < math.inf):
        raise ValueError(f"--time must be finite and > 0, got {horizon}")
    return horizon / unit


def cmd_ensemble(args) -> int:
    params, dist, unit, delta_zero = _resolve_physics(args)
    if not math.isfinite(params.effective_rabi):
        raise ValueError(f"--omega {args.omega:g} and --delta {args.delta:g} give a Rabi frequency "
                         "hypot(omega * delta, delta) that is not finite")
    protocol = ProtocolKind(args.protocol)
    workers = _resolve_workers(args)
    horizon = _resolve_horizon(args, protocol, unit)
    if args.points < 2:
        raise ValueError(f"--points must be >= 2, got {args.points}")
    window = None if args.window is None else (args.window[0] / unit, args.window[1] / unit)
    config = SimConfig(
        protocol=protocol, params=params, dist=dist,
        observation_time=horizon,
        sample_grid=tuple(np.linspace(0.0, horizon, args.points)),
        n_trajectories=args.trajectories, seed=args.seed,
        n_spins=args.n_spins, workers=workers,
        average_window=window,
    )
    stats = run_ensemble(config)
    svg = {"density": (stats.times * unit, [stats.density], ["density"],
                       "time * delta", "density")}
    return _emit(args, [("", None, stats)],
                 {"delta_zero": delta_zero, "observation_time": horizon, "workers": workers},
                 svg)


def cmd_sweep(args) -> int:
    _, dist, unit, _ = _resolve_physics(args)
    protocol = ProtocolKind(args.protocol)
    workers = _resolve_workers(args)
    horizon = _resolve_horizon(args, protocol, unit)
    template = McTemplate(
        n_trajectories=args.trajectories, observation_time=horizon, seed=args.seed,
        workers=workers, window_points=args.window_points, n_spins=args.n_spins)
    sweep = sweep_stationary(protocol, dist, args.grid, mc=template,
                             delta=args.delta, use_mc=args.mc)
    x = sweep.omega_over_delta
    svg = {
        "density": (x, [sweep.density], ["density"], "omega/delta", "density"),
        "correlation": (x, [sweep.correlation], ["correlation"], "omega/delta", "correlation"),
        "lqu": (x, [sweep.lqu], ["lqu"], "omega/delta", "lqu"),
    }
    return _emit(args, [("", None, sweep)],
                 {"observation_time": horizon, "workers": workers}, svg)


def cmd_finite_size(args) -> int:
    _, dist, unit, _ = _resolve_physics(args)
    workers = _resolve_workers(args)
    horizon = _resolve_horizon(args, ProtocolKind.CONDITIONAL_TWO_STATE, unit)
    # every template is checked before the first sweep runs
    templates = {n: McTemplate(
        n_trajectories=args.trajectories, observation_time=horizon, seed=args.seed,
        workers=workers, average_window=(0.95 * horizon, horizon),
        window_points=args.window_points, n_spins=n) for n in args.n_spins}
    sweeps = {n: sweep_stationary(ProtocolKind.CONDITIONAL_TWO_STATE, dist, args.grid,
                                  mc=template, delta=args.delta)
              for n, template in templates.items()}
    svg = {"density": (args.grid, [sweeps[n].density for n in args.n_spins],
                       [f"N={n}" for n in args.n_spins], "omega/delta", "density")}
    return _emit(args, [(f"_N{n}", f"N = {n}", sweep) for n, sweep in sweeps.items()],
                 {"observation_time": horizon, "workers": workers}, svg)


def _read_sweep_file(path: str) -> SweepResult:
    """The SWEEP_COLUMNS of a CSV or JSON sweep table, as a SweepResult."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise UnreadableInput(f"cannot read {path}: {exc}") from exc
    is_json = path.endswith(".json")
    try:
        if is_json:
            doc = json.loads(text)
            columns = [doc[c] for c in SWEEP_COLUMNS]
        else:
            columns = _read_sweep_csv(path, text)
        # the fit reads no metadata, so placeholders fill protocol, law and delta
        return SweepResult(ProtocolKind.UNCONDITIONAL_RESET, WaitingTime.poisson(0.5), 1.0, *columns)
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        kind = "JSON" if is_json else "CSV"
        raise UnreadableInput(f"{path} is not a sweep {kind} file: {exc}") from exc


def _read_sweep_csv(path: str, text: str) -> list:
    """The SWEEP_COLUMNS of a sweep CSV table, as one sequence per column."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines or [c.strip() for c in lines[0].split(",")] != list(SWEEP_COLUMNS):
        raise UnreadableInput(f"{path} does not start with the sweep CSV header")
    rows = []
    for ln in lines[1:]:
        cells = [c.strip() for c in ln.split(",")]
        if len(cells) != len(SWEEP_COLUMNS):
            raise UnreadableInput(f"{path}: malformed row {ln!r}")
        try:
            rows.append([float(c) for c in cells[:-1]] + [cells[-1]])
        except ValueError as exc:
            raise UnreadableInput(f"{path}: malformed row {ln!r}") from exc
    return list(zip(*rows)) if rows else [()] * len(SWEEP_COLUMNS)


def cmd_fit(args) -> int:
    sweep = _read_sweep_file(args.input)
    fit = fit_power_law(sweep, args.observable, critical_point=args.critical_point,
                        window=args.window, baseline=args.baseline)
    doc = asdict(fit)
    doc["observable"] = args.observable
    text = _json_text(doc)
    sys.stdout.write(text)
    if args.output is not None:
        _write_manifest(args.output, _manifest(args), [_write(args.output + ".json", text)])
    return 0


# ---------------------------------------------------------------------------
# Oracle cross-checks.
# ---------------------------------------------------------------------------


def _verify_checks():
    from .renewal import exp_weighted_average
    from .spin_dynamics import free_two_spin_state
    from .observables import hermitian_sqrt
    from .finite_size import transition_prob_approx, transition_prob_exact

    checks = []

    def check(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    # closed-form density vs term-by-term average vs adaptive quadrature
    worst_poly = worst_quad = 0.0
    for om in (0.3, 0.7, 1.0, 1.6):
        params = DriveParams(omega=om, delta=1.0)
        dist = WaitingTime.poisson(0.5)
        exact = stationary_density_closed_form(params, dist)
        st = stationary_state_p1(params, dist)
        worst_poly = max(worst_poly, abs(st.density - exact))

        def density(t):
            rho = free_two_spin_state(params, t, "up", "up")
            return rho[0, 0].real + rho[1, 1].real

        quad = exp_weighted_average(dist, density)
        worst_quad = max(worst_quad, abs(quad - exact))
    check("density: closed form vs renewal average", worst_poly < 1e-10, f"max {worst_poly:.2e}")
    check("density: closed form vs quadrature", worst_quad < 1e-8, f"max {worst_quad:.2e}")

    # correlation closed form vs the stationary two-spin state
    worst = 0.0
    for om in (0.5, 1.0, 1.5):
        params = DriveParams(omega=om, delta=1.0)
        st = stationary_state_p1(params, WaitingTime.poisson(0.5))
        worst = max(worst, abs(connected_correlation(st.pair_state)
                               - connected_correlation_closed_form(1, params, 0.5)))
    check("correlation: closed form vs renewal average", worst < 1e-10, f"max {worst:.2e}")

    # chopped-exponential density identity
    worst = 0.0
    params = DriveParams(omega=1.0, delta=1.0)
    for gtm in (1.0, 5.0, 20.0):
        dist = WaitingTime.chopped(0.5, gtm / 0.5)
        st = stationary_state_p1(params, dist)
        worst = max(worst, abs(st.density - stationary_density_closed_form(params, dist)))
    check("chopped law: average vs closed form", worst < 1e-10, f"max {worst:.2e}")

    # conditional-protocol mixture vs its closed form
    params = DriveParams(omega=2.0, delta=1.0)
    st2 = stationary_state_p2(params, WaitingTime.poisson(0.5))
    gap = abs(connected_correlation(st2.pair_state)
              - connected_correlation_closed_form(2, params, 0.5))
    check("majority protocol: mixture vs closed form", gap < 1e-10, f"{gap:.2e}")

    # finite-N threshold probabilities against the erf approximation
    ps = np.linspace(0.05, 0.95, 37)
    diffs = [float(np.max(np.abs(transition_prob_exact(n, ps) - transition_prob_approx(n, ps))))
             for n in (51, 201, 1001)]
    check("finite N: erf error shrinks with N",
          diffs[0] > diffs[1] > diffs[2] and diffs[2] < 5e-3,
          f"{[f'{d:.2e}' for d in diffs]}")

    # discord measure unit cases
    up = np.zeros((4, 4)); up[0, 0] = 1.0
    bell = np.zeros((4, 4)); bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    vals = (lqu(up).value, lqu(np.eye(4) / 4).value, lqu(bell).value)
    check("discord: product, mixed, Bell",
          abs(vals[0]) < 1e-10 and abs(vals[1]) < 1e-10 and abs(vals[2] - 1.0) < 1e-8,
          f"{vals[0]:.1e}, {vals[1]:.1e}, {vals[2] - 1.0:.1e}")
    m = hermitian_sqrt(bell)
    check("matrix square root round-trip", np.max(np.abs(m @ m - bell)) < 1e-8)

    # Monte Carlo against the exact density (fixed seed)
    params = DriveParams(omega=1.0, delta=1.0)
    dist = WaitingTime.poisson(0.5)
    config = SimConfig(
        protocol=ProtocolKind.UNCONDITIONAL_RESET, params=params, dist=dist,
        observation_time=30.0, sample_grid=tuple(np.linspace(20.0, 30.0, 6)),
        n_trajectories=2000, seed=0, average_window=(20.0, 30.0))
    stats = run_ensemble(config)
    target = stationary_density_closed_form(params, dist)
    pull = abs(stats.window_density - target) / stats.window_density_stderr
    check("Monte Carlo vs closed form (4 sigma)", pull < 4.0, f"pull {pull:.2f}")

    # finite-time renewal state approaches the stationary one
    st = stationary_state_p1(params, dist)
    gap = np.max(np.abs(renewal_state_at_time(params, 0.5, 60.0) - st.state))
    check("finite-time renewal state converges", gap < 1e-8, f"{gap:.2e}")
    return checks


def cmd_verify(args) -> int:
    checks = _verify_checks()
    width = max(len(name) for name, _, _ in checks)
    failed = 0
    for name, ok, detail in checks:
        status = "ok" if ok else "FAIL"
        print(f"{name:<{width}}  {status:<4}  {detail}")
        failed += not ok
    if failed:
        print(f"{failed} of {len(checks)} checks failed")
        return 4
    print(f"all {len(checks)} checks passed")
    return 0


def execute_command(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        code = exc.code
        return code if isinstance(code, int) else 2
    args.argv = list(sys.argv[1:] if argv is None else argv)
    args.start = time.perf_counter()
    try:
        if getattr(args, "svg", False) and args.output is None:
            raise ValueError("--svg writes plot files, so it needs --output")
        return args.func(args)
    except UnreadableInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3


def main():
    sys.exit(execute_command())


if __name__ == "__main__":
    main()
