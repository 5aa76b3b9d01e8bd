"""Trace targets for each package module and the per-layer metrics.

Each target names a function (or method) of one module of the package;
the span name starts with that module's name, which is the layer.  The
README in this directory maps every metric to the end-to-end metric it
should move.
"""

from __future__ import annotations

import math

import numpy as np

from tracer import SpanStats, Target, Tracer

QUANTILE = "trajectory_sim.binomial_quantile"


def _elements(args, kwargs, result, dt):
    return {"elements": int(np.broadcast(*args).size)}


def _mean_wait(dist) -> float:
    g = dist.gamma
    if dist.t_max is None:
        return 1.0 / g
    e = math.exp(-g * dist.t_max)
    return 1.0 / g - dist.t_max * e / (1.0 - e)


def _ensemble_work(args, kwargs, result, dt):
    config = args[0] if args else kwargs["config"]
    n = config.n_trajectories
    return {"trajectories": n,
            "expected_resets": n * config.observation_time / _mean_wait(config.dist)}


def _sweep_pool(args, kwargs, result, dt):
    # capacity of the row pool: sweep wall time x workers, for sweeps
    # that ran Monte Carlo rows
    mc = kwargs.get("mc", args[3] if len(args) > 3 else None)
    workers = mc.workers if mc is not None else 1
    ran_mc = result is not None and "monte-carlo" in result.regime
    return {"pool_capacity_s": dt * workers if ran_mc else 0.0}


def targets(tracer: Tracer) -> list:
    def bdtr_counts(args, kwargs, result, dt):
        out = _elements(args, kwargs, result, dt)
        out["in_quantile"] = int(tracer.active(QUANTILE))
        return out

    ts = "spinreset.trajectory_sim:"
    return [
        Target("spinreset.cli:execute_command", "cli.execute_command"),
        Target("spinreset.cli:write_table", "cli.write_table"),
        Target("spinreset.analysis:sweep_stationary", "analysis.sweep_stationary",
               extra=_sweep_pool),
        Target("spinreset.analysis:_mc_row", "analysis.mc_row", cpu=True),
        Target("spinreset.analysis:ensemble_lqu", "analysis.ensemble_lqu"),
        Target(ts + "run_ensemble", "trajectory_sim.run_ensemble", extra=_ensemble_work),
        Target(ts + "_trajectory_streams", "trajectory_sim.stream_setup"),
        Target(ts + "_ChunkState.advance_to", "trajectory_sim.reset_loop"),
        Target(ts + "_ChunkState.record", "trajectory_sim.record"),
        Target(ts + "binomial_quantile", QUANTILE, extra=_elements),
        Target(ts + "bdtrik", "trajectory_sim.bdtrik", extra=_elements),
        Target(ts + "bdtr", "trajectory_sim.bdtr", extra=bdtr_counts),
        Target(ts + "waiting_time_from_uniform", "trajectory_sim.wait_draws",
               extra=lambda args, kwargs, result, dt: {"draws": int(np.size(args[1]))}),
        Target("spinreset.renewal:stationary_state_p1", "renewal.stationary_state"),
        Target("spinreset.renewal:stationary_state_p2", "renewal.stationary_state"),
        Target("spinreset.renewal:reset_rates_R", "renewal.reset_rates_R"),
        Target("spinreset.renewal:exp_weighted_average", "renewal.exp_weighted_average"),
        Target("spinreset.renewal:integrate.quad", "renewal.quad"),
        Target("spinreset.finite_size:transition_prob_exact", "finite_size.transition_prob_exact"),
        Target("spinreset.observables:lqu", "observables.lqu"),
        Target("spinreset.spin_dynamics:evolve_qubit", "spin_dynamics.evolve_qubit"),
        Target("spinreset.spin_dynamics:free_qubit_poly", "spin_dynamics.poly_build"),
        Target("spinreset.spin_dynamics:free_pair_poly", "spin_dynamics.poly_build"),
        Target("spinreset.trigpoly:kron_poly", "trigpoly.kron_poly"),
    ]


def make_tracer() -> Tracer:
    tracer = Tracer()
    tracer.targets = targets(tracer)
    return tracer


def layer_metrics(tracer: Tracer, rep: dict) -> dict:
    """Per-layer metrics of one traced repetition.

    trace.overhead_frac needs the untraced wall time and is added by the
    caller; the import-time metrics come from separate interpreters.
    """
    st = tracer.stats()

    def g(name) -> SpanStats:
        return st.get(name, SpanStats())

    ens = g("trajectory_sim.run_ensemble")
    trajectories = ens.counters.get("trajectories", 0)
    draws = g("trajectory_sim.wait_draws").counters.get("draws", 0)
    capacity = g("analysis.sweep_stationary").counters.get("pool_capacity_s", 0.0)
    bq, bdtrik, bdtr = g(QUANTILE), g("trajectory_sim.bdtrik"), g("trajectory_sim.bdtr")
    out = {
        "cli.self_s": g("cli.execute_command").self_s + g("cli.write_table").self_s,
        "cli.write_table.s": g("cli.write_table").s,
        "cli.bytes_written": rep["cli_bytes"],
        "analysis.sweep_stationary.s": g("analysis.sweep_stationary").s,
        "analysis.ensemble_lqu.calls": g("analysis.ensemble_lqu").calls,
        "analysis.ensemble_lqu.s": g("analysis.ensemble_lqu").s,
        "analysis.pool_cpu_frac": g("analysis.mc_row").cpu_s / capacity if capacity else 0.0,
        "trajectory_sim.run_ensemble.s": ens.s,
        # run_ensemble minus its timed children
        "trajectory_sim.self_s": ens.s - sum(g(f"trajectory_sim.{c}").s for c in
                                             ("stream_setup", "reset_loop", "record")),
        "trajectory_sim.us_per_traj": 1e6 * ens.s / trajectories if trajectories else 0.0,
        "trajectory_sim.binomial_quantile.calls": bq.calls,
        "trajectory_sim.binomial_quantile.elements": bq.counters.get("elements", 0),
        "trajectory_sim.binomial_quantile.s": bq.s,
        "trajectory_sim.bdtrik.elements": bdtrik.counters.get("elements", 0),
        "trajectory_sim.bdtrik.s": bdtrik.s,
        "trajectory_sim.bdtr.calls": bdtr.calls,
        "trajectory_sim.bdtr.elements": bdtr.counters.get("elements", 0),
        # each quantile call ends its two correction loops with one
        # non-moving bdtr pass apiece; every other pass moved an element
        "trajectory_sim.quantile_fixup_steps":
            bdtr.counters.get("in_quantile", 0) - 2 * bdtrik.calls,
        "trajectory_sim.wait_draws": draws,
        "trajectory_sim.wait_draw_use":
            ens.counters.get("expected_resets", 0.0) / draws if draws else 0.0,
        "renewal.stationary_state.s": g("renewal.stationary_state").s,
        "renewal.reset_rates_R.s": g("renewal.reset_rates_R").s,
        "renewal.exp_weighted_average.s": g("renewal.exp_weighted_average").s,
        "renewal.quad.calls": g("renewal.quad").calls,
        "renewal.quad.s": g("renewal.quad").s,
        "finite_size.transition_prob_exact.calls": g("finite_size.transition_prob_exact").calls,
        "finite_size.transition_prob_exact.s": g("finite_size.transition_prob_exact").s,
        "observables.lqu.calls": g("observables.lqu").calls,
        "observables.lqu.s": g("observables.lqu").s,
        "spin_dynamics.evolve_qubit.calls": g("spin_dynamics.evolve_qubit").calls,
        "spin_dynamics.evolve_qubit.s": g("spin_dynamics.evolve_qubit").s,
        "spin_dynamics.poly_build.s": g("spin_dynamics.poly_build").s,
        "trigpoly.kron_poly.s": g("trigpoly.kron_poly").s,
        # self times are host time, so they are compared with the uncorrected wall
        "trace.coverage": sum(s.self_s for s in st.values()) / rep["raw_wall_s"],
    }
    return out
