"""Scalar reference simulator: one trajectory at a time, one reset at a time.

The test oracle of the vectorized engine in spinreset.trajectory_sim.
It walks a single trajectory through its reset events in plain Python,
using the same closed-form records as the engine, so fed with the
per-trajectory streams of run_ensemble (numpy_streams builds them with
numpy's own SeedSequence and Philox, not with the engine's keys) it
reproduces the ensemble averages to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from spinreset.renewal import WaitingTime, waiting_time_from_uniform
from spinreset.trajectory_sim import (
    ProtocolKind,
    SimConfig,
    _new_accumulators,
    _phase_terms,
    _record_finite,
    _record_thermo,
    binomial_quantile,
)


def numpy_streams(seed: int, index: int):
    """(wait, measurement) generators of trajectory index, as numpy builds them."""
    return tuple(np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=(index, kind)))) for kind in (0, 1))


def sample_waiting_time(dist: WaitingTime, rng: np.random.Generator, size=None):
    """Draw waiting times by inverse-CDF sampling."""
    u = rng.random(size)
    out = waiting_time_from_uniform(dist, u)
    return out if size is not None else float(out)


@dataclass
class TrajectoryState:
    """Sufficient statistics of one trajectory between resets."""

    n0: float
    t_last_reset: float
    count: Optional[int] = None  # up-origin count at the last reset (finite N)


def measurement_outcome(protocol: ProtocolKind, n_spins: Optional[int], p: float,
                        n0: float, rng: np.random.Generator) -> float:
    """Measured excitation density at a reset event.

    Thermodynamic limit: self-averaging makes the outcome the
    deterministic mean density.  Finite N: the up-origins and
    down-origins contribute independent binomial counts, drawn by
    inverse transform from two uniforms (always two, so the stream
    advances identically for every protocol).
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"flip probability {p} outside [0, 1]")
    if n_spins is None:
        return n0 * (1.0 - p) + (1.0 - n0) * p
    m = int(round(n0 * n_spins))
    if abs(m - n0 * n_spins) > 1e-9:
        raise ValueError(f"n0={n0} is not a multiple of 1/{n_spins}")
    u_up = rng.random()
    u_down = rng.random()
    stay_up = binomial_quantile(u_up, m, 1.0 - p)
    flip_up = binomial_quantile(u_down, n_spins - m, p)
    return (int(stay_up) + int(flip_up)) / n_spins


def apply_reset_rule(protocol: ProtocolKind, n_hat: float) -> float:
    """Origin density right after a reset, given the measured density."""
    if not (0.0 <= n_hat <= 1.0):
        raise ValueError(f"measured density {n_hat} outside [0, 1]")
    if protocol is ProtocolKind.UNCONDITIONAL_RESET:
        return 1.0
    if protocol is ProtocolKind.CONDITIONAL_TWO_STATE:
        return 1.0 if n_hat > 0.5 else 0.0
    if protocol is ProtocolKind.CONDITIONAL_FLIP:
        return 1.0 if n_hat > 0.5 else 1.0 - n_hat
    raise ValueError(f"unknown protocol {protocol!r}")

def run_trajectory(config: SimConfig, rng: np.random.Generator,
                   measure_rng: Optional[np.random.Generator] = None):
    """One trajectory, recorded on the sample grid.

    Returns (density, two_point, pair_state) arrays.  rng supplies the
    waiting times; measure_rng the measurement draws (defaults to rng).
    The vectorized ensemble reproduces this function exactly when the
    two streams are the per-trajectory streams documented in
    run_ensemble.
    """
    mrng = rng if measure_rng is None else measure_rng
    params, dist, n_spins = config.params, config.dist, config.n_spins
    proto = config.protocol
    state = TrajectoryState(n0=1.0, t_last_reset=0.0,
                            count=n_spins if n_spins is not None else None)
    next_reset = sample_waiting_time(dist, rng)
    grid = np.asarray(config.sample_grid)
    acc = _new_accumulators(len(grid))
    for gi, tg in enumerate(grid):
        while next_reset <= tg:
            tau = next_reset - state.t_last_reset
            p = float(np.clip(_phase_terms(params, np.asarray(tau))[0], 0.0, 1.0))
            if proto is ProtocolKind.UNCONDITIONAL_RESET:
                state.n0 = 1.0
            else:
                n_hat = measurement_outcome(proto, n_spins, p, state.n0, mrng)
                state.n0 = apply_reset_rule(proto, n_hat)
            if n_spins is not None:
                if proto is ProtocolKind.CONDITIONAL_FLIP:
                    state.count = int(round(state.n0 * n_spins))
                else:
                    state.count = n_spins if state.n0 == 1.0 else 0
                state.n0 = state.count / n_spins
            _check_state_invariant(proto, state)
            state.t_last_reset = next_reset
            next_reset += sample_waiting_time(dist, rng)
        s = np.asarray([tg - state.t_last_reset])
        if n_spins is None:
            _record_thermo(params, s, np.asarray([state.n0]), acc, gi)
        else:
            _record_finite(params, s, np.asarray([float(state.count)]), n_spins, acc, gi)
    return acc["sd"].copy(), acc["sx"].copy(), acc["pair"].copy()


def _check_state_invariant(proto, state):
    if proto is ProtocolKind.UNCONDITIONAL_RESET:
        assert state.n0 == 1.0
    elif proto is ProtocolKind.CONDITIONAL_TWO_STATE:
        assert state.n0 in (0.0, 1.0)
    else:
        assert 0.5 <= state.n0 <= 1.0 or abs(state.n0 - 0.5) < 1e-12
