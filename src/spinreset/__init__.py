"""Driven two-level ensembles under stochastic resetting.

Closed-form free evolution, exact stationary states of the reset
renewal process, Monte Carlo trajectory ensembles for the conditional
protocols, and the analysis layer (sweeps, jump estimates, power-law
fits) behind the `spinreset` command line tool.
"""

__version__ = "0.1.0"

# The library entry points the README documents, and the types they take
# or return; everything else is imported from its own module.
from .analysis import (
    JumpEstimate,
    McTemplate,
    PowerLawFit,
    SweepResult,
    estimate_discontinuity,
    fit_power_law,
    sweep_stationary,
)
from .observables import LquResult, connected_correlation, lqu
from .renewal import ProtocolKind, StationaryState, WaitingTime, stationary_state_p1, stationary_state_p2
from .spin_dynamics import DriveParams
from .trajectory_sim import EnsembleStats, SimConfig, run_ensemble

__all__ = [
    "DriveParams",
    "EnsembleStats",
    "JumpEstimate",
    "LquResult",
    "McTemplate",
    "PowerLawFit",
    "ProtocolKind",
    "SimConfig",
    "StationaryState",
    "SweepResult",
    "WaitingTime",
    "connected_correlation",
    "estimate_discontinuity",
    "fit_power_law",
    "lqu",
    "run_ensemble",
    "stationary_state_p1",
    "stationary_state_p2",
    "sweep_stationary",
]
