"""Driven two-level ensembles under stochastic resetting.

Closed-form free evolution, exact stationary states of the reset
renewal process, Monte Carlo trajectory ensembles for the conditional
protocols, and the analysis layer (sweeps, jump estimates, power-law
fits) behind the `spinreset` command line tool.
"""

__version__ = "0.1.0"

from .analysis import (
    JumpEstimate,
    McTemplate,
    PowerLawFit,
    SweepResult,
    estimate_discontinuity,
    fit_power_law,
    sweep_stationary,
)
from .finite_size import (
    ApproxVariant,
    transition_prob_approx,
    transition_prob_exact,
)
from .observables import (
    LquResult,
    connected_correlation,
    connected_correlation_closed_form,
    excitation_density,
    hermitian_sqrt,
    lqu,
)
from .renewal import (
    ResetWeights,
    StationaryState,
    WaitingKind,
    WaitingTime,
    exp_weighted_average,
    renewal_state_at_time,
    reset_rates_R,
    sample_waiting_time,
    stationary_density_closed_form,
    stationary_state_p1,
    stationary_state_p2,
    survival_probability,
    waiting_density,
)
from .spin_dynamics import (
    DriveParams,
    evolve_qubit,
    flip_probability,
    free_excitation_density,
    free_two_point_density,
    free_two_spin_state,
    propagator,
)
from .trajectory_sim import (
    EnsembleStats,
    ProtocolKind,
    SimConfig,
    run_ensemble,
)

__all__ = [
    "ApproxVariant",
    "DriveParams",
    "EnsembleStats",
    "JumpEstimate",
    "LquResult",
    "McTemplate",
    "PowerLawFit",
    "ProtocolKind",
    "ResetWeights",
    "SimConfig",
    "StationaryState",
    "SweepResult",
    "WaitingKind",
    "WaitingTime",
    "connected_correlation",
    "connected_correlation_closed_form",
    "estimate_discontinuity",
    "evolve_qubit",
    "excitation_density",
    "exp_weighted_average",
    "fit_power_law",
    "flip_probability",
    "free_excitation_density",
    "free_two_point_density",
    "free_two_spin_state",
    "hermitian_sqrt",
    "lqu",
    "propagator",
    "renewal_state_at_time",
    "reset_rates_R",
    "run_ensemble",
    "sample_waiting_time",
    "stationary_density_closed_form",
    "stationary_state_p1",
    "stationary_state_p2",
    "survival_probability",
    "sweep_stationary",
    "transition_prob_approx",
    "transition_prob_exact",
    "waiting_density",
]
