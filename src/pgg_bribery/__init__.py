"""Replicator dynamics of institutional punishment and bribery games.

A library and CLI for the N-player public goods game with a tax-funded
punishing leader (IPGG) and its bribery extension (BG): per-group
payoffs, closed-form population averages, the selection polynomial and
its bifurcation thresholds, the interior equilibrium and basins of
attraction, fixed-step replicator integration, seeded Monte Carlo
oracles, and parameter sweeps with deterministic CSV output.
"""

from .analysis import (
    KnifeEdgeError,
    Coefficients,
    Regime,
    RegimeKind,
    Regimes,
    Thresholds,
    avg_payoff,
    binomial_avg_payoff,
    bribery_offset,
    classify_regime,
    classify_regimes,
    coefficients,
    gradient_of_selection,
    interior_root,
    q_function,
    stability_at,
    thresholds,
)
from .config import ConfigError, RunConfig, parse_config
from .dynamics import Trajectory, basin_of_cooperation, integrate
from .games import (
    BriberyParams,
    CoreParams,
    GroupComposition,
    Model,
    ParameterError,
    core_of,
    group_payoff,
)
from .montecarlo import (
    Estimate,
    EventOutcome,
    RngSeed,
    estimate_avg_payoff,
    estimate_expected_payoff,
    evolve_finite_population,
    realize_event,
)
from .sweeps import RegimeGrid, SweepResult, regime_grid, sweep_root, with_parameter
from .verify import run_battery

__version__ = "0.1.0"

__all__ = [
    "BriberyParams",
    "Coefficients",
    "ConfigError",
    "CoreParams",
    "Estimate",
    "EventOutcome",
    "GroupComposition",
    "KnifeEdgeError",
    "Model",
    "ParameterError",
    "Regime",
    "RegimeGrid",
    "RegimeKind",
    "Regimes",
    "RngSeed",
    "RunConfig",
    "SweepResult",
    "Thresholds",
    "Trajectory",
    "avg_payoff",
    "basin_of_cooperation",
    "binomial_avg_payoff",
    "bribery_offset",
    "classify_regime",
    "classify_regimes",
    "coefficients",
    "core_of",
    "estimate_avg_payoff",
    "estimate_expected_payoff",
    "evolve_finite_population",
    "gradient_of_selection",
    "group_payoff",
    "integrate",
    "interior_root",
    "parse_config",
    "q_function",
    "realize_event",
    "regime_grid",
    "run_battery",
    "stability_at",
    "sweep_root",
    "thresholds",
    "with_parameter",
]
