"""Parameter sweeps and regime grids over the pool and punishment multipliers.

Both are thin wrappers over :func:`~pgg_bribery.analysis.classify_regimes`:
every point is classified in one array evaluation, so the results are
deterministic and equal, bit for bit, to classifying each point on its
own.  A point that lands on a classification knife edge gets the token
``knife_edge`` and a report in ``notes`` instead of aborting the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .analysis import KNIFE_EDGE, KnifeEdgeError, classify_regime, classify_regimes
from .games import BriberyParams, Model

__all__ = [
    "SweepResult",
    "RegimeGrid",
    "SWEEP_DEFAULTS",
    "with_parameter",
    "sweep_root",
    "regime_grid",
]

# default sweep windows, recorded in emitted metadata
SWEEP_DEFAULTS = {"f": (1.05, 8.0), "r_p": (0.1, 6.0)}
DEFAULT_STEPS = 200


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Regime along a 1-D grid; arrays indexed by point, NaN where undefined.

    ``points`` holds the swept parameter values, ``token`` the regime
    tokens and ``notes`` the knife-edge reports keyed by point index.
    """

    parameter: str
    points: np.ndarray
    token: np.ndarray
    x_star: np.ndarray
    basin: np.ndarray
    notes: dict[int, str]


@dataclass(frozen=True, eq=False)
class RegimeGrid:
    """Regime over an (f, r_p) grid; arrays indexed ``[f][r_p]``.

    ``notes`` holds the knife-edge reports keyed by ``(i, j)``.
    """

    f_values: np.ndarray
    rp_values: np.ndarray
    token: np.ndarray
    x_star: np.ndarray
    basin: np.ndarray
    notes: dict[tuple[int, int], str]


def with_parameter(model: Model, name: str, value: float) -> Model:
    """Copy of the model with the swept parameter replaced."""
    if name not in ("f", "r_p"):
        raise ValueError(f"swept parameter must be 'f' or 'r_p', got {name!r}")
    if isinstance(model, BriberyParams):
        return replace(model, core=replace(model.core, **{name: value}))
    return replace(model, **{name: value})


def _axis(model: Model, name: str, lo: float, hi: float, steps: int) -> np.ndarray:
    if not lo < hi:
        raise ValueError(f"{name} bounds must satisfy lo < hi, got [{lo}, {hi}]")
    if steps < 2:
        raise ValueError(f"{name} needs at least 2 steps, got {steps}")
    # every parameter constraint is an interval, so valid ends make a valid axis
    with_parameter(model, name, lo)
    with_parameter(model, name, hi)
    return np.linspace(lo, hi, steps)


def _knife_edge_note(model: Model) -> str:
    """The report for a point on a threshold, worded by the scalar classifier."""
    try:
        classify_regime(model)
    except KnifeEdgeError as err:
        return str(err)
    raise RuntimeError(f"array and scalar classification disagree at {model}")


def sweep_root(
    model: Model, parameter: str, lo: float, hi: float, steps: int = DEFAULT_STEPS
) -> SweepResult:
    """Classify the model and locate x* along a 1-D parameter grid."""
    values = _axis(model, parameter, lo, hi, steps)
    regimes = classify_regimes(model, **{parameter: values})
    notes = {
        int(i): _knife_edge_note(with_parameter(model, parameter, float(values[i])))
        for i in np.flatnonzero(regimes.token == KNIFE_EDGE)
    }
    return SweepResult(parameter, values, *regimes, notes)


def regime_grid(
    model: Model,
    f_lo: float,
    f_hi: float,
    rp_lo: float,
    rp_hi: float,
    f_steps: int = DEFAULT_STEPS,
    rp_steps: int = DEFAULT_STEPS,
) -> RegimeGrid:
    """Basin of full cooperation over an (f, r_p) grid."""
    f_values = _axis(model, "f", f_lo, f_hi, f_steps)
    rp_values = _axis(model, "r_p", rp_lo, rp_hi, rp_steps)
    regimes = classify_regimes(model, f=f_values[:, None], r_p=rp_values[None, :])
    notes = {
        (int(i), int(j)): _knife_edge_note(
            with_parameter(with_parameter(model, "f", float(f_values[i])), "r_p", float(rp_values[j]))
        )
        for i, j in zip(*np.nonzero(regimes.token == KNIFE_EDGE))
    }
    return RegimeGrid(f_values, rp_values, *regimes, notes)
