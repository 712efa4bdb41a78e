"""Parameter sweeps and regime grids over the pool and punishment multipliers.

Both are thin wrappers over :func:`~pgg_bribery.analysis.classify_regimes`:
every point is classified once, in one array evaluation, so the results
are equal, bit for bit, to classifying each point on its own.  A knife-edge
point gets the token ``knife_edge`` and, in ``notes``, the report of that
same pass, instead of aborting the sweep.  ``MAX_CELLS`` bounds their size.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# unused here, classify_regime stays as sweeps.classify_regime for perfbench's tracer test
from .analysis import classify_regime, classify_regimes  # noqa: F401
from .games import BriberyParams, Model

__all__ = [
    "SweepResult",
    "RegimeGrid",
    "SWEEP_DEFAULTS",
    "with_parameter",
    "sweep_root",
    "regime_grid",
]

# default sweep windows, recorded in emitted metadata; the keys are the sweepable names
SWEEP_DEFAULTS = {"f": (1.05, 8.0), "r_p": (0.1, 6.0)}
DEFAULT_STEPS = 200
# cells one sweep, grid or gradient may ask for: at the cap, a grid takes
# ~4.6 s and ~200 MB peak on a 2-vCPU VM; a larger one could exhaust memory
MAX_CELLS = 10**6


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
    if name not in SWEEP_DEFAULTS:
        raise ValueError(f"swept parameter must be {' or '.join(map(repr, SWEEP_DEFAULTS))}, got {name!r}")
    if isinstance(model, BriberyParams):
        return replace(model, core=replace(model.core, **{name: value}))
    return replace(model, **{name: value})


def _check_cells(what: str, cells: int) -> None:
    """Refuse a job of more than ``MAX_CELLS`` cells, before its arrays are built."""
    if cells > MAX_CELLS:
        raise ValueError(f"{what} asks for {cells} cells, above the limit of {MAX_CELLS}")


def _axis(model: Model, name: str, lo: float, hi: float, steps: int) -> np.ndarray:
    if not lo < hi:
        raise ValueError(f"{name} bounds must satisfy lo < hi, got [{lo}, {hi}]")
    if steps < 2:
        raise ValueError(f"{name} needs at least 2 steps, got {steps}")
    _check_cells(f"{name} axis", steps)
    # every parameter constraint is an interval, so valid ends make a valid
    # axis; checking the ends here also refuses an infinite end with the
    # record's message, before linspace turns it into NaN cells
    with_parameter(model, name, lo)
    with_parameter(model, name, hi)
    # near the largest double, (steps - 1) * step may round past it inside
    # linspace, which then sets that last point to hi: no point overflows
    with np.errstate(over="ignore"):
        return np.linspace(lo, hi, steps)


def sweep_root(
    model: Model, parameter: str, lo: float, hi: float, steps: int = DEFAULT_STEPS
) -> SweepResult:
    """Classify the model and locate x* along a 1-D parameter grid."""
    values = _axis(model, parameter, lo, hi, steps)
    token, x_star, basin, notes = classify_regimes(model, **{parameter: values})
    return SweepResult(parameter, values, token, x_star, basin, {i: note for (i,), note in notes.items()})


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
    _check_cells("(f, r_p) grid", f_steps * rp_steps)
    return RegimeGrid(f_values, rp_values, *classify_regimes(model, f=f_values[:, None], r_p=rp_values[None, :]))
