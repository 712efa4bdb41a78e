"""Parameter sweeps and regime grids over the pool and punishment multipliers.

:func:`sweep_root` and :func:`regime_grid` validate a job and return a
view of it: the model and its axes.  Nothing is classified there; the
``sweep`` and ``grid`` rows of :mod:`pgg_bribery.cli` classify one chunk
of cells at a time with :func:`~pgg_bribery.analysis.classify_regimes`,
whose cells equal, bit for bit, the point classified on its own, and
whose ``knife_edge`` token marks a point on a threshold.  Everything that
a cell could refuse is refused here, before any file opens: the axes,
``MAX_CELLS``, ``analysis.MAX_TURNS`` and non-finite thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .analysis import BISECTION_STEPS, _check_turns, _finite_coefficients

# unused here, classify_regime stays as sweeps.classify_regime for perfbench's tracer test
from .analysis import classify_regime  # noqa: F401
from .games import Model

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
# cells one sweep, grid or gradient may ask for: at the cap and n = 5, a grid
# takes ~3-4 s and ~34 MB peak RSS on a 2-vCPU VM; its memory no longer
# grows with the cells, but its time does
MAX_CELLS = 10**6


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A validated 1-D sweep: ``model`` with ``parameter`` set to each of ``points``."""

    model: Model
    parameter: str
    points: np.ndarray


@dataclass(frozen=True, eq=False)
class RegimeGrid:
    """A validated (f, r_p) grid of ``model``, f-major: cell ``(i, j)`` is ``f_values[i]``, ``rp_values[j]``."""

    model: Model
    f_values: np.ndarray
    rp_values: np.ndarray


def with_parameter(model: Model, name: str, value: float) -> Model:
    """Copy of the model with the swept parameter replaced."""
    if name not in SWEEP_DEFAULTS:
        raise ValueError(f"swept parameter must be {' or '.join(map(repr, SWEEP_DEFAULTS))}, got {name!r}")
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


def _check_finite(model: Model, rp_values) -> None:
    """Refuse the job when a threshold overflows at any of its cells.

    ``f`` does not enter the thresholds, and each of their terms is affine
    in ``r_p``, so the ends of the ``r_p`` axis bound every cell's.
    """
    for r_p in (rp_values[0], rp_values[-1]):
        _finite_coefficients(replace(model, r_p=float(r_p)))


def sweep_root(
    model: Model, parameter: str, lo: float, hi: float, steps: int = DEFAULT_STEPS
) -> SweepResult:
    """Validate a sweep of the regime and x* along a 1-D parameter grid."""
    values = _axis(model, parameter, lo, hi, steps)
    _check_turns(f"{parameter} sweep", model.n, points=steps, halvings=BISECTION_STEPS)
    _check_finite(model, values if parameter == "r_p" else [model.r_p])
    return SweepResult(model, parameter, values)


def regime_grid(
    model: Model,
    f_lo: float,
    f_hi: float,
    rp_lo: float,
    rp_hi: float,
    f_steps: int = DEFAULT_STEPS,
    rp_steps: int = DEFAULT_STEPS,
) -> RegimeGrid:
    """Validate a grid of the basin of full cooperation over (f, r_p)."""
    f_values = _axis(model, "f", f_lo, f_hi, f_steps)
    rp_values = _axis(model, "r_p", rp_lo, rp_hi, rp_steps)
    _check_cells("(f, r_p) grid", f_steps * rp_steps)
    _check_turns("(f, r_p) grid", model.n, cells=f_steps * rp_steps, halvings=BISECTION_STEPS)
    _check_finite(model, rp_values)
    return RegimeGrid(model, f_values, rp_values)
