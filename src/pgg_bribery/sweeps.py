"""Parameter sweeps and regime grids over the pool and punishment multipliers.

:func:`sweep_root` and :func:`regime_grid` check a job's size (the axes,
``MAX_CELLS``, ``analysis.MAX_TURNS``) and return a view of it, the model
and its axes, which is also its CSV rows under its ``HEADER``: each chunk
is one :func:`~pgg_bribery.analysis.classify_regimes` call, whose cells
equal, bit for bit, the point classified on its own, and whose
``knife_edge`` token marks a point on a threshold.  Its ``x_star`` and
``basin`` columns are float arrays; masked cells (an undefined value)
are empty.  A cell that a chunk refuses, such as a non-finite threshold,
raises there.  The model's record checks the axes' ends, and
``classify_regimes`` every cell; a field of one model changes with
``dataclasses.replace``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .analysis import BISECTION_STEPS, _check_turns, classify_regimes

# unused here, classify_regime stays as sweeps.classify_regime for perfbench's tracer test
from .analysis import classify_regime  # noqa: F401
from .games import Model, _as_int, _as_real
from .output import LazyRows

__all__ = [
    "SweepResult",
    "RegimeGrid",
    "SWEEP_DEFAULTS",
    "sweep_root",
    "regime_grid",
]

# default sweep windows, recorded in emitted metadata; the keys are the sweepable names
SWEEP_DEFAULTS = {"f": (1.05, 8.0), "r_p": (0.1, 6.0)}
DEFAULT_STEPS = 200
# cells one sweep, grid or gradient may ask for: at the cap and n = 5, a grid
# takes ~2.5 s and ~35 MB peak RSS on a 2-vCPU VM; its memory no longer
# grows with the cells, but its time does
MAX_CELLS = 10**6


class SweepResult(LazyRows):
    """Rows (value, regime, x_star, basin) of ``model`` with ``parameter`` set to each of ``points``."""
    HEADER = ("param", "regime", "x_star", "basin")

    def __init__(self, model: Model, parameter: str, points: np.ndarray):
        self.model, self.parameter, self.points = model, parameter, points
        super().__init__(len(points), self._make)

    def _make(self, start: int, stop: int):
        points = self.points[start:stop]
        token, x_star, basin = classify_regimes(self.model, **{self.parameter: points})
        return points, token, np.ma.masked_invalid(x_star), np.ma.masked_invalid(basin)


class RegimeGrid(LazyRows):
    """Rows (f, r_p, regime, basin) of ``model``, f-major: row ``i * len(rp_values) + j`` is cell (i, j)."""
    HEADER = ("f", "r_p", "regime", "basin")

    def __init__(self, model: Model, f_values: np.ndarray, rp_values: np.ndarray):
        self.model, self.f_values, self.rp_values = model, f_values, rp_values
        super().__init__(len(f_values) * len(rp_values), self._make)

    def _make(self, start: int, stop: int):
        i, j = np.divmod(np.arange(start, stop), len(self.rp_values))
        f, r_p = self.f_values[i], self.rp_values[j]
        token, _, basin = classify_regimes(self.model, f=f, r_p=r_p)
        return f, r_p, token, np.ma.masked_invalid(basin)


def _check_cells(what: str, cells: int) -> None:
    """Refuse a job of more than ``MAX_CELLS`` cells, before its arrays are built."""
    if cells > MAX_CELLS:
        raise ValueError(f"{what} asks for {cells} cells, above the limit of {MAX_CELLS}")


def _axis(model: Model, name: str, lo: float, hi: float, steps: int) -> np.ndarray:
    if not _as_real(lo, f"{name} lo") < _as_real(hi, f"{name} hi"):
        raise ValueError(f"{name} bounds must satisfy lo < hi, got [{lo}, {hi}]")
    steps = _as_int(steps, f"{name} steps")
    if steps < 2:
        raise ValueError(f"{name} needs at least 2 steps, got {steps}")
    _check_cells(f"{name} axis", steps)
    # every parameter constraint is an interval, so valid ends make a valid
    # axis; checking the ends here also refuses an infinite end with the
    # record's message, before linspace turns it into NaN cells
    replace(model, **{name: lo})
    replace(model, **{name: hi})
    # near the largest double, (steps - 1) * step may round past it inside
    # linspace, which then sets that last point to hi: no point overflows
    with np.errstate(over="ignore"):
        return np.linspace(lo, hi, steps)


def sweep_root(
    model: Model, parameter: str, lo: float, hi: float, steps: int = DEFAULT_STEPS
) -> SweepResult:
    """The rows of the regime, x* and basin along a 1-D parameter grid, validated."""
    if parameter not in SWEEP_DEFAULTS:
        raise ValueError(f"swept parameter must be {' or '.join(map(repr, SWEEP_DEFAULTS))}, got {parameter!r}")
    values = _axis(model, parameter, lo, hi, steps)
    _check_turns(f"{parameter} sweep", model.n, points=len(values), halvings=BISECTION_STEPS)
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
    """The rows of the regime and basin of full cooperation over an (f, r_p) grid, validated."""
    f_values = _axis(model, "f", f_lo, f_hi, f_steps)
    rp_values = _axis(model, "r_p", rp_lo, rp_hi, rp_steps)
    cells = len(f_values) * len(rp_values)
    _check_cells("(f, r_p) grid", cells)
    _check_turns("(f, r_p) grid", model.n, cells=cells, halvings=BISECTION_STEPS)
    return RegimeGrid(model, f_values, rp_values)
