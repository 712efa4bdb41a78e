"""Numerical integration of the replicator equation and basin sizes.

The dynamics are one-dimensional and smooth, so a classical fixed-step
4th-order Runge-Kutta scheme is enough.  Each stage calls one closure,
``analysis._g_of``, which evaluates G(x) = x(1-x)Q(x) in a single frame.
Every state is recorded in one ``array('d')``, 8 bytes per step.  A step
that leaves [0, 1] is refused: clamped, it would report a wrong equilibrium.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .analysis import RegimeKind, _finite_coefficients, _g_of, classify_regime, interior_root
from .games import Model

__all__ = ["Trajectory", "integrate", "basin_of_cooperation"]

DEFAULT_STEP = 0.01
DEFAULT_T_MAX = 1e4
DEFAULT_CONV_TOL = 1e-10
MAX_STEPS = 10**8  # bound on t_max / step, so every accepted run ends


@dataclass
class Trajectory:
    """Time series of the cooperator fraction under the dynamics."""

    times: np.ndarray
    states: np.ndarray
    converged_to: float | None
    step_size: float

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)

    @property
    def final_state(self) -> float:
        return float(self.states[-1])


def _equilibria(model: Model) -> list[float]:
    try:
        return [0.0, 1.0, interior_root(model)]
    except ValueError:  # not bistable, or on a knife edge; the thresholds are finite
        return [0.0, 1.0]


def integrate(
    model: Model,
    x0: float,
    step: float = DEFAULT_STEP,
    t_max: float = DEFAULT_T_MAX,
    conv_tol: float = DEFAULT_CONV_TOL,
) -> Trajectory:
    """Integrate dx/dt = x(1-x)Q(x) from ``x0`` with fixed step ``step``.

    Stops early once |G(x)| < ``conv_tol`` and labels ``converged_to``
    with the nearest equilibrium among {0, x*, 1}; ``converged_to`` is
    None when ``t_max`` is exhausted first.  Every step is recorded, at
    time ``k * step``.  Each step reuses the G(x) of the convergence test
    as its k1, so it costs four evaluations of G.  Raises ``ValueError``
    when ``t_max / step`` exceeds ``MAX_STEPS``, and when a step leaves
    [0, 1] (or gives NaN), naming the step and its time.
    """
    if not 0 <= x0 <= 1:
        raise ValueError(f"x0 must be in [0, 1], got {x0}")
    if not step > 0:
        raise ValueError(f"step must be > 0, got {step}")
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be finite and > 0, got {t_max}")
    if t_max / step > MAX_STEPS:
        raise ValueError(f"t_max/step = {t_max / step:g} exceeds the limit of {MAX_STEPS} steps")
    if not conv_tol > 0:
        raise ValueError(f"conv_tol must be > 0, got {conv_tol}")

    g = _g_of(_finite_coefficients(model))
    x = float(x0)
    states = array("d", [x])
    k1 = g(x)
    converged = abs(k1) < conv_tol
    max_steps = math.ceil(t_max / step)
    half_step = 0.5 * step  # 0.5 * step * k is (0.5 * step) * k
    while not converged and len(states) <= max_steps:  # states holds x0 and one state per step
        k2 = g(x + half_step * k1)
        k3 = g(x + half_step * k2)
        k4 = g(x + step * k3)
        x += step * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"step {len(states)} (t = {len(states) * step:g}) left [0, 1]: x = {x!r}")
        states.append(x)
        k1 = g(x)
        converged = abs(k1) < conv_tol

    converged_to = None
    if converged:
        converged_to = min(_equilibria(model), key=lambda e: abs(e - x))
    return Trajectory(np.arange(len(states)) * step, states, converged_to, step)


def basin_of_cooperation(model: Model) -> float:
    """Measure of initial states attracted to full cooperation.

    0 when defection dominates, 1 - x* in the bistable regime (the
    interior equilibrium separates the two basins), 1 when cooperation
    dominates.  Knife-edge classification errors propagate.
    """
    regime = classify_regime(model)
    if regime.kind is RegimeKind.DEFECTION_DOMINANT:
        return 0.0
    if regime.kind is RegimeKind.COOPERATION_DOMINANT:
        return 1.0
    return 1.0 - regime.x_star
