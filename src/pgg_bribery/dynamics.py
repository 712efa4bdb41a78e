"""Numerical integration of the replicator equation and basin sizes.

The dynamics are one-dimensional and smooth, so a classical fixed-step
4th-order Runge-Kutta scheme is enough.  Each stage calls one closure,
``analysis._g_of``, which evaluates G(x) = x(1-x)Q(x) in a single frame.
Each accepted state is clamped to [0, 1] because the gradient vanishes
only quadratically at the boundaries and a step can overshoot.  The clamp
is a branch, ``0.0 if not x > 0.0 else 1.0 if x > 1.0 else x``: it
gives the bits of ``min(1.0, max(0.0, x))`` for every double, -0.0 and
NaN included (both give +0.0), without two builtin calls per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import KnifeEdgeError, RegimeKind, _finite_coefficients, _g_of, classify_regime
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
    points = [0.0, 1.0]
    try:
        regime = classify_regime(model)
    except KnifeEdgeError:
        return points
    if regime.kind is RegimeKind.BISTABLE:
        points.append(regime.x_star)
    return points


def integrate(
    model: Model,
    x0: float,
    step: float = DEFAULT_STEP,
    t_max: float = DEFAULT_T_MAX,
    conv_tol: float = DEFAULT_CONV_TOL,
    record_every: int = 1,
) -> Trajectory:
    """Integrate dx/dt = x(1-x)Q(x) from ``x0`` with fixed step ``step``.

    Stops early once |G(x)| < ``conv_tol`` and labels ``converged_to``
    with the nearest equilibrium among {0, x*, 1}; ``converged_to`` is
    None when ``t_max`` is exhausted first.  ``record_every`` thins the
    stored series without affecting the integration itself.  Each step
    reuses the G(x) of the convergence test as its k1, so it costs four
    evaluations of G.  Raises ``ValueError`` when ``t_max / step`` exceeds
    ``MAX_STEPS``.
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
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")

    g = _g_of(_finite_coefficients(model))
    x = float(x0)
    times = [0.0]
    states = [x]
    k1 = g(x)
    converged = abs(k1) < conv_tol
    max_steps = math.ceil(t_max / step)
    half_step = 0.5 * step  # 0.5 * step * k is (0.5 * step) * k
    steps_taken = 0
    while not converged and steps_taken < max_steps:
        k2 = g(x + half_step * k1)
        k3 = g(x + half_step * k2)
        k4 = g(x + step * k3)
        x += step * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        x = 0.0 if not x > 0.0 else 1.0 if x > 1.0 else x
        steps_taken += 1
        if steps_taken % record_every == 0:
            times.append(steps_taken * step)
            states.append(x)
        k1 = g(x)
        converged = abs(k1) < conv_tol
    if times[-1] != steps_taken * step:
        times.append(steps_taken * step)
        states.append(x)

    converged_to = None
    if converged:
        converged_to = min(_equilibria(model), key=lambda e: abs(e - x))
    return Trajectory(times, states, converged_to, step)


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
