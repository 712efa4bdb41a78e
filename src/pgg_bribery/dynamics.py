"""Numerical integration of the replicator equation and basin sizes.

The dynamics are one-dimensional and smooth, so a classical fixed-step
4th-order Runge-Kutta scheme is enough.  The RK4 loop is compiled once
per group size from Q's text, ``analysis.q_text``: each stage evaluates
G(x) = x(1-x)Q(x) at its own point inline, with the operations of
``x * (1.0 - x) * q(x)`` and no Python call.  Every state is recorded in
one ``array('d')``, 8 bytes per step.  A step that leaves [0, 1] is
refused: clamped, it would report a wrong equilibrium.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .analysis import MAX_TURNS, SCALAR_TURN, _check_x, classify_regime, coefficients, interior_root, q_callable, q_text
from .games import Model, _as_real

__all__ = ["Trajectory", "integrate", "basin_of_cooperation"]

DEFAULT_STEP = 0.01
DEFAULT_T_MAX = 1e4
DEFAULT_CONV_TOL = 1e-10
MAX_STEPS = 10**7  # bound on t_max / step: a run at the cap records ~160 MB of times and states


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


def _check_controls(step, t_max, conv_tol) -> None:
    """The one rule of the integration controls, which ``RunConfig`` calls too: each real, finite and > 0."""
    for key, value in (("step", step), ("t_max", t_max), ("conv_tol", conv_tol)):
        if not 0 < _as_real(value, key) < math.inf:
            raise ValueError(f"{key} must be finite and > 0, got {value}")


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
    when ``x0`` is not a real number in [0, 1], when ``step``, ``t_max`` or
    ``conv_tol`` is not one, finite and > 0 (:func:`_check_controls`), when
    ``t_max / step`` exceeds ``MAX_STEPS``, when the run has not
    converged once its steps reach the work budget ``analysis.MAX_TURNS``
    (see :func:`budget_steps`), and when a step leaves [0, 1] (or gives
    NaN), naming the step and its time, and the overflow if x is not finite.
    """
    _check_x(x0, "x0", scalar=True)
    _check_controls(step, t_max, conv_tol)
    if t_max / step > MAX_STEPS:
        raise ValueError(f"t_max/step = {t_max / step:g} exceeds the limit of {MAX_STEPS} steps")
    max_steps = math.ceil(t_max / step)
    # the budget charges the steps run, not those t_max allows: most runs converge long before
    last_step = min(max_steps, budget_steps(model.n))

    x = float(x0)
    states = array("d", [x])
    k1 = x * (1.0 - x) * q_callable(model)(x)
    if not abs(k1) < conv_tol:  # the loop is compiled only for a run that takes a step
        co, rk4 = coefficients(model), _rk4_loop(model.n)
        x, k1 = rk4(x, k1, step, 0.5 * step, conv_tol, last_step, states.append, co.constant, co.fine_c, co.fine_d)
    if not 0.0 <= x <= 1.0:
        cause = "" if math.isfinite(x) else ": the step overflows double precision"
        raise ValueError(f"step {len(states)} (t = {len(states) * step:g}) left [0, 1]: x = {x!r}{cause}")
    converged = abs(k1) < conv_tol
    if not converged and last_step < max_steps:
        raise ValueError(
            f"integrate has not converged after {len(states) - 1} steps (n - 1 = {model.n - 1}, scalar_turn = "
            f"{SCALAR_TURN}, evaluations_per_step = 4), the most the work budget of {MAX_TURNS} Horner turns "
            f"allows; t_max/step asks for {max_steps}"
        )

    converged_to = None
    if converged:
        converged_to = min(_equilibria(model), key=lambda e: abs(e - x))
    return Trajectory(np.arange(len(states)) * step, states, converged_to, step)


_RK4 = """def rk4(x, k1, step, half_step, conv_tol, steps, append, constant, fine_c, fine_d):
    for _ in range(steps):
        s = x + half_step * k1
{k2}
        s = x + half_step * k2
{k3}
        s = x + step * k3
{k4}
        x += step * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        if not 0.0 <= x <= 1.0:
            break
        append(x)
{k1}
        if abs(k1) < conv_tol:
            break
    return x, k1
"""


@lru_cache(maxsize=4)
def _rk4_loop(n: int):
    """The RK4 loop at group size ``n``, compiled once: at most ``steps`` steps, each state appended.

    Returns the last x and its G, or the first x outside [0, 1] (not appended) and the G before it.
    """
    stages = {}
    for k, at in (("k2", "s"), ("k3", "s"), ("k4", "s"), ("k1", "x")):
        lines, expr = q_text(n, at)  # s * (1.0 - s) * q(s) is (s * y) * Q, as Q's first statement is y = 1.0 - s
        stages[k] = "\n".join(8 * " " + line for line in [*lines, f"{k} = {at} * y * ({expr})"])
    namespace: dict = {}
    exec(_RK4.format(**stages), namespace)
    return namespace["rk4"]


def budget_steps(n: int) -> int:
    """The most RK4 steps :func:`integrate` runs at group size ``n`` within ``analysis.MAX_TURNS``.

    A step is 4 evaluations of G, each n - 1 Horner turns on Python floats
    that weigh ``analysis.SCALAR_TURN`` array-lane turns.  At n <= 6 it is
    at least ``MAX_STEPS``, so the budget binds from n = 7 on.
    """
    return MAX_TURNS // (4 * (n - 1) * SCALAR_TURN)


def basin_of_cooperation(model: Model) -> float:
    """Measure of initial states attracted to full cooperation: ``classify_regime(model).basin``.

    Knife-edge classification errors propagate.
    """
    return classify_regime(model).basin
