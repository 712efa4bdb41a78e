"""RK4 observed order against an independent oracle: the elapsed time of the exact flow.

The exact flow of dx/dt = G(x) takes T(a, b) = integral from a to b of
dx / G(x) to go from a to b.  A run with step h reaches x_k at time k h,
so T(x_0, x_k) - k h is its error in time, computed by Gauss-Legendre
quadrature from Q alone, without the integrator.  Halving h divides a
4th-order error by 16, an observed order log2(e(h) / e(h/2)) of 4.
"""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from pgg_bribery import RegimeKind, classify_regime, integrate, q_function
from pgg_bribery.dynamics import DEFAULT_STEP
from pgg_bribery.presets import REGIMES

NODES, WEIGHTS = leggauss(64)
T = 2.0  # every run below stays well inside (0, 1) up to this time
STEPS = (0.2, 0.1, 0.05, 0.025)  # each against its half


def time_error(model, x0, step):
    """max over k h <= T of |T(x_0, x_k) - k h|, by 64-point Gauss-Legendre quadrature on each step.

    1 / G is evaluated with ``q_function`` alone; G has no zero between
    two states of these runs.
    """
    trajectory = integrate(model, x0, step=step, t_max=T, conv_tol=1e-300)
    x = trajectory.states[: round(T / step) + 1]
    a, b = x[:-1, None], x[1:, None]
    nodes = (a + b) / 2 + (b - a) / 2 * NODES
    elapsed = np.cumsum((b - a)[:, 0] / 2 * ((1.0 / (nodes * (1.0 - nodes) * q_function(model, nodes))) @ WEIGHTS))
    return float(np.abs(elapsed - trajectory.times[1 : len(x)]).max())


def starts():
    """Each preset from 0.5, or from both sides of x* where there is one."""
    for name, model in sorted(REGIMES.items()):
        regime = classify_regime(model)
        if regime.kind is RegimeKind.BISTABLE:
            yield name, model, regime.x_star / 2
            yield name, model, (1.0 + regime.x_star) / 2
        else:
            yield name, model, 0.5


STARTS = list(starts())
IDS = [f"{name}-x0={x0:.3f}" for name, _, x0 in STARTS]


@pytest.mark.parametrize("name,model,x0", STARTS, ids=IDS)
def test_observed_order_is_four(name, model, x0):
    for step in STEPS:
        order = math.log2(time_error(model, x0, step) / time_error(model, x0, step / 2))
        assert 3.5 <= order <= 4.5, (step, order)


@pytest.mark.parametrize("name,model,x0", STARTS, ids=IDS)
def test_time_error_at_the_default_step(name, model, x0):
    # at the default step 0.01 the largest error over these runs is ~5e-9
    # (bg_rich_pool, where x nears 1 by t = 2): the bound leaves a factor 2
    assert time_error(model, x0, DEFAULT_STEP) < 1e-8
