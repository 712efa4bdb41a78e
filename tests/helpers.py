"""Random-instance helpers for the test suite."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from pgg_bribery import (
    BriberyParams,
    CoreParams,
    KnifeEdgeError,
    RegimeKind,
    classify_regime,
    classify_regimes,
    thresholds,
)


def draw_bistable_instance(rng: np.random.Generator, bribery: bool):
    """Random bistable model with a comfortably interior equilibrium.

    Parameter magnitudes are chosen so the selection gradient is neither
    stiff for a 0.05 integration step nor so weak that convergence to the
    boundaries crawls.
    """
    while True:
        core = CoreParams(
            n=int(rng.integers(4, 7)),
            b=10.0,
            c=rng.uniform(0.6, 1.5),
            tau=rng.uniform(0.7, 1.2),
            f=2.0,
            alpha=rng.uniform(0.15, 0.85),
            beta=rng.uniform(0.25, 0.6),
            r_p=rng.uniform(0.9, 2.0),
        )
        if bribery:
            model = BriberyParams(
                **vars(core),
                h=rng.uniform(0.0, 1.5),
                gamma=rng.uniform(0.0, 1.0 - core.beta),
                p=rng.uniform(0.0, 1.0),
                q=rng.uniform(0.0, 1.0),
            )
        else:
            model = core
        th = thresholds(model)
        f = th.f_min + rng.uniform(0.25, 0.75) * (th.f_max - th.f_min)
        if f <= 0.05:
            continue
        model = replace(model, f=f)
        try:
            regime = classify_regime(model)
        except KnifeEdgeError:
            continue
        if regime.kind is not RegimeKind.BISTABLE:
            continue
        if not 0.05 < regime.x_star < 0.95:
            continue
        return model, regime.x_star


def horner_q(co):
    """Q over ``co`` as a Horner loop, sharing no code with the package's compiled Q.

    Both sums start from their first term and take n - 2 turns of
    ``v * (1.0 + s)``; a float or a numpy array.
    """
    constant, fine_c, fine_d = co.constant, co.fine_c, co.fine_d

    def q(x):
        y = 1.0 - x
        s_c, s_d = y, x
        for _ in range(co.n - 2):
            s_c = y * (1.0 + s_c)
            s_d = x * (1.0 + s_d)
        return constant - fine_c * s_c + fine_d * s_d

    return q


def sweep_regimes(sweep):
    """``classify_regimes`` on every point of a ``sweep_root`` view."""
    return classify_regimes(sweep.model, **{sweep.parameter: sweep.points})


def grid_regimes(grid):
    """``classify_regimes`` on every cell of a ``regime_grid`` view, indexed ``[f][r_p]``."""
    return classify_regimes(grid.model, f=grid.f_values[:, None], r_p=grid.rp_values[None, :])
