"""The regime core against exact rational arithmetic.

Every float parameter is an exact rational, so ``fractions.Fraction``
gives Q, ``f_min`` and ``f_max`` with no rounding at all.  The oracle
takes the thresholds from where the exact Q(1) and Q(0) vanish, not from
the closed threshold formulas, and evaluates Q at the located x*, so it
checks the thresholds, the knife-edge band and the bisection together.
"""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from pgg_bribery import (
    BriberyParams,
    KnifeEdgeError,
    RegimeKind,
    classify_regime,
    classify_regimes,
)
from pgg_bribery.analysis import BISECTION_STEPS, BRACKET, KNIFE_EDGE, KNIFE_EDGE_TOL, ROOT_TOL
from pgg_bribery.montecarlo import RngSeed, generator
from pgg_bribery.presets import BG_DEFECTOR_BRIBES_BASE, IPGG_WEAK_POOL
from pgg_bribery.verify import _draw_model

BAND = Fraction(KNIFE_EDGE_TOL)
STEP = Fraction(ROOT_TOL)
# the float thresholds are within 4 ulps of the exact ones over the drawn models
MARGIN_ULPS = 8


class ExactQ:
    """Q(x) = f c / n - c + offset + P - 2 A - A S(1 - x) + B S(x) in rationals.

    ``P = beta tau r_p``, ``A = alpha P``, ``B = P - A`` and
    ``S(y) = y + ... + y^(n-1)``; Q is linear in f with slope c / n.
    """

    def __init__(self, model):
        self.n = n = model.n
        c, tau, alpha, beta, r_p = map(Fraction, (model.c, model.tau, model.alpha, model.beta, model.r_p))
        offset = Fraction(0)
        if isinstance(model, BriberyParams):
            offset = (n - 1) * Fraction(model.gamma) * Fraction(model.h) * (Fraction(model.q) - Fraction(model.p)) / n
        self.pressure = beta * tau * r_p
        self.fine_c = alpha * self.pressure
        self.fine_d = self.pressure - self.fine_c
        self.f = Fraction(model.f)
        self.per_f = c / n
        self.rest = offset - c + self.pressure - 2 * self.fine_c
        # S(1) = n - 1 and S(0) = 0
        self.f_min = -(self.rest + self.fine_d * (n - 1)) / self.per_f
        self.f_max = -(self.rest - self.fine_c * (n - 1)) / self.per_f

    def _s(self, y):
        total = Fraction(0)
        for _ in range(self.n - 1):
            total = y * (1 + total)
        return total

    def __call__(self, x):
        return self.f * self.per_f + self.rest - self.fine_c * self._s(1 - x) + self.fine_d * self._s(x)

    def token(self):
        """The exact regime token, ``KNIFE_EDGE`` inside the band, None at its edges.

        Within ``MARGIN_ULPS`` of an edge of the band, where rounding of the
        float thresholds may decide, either answer is allowed.
        """
        scale = max(abs(float(self.f_min)), abs(float(self.f_max)), float(self.f), 1.0)
        distance = min(abs(self.f - self.f_min), abs(self.f - self.f_max)) - BAND
        if abs(distance) <= MARGIN_ULPS * Fraction(math.ulp(scale)):
            return None
        if distance < 0:
            return KNIFE_EDGE
        if self.f < self.f_min:
            return RegimeKind.DEFECTION_DOMINANT.value
        if self.f > self.f_max:
            return RegimeKind.COOPERATION_DOMINANT.value
        return RegimeKind.BISTABLE.value

    def brackets(self, x_star: float) -> bool:
        x = Fraction(x_star)
        return self(x - STEP) < 0 < self(x + STEP)


def check(exact: ExactQ, token: str, x_star: float | None) -> str:
    """Assert a float classification against the exact one; returns the case checked."""
    expected = exact.token()
    assert expected in (None, token), (expected, token)
    if token == RegimeKind.BISTABLE.value:
        assert exact.brackets(x_star), x_star
    return "band_edge" if expected is None else token


# offsets from a threshold, in units of KNIFE_EDGE_TOL: on it, inside the
# band, and just inside and just outside each of its edges
PROBES = [Fraction(k) for k in ("0", "1/2", "-1/2", "0.999", "-0.999", "1.001", "-1.001")]


def test_scalar_regimes_equal_the_exact_regimes():
    rng = generator(RngSeed(2024, 1))
    seen = {}
    for i in range(3000):
        model = _draw_model(rng, i)
        models = [model]
        if i % 10 < 2:
            exact = ExactQ(model)
            threshold = exact.f_min if i % 10 == 0 else exact.f_max
            models += [replace(model, f=f) for f in (float(threshold + k * BAND) for k in PROBES) if f > 0.0]
        for probe in models:
            try:
                regime = classify_regime(probe)
            except KnifeEdgeError:
                token, x_star = KNIFE_EDGE, None
            else:
                token, x_star = regime.token, regime.x_star
            case = check(ExactQ(probe), token, x_star)
            seen[case] = seen.get(case, 0) + 1
    assert seen["bistable"] > 1000 and seen["knife_edge"] > 2000 and "band_edge" not in seen, seen


@pytest.mark.parametrize("model", [IPGG_WEAK_POOL, BG_DEFECTOR_BRIBES_BASE])
def test_array_regimes_equal_the_exact_regimes(model):
    rp_values = np.linspace(0.0, 3.0, 13)
    first = ExactQ(replace(model, r_p=float(rp_values[1])))
    edges = [float(threshold + k * BAND) for threshold in (first.f_min, first.f_max) for k in PROBES]
    f_values = np.array(sorted(set(np.linspace(0.5, 12.0, 24)) | set(edges)))
    regimes = classify_regimes(model, f=f_values[:, None], r_p=rp_values[None, :])
    seen = set()
    for i, f in enumerate(f_values):
        for j, r_p in enumerate(rp_values):
            cell = replace(model, r_p=float(r_p), f=float(f))
            seen.add(check(ExactQ(cell), str(regimes.token[i, j]), float(regimes.x_star[i, j])))
    assert seen == {KNIFE_EDGE, *(kind.value for kind in RegimeKind)}


@pytest.mark.parametrize("q_sign", [-1.0, 1.0])
def test_fixed_step_count_is_where_a_width_test_stops(q_sign):
    # Q below zero everywhere moves only lo, above zero only hi
    lo, hi = BRACKET
    steps = 0
    while hi - lo > ROOT_TOL:
        mid = 0.5 * (lo + hi)
        if q_sign < 0.0:
            lo = mid
        else:
            hi = mid
        steps += 1
    assert steps == BISECTION_STEPS
