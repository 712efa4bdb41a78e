"""Closed-form averages, the selection polynomial, thresholds and regimes."""

from dataclasses import replace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, example, given, settings

from conftest import bribery_params_strategy, model_strategy

from pgg_bribery import (
    BriberyParams,
    CoreParams,
    KnifeEdgeError,
    RegimeKind,
    avg_payoff,
    binomial_avg_payoff,
    bribery_offset,
    classify_regime,
    core_of,
    gradient_of_selection,
    group_payoff,
    GroupComposition,
    interior_root,
    q_function,
    stability_at,
    thresholds,
    with_parameter,
)
from pgg_bribery.presets import (
    BG_COOP_BRIBES,
    BG_DEFECTOR_BRIBES,
    BG_STRONG_LEADER,
    IPGG_BISTABLE,
    IPGG_RICH_POOL,
    IPGG_WEAK_POOL,
)


class TestAveragePayoffs:
    def test_all_cooperators_boundary(self):
        # b + f*c - c - tau - beta*alpha*tau*r_p with the (1-x) sums gone
        assert avg_payoff(IPGG_BISTABLE, 1.0, "C") == pytest.approx(12.8, abs=1e-12)

    def test_all_defectors_boundary(self):
        assert avg_payoff(IPGG_BISTABLE, 0.0, "D") == pytest.approx(10.8, abs=1e-12)

    def test_matches_binomial_oracle_at_interior_point(self):
        for strategy in ("C", "D"):
            closed = avg_payoff(IPGG_WEAK_POOL, 0.3, strategy)
            oracle = binomial_avg_payoff(IPGG_WEAK_POOL, 0.3, strategy)
            assert abs(closed - oracle) < 1e-10

    def test_binomial_degenerates_to_corner_payoffs(self):
        n = core_of(BG_DEFECTOR_BRIBES).n
        assert binomial_avg_payoff(BG_DEFECTOR_BRIBES, 0.0, "C") == pytest.approx(
            group_payoff(BG_DEFECTOR_BRIBES, "C", GroupComposition(0, n - 1)), abs=1e-12
        )
        assert binomial_avg_payoff(BG_DEFECTOR_BRIBES, 1.0, "D") == pytest.approx(
            group_payoff(BG_DEFECTOR_BRIBES, "D", GroupComposition(n - 1, 0)), abs=1e-12
        )

    @settings(deadline=None)
    @given(model_strategy(), st.floats(0.0, 1.0), st.sampled_from(["C", "D"]))
    def test_closed_form_equals_binomial_everywhere(self, model, x, strategy):
        assert abs(avg_payoff(model, x, strategy) - binomial_avg_payoff(model, x, strategy)) < 1e-10

    @pytest.mark.parametrize("x", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("model", [IPGG_BISTABLE, BG_DEFECTOR_BRIBES], ids=["ipgg", "bg"])
    def test_binomial_oracle_survives_coefficients_beyond_a_float(self, model, x):
        # comb(1099, 549) is about 2**1095, past the largest double
        if isinstance(model, BriberyParams):
            large = replace(model, core=replace(model.core, n=1100))
        else:
            large = replace(model, n=1100)
        for strategy in ("C", "D"):
            oracle = binomial_avg_payoff(large, x, strategy)
            assert abs(oracle - avg_payoff(large, x, strategy)) < 1e-10

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            avg_payoff(IPGG_WEAK_POOL, 1.2, "C")
        with pytest.raises(ValueError):
            binomial_avg_payoff(IPGG_WEAK_POOL, -0.1, "D")


class TestSelectionPolynomial:
    def test_balanced_fines_cancel_at_half(self):
        # alpha = 0.5 makes both fine scales equal; the two sums coincide
        # at x = 0.5, leaving the constant part f*c/n - c = -0.4
        assert q_function(IPGG_BISTABLE, 0.5) == pytest.approx(-0.4, abs=1e-12)

    def test_interior_value(self):
        assert q_function(IPGG_BISTABLE, 0.9) == pytest.approx(0.1968, abs=1e-12)

    def test_gradient_values(self):
        assert gradient_of_selection(IPGG_BISTABLE, 0.0) == 0.0
        assert gradient_of_selection(IPGG_BISTABLE, 1.0) == 0.0
        expected = 0.9 * 0.1 * q_function(IPGG_BISTABLE, 0.9)
        assert gradient_of_selection(IPGG_BISTABLE, 0.9) == pytest.approx(expected, abs=1e-15)
        assert gradient_of_selection(IPGG_BISTABLE, 0.9) == pytest.approx(0.0177, abs=1e-3)

    def test_bribery_off_matches_core_polynomial(self):
        off = replace(BG_DEFECTOR_BRIBES, gamma=0.0)
        for x in np.linspace(0.0, 1.0, 11):
            assert q_function(off, float(x)) == q_function(BG_DEFECTOR_BRIBES.core, float(x))

    def test_constant_offset_between_variants(self):
        assert bribery_offset(BG_DEFECTOR_BRIBES) == pytest.approx(0.24, abs=1e-15)
        for x in np.linspace(0.0, 1.0, 11):
            delta = q_function(BG_DEFECTOR_BRIBES, float(x)) - q_function(
                BG_DEFECTOR_BRIBES.core, float(x)
            )
            assert delta == pytest.approx(0.24, abs=1e-12)

    @settings(deadline=None)
    @given(bribery_params_strategy(), st.floats(0.0, 1.0))
    def test_offset_identity(self, params, x):
        delta = q_function(params, x) - q_function(params.core, x)
        assert abs(delta - bribery_offset(params)) < 1e-12

    @settings(deadline=None)
    @given(model_strategy(min_beta=0.05, min_rp=0.1), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_strictly_increasing(self, model, x1, x2):
        assume(abs(x2 - x1) > 1e-6)
        lo, hi = sorted((x1, x2))
        assert q_function(model, lo) < q_function(model, hi)

    @given(model_strategy(), st.floats(0.0, 1.0), st.floats(0.1, 20.0))
    def test_endowment_never_enters(self, model, x, b):
        if isinstance(model, BriberyParams):
            shifted = replace(model, core=replace(model.core, b=b))
        else:
            shifted = replace(model, b=b)
        assert q_function(shifted, x) == q_function(model, x)


class TestThresholds:
    @pytest.mark.parametrize(
        "model,f_min,f_max",
        [
            (IPGG_WEAK_POOL, 2.2, 7.8),
            (IPGG_BISTABLE, 1.0, 9.0),
            (BG_DEFECTOR_BRIBES, 1.84, 7.44),
        ],
    )
    def test_known_pairs(self, model, f_min, f_max):
        th = thresholds(model)
        assert th.f_min == pytest.approx(f_min, abs=1e-9)
        assert th.f_max == pytest.approx(f_max, abs=1e-9)

    def test_strong_pool_upper_threshold(self):
        assert thresholds(IPGG_RICH_POOL).f_max == pytest.approx(4.6, abs=1e-9)
        assert thresholds(BG_STRONG_LEADER).f_max == pytest.approx(3.4, abs=1e-9)

    @settings(deadline=None)
    @given(model_strategy())
    def test_gap_identity(self, model):
        core = core_of(model)
        th = thresholds(model)
        expected = core.n * (core.n - 1) * core.beta * core.tau * core.r_p / core.c
        assert abs(th.f_max - th.f_min - expected) < 1e-12
        assert th.f_min <= th.f_max


class TestRegimes:
    def test_three_ipgg_regimes(self):
        assert classify_regime(IPGG_WEAK_POOL).kind is RegimeKind.DEFECTION_DOMINANT
        assert classify_regime(IPGG_BISTABLE).kind is RegimeKind.BISTABLE
        assert classify_regime(IPGG_RICH_POOL).kind is RegimeKind.COOPERATION_DOMINANT

    def test_three_bribery_regimes(self):
        assert classify_regime(BG_DEFECTOR_BRIBES).kind is RegimeKind.DEFECTION_DOMINANT
        assert classify_regime(BG_COOP_BRIBES).kind is RegimeKind.BISTABLE
        assert classify_regime(BG_STRONG_LEADER).kind is RegimeKind.COOPERATION_DOMINANT

    def test_stability_labels(self):
        weak = classify_regime(IPGG_WEAK_POOL)
        assert weak.stable_at_zero and not weak.stable_at_one
        mid = classify_regime(IPGG_BISTABLE)
        assert mid.stable_at_zero and mid.stable_at_one
        strong = classify_regime(IPGG_RICH_POOL)
        assert not strong.stable_at_zero and strong.stable_at_one

    def test_knife_edge_is_reported_not_binned(self):
        th = thresholds(IPGG_WEAK_POOL)
        for boundary in (th.f_min, th.f_max, th.f_max + 5e-10):
            with pytest.raises(KnifeEdgeError):
                classify_regime(with_parameter(IPGG_WEAK_POOL, "f", boundary))
        classify_regime(with_parameter(IPGG_WEAK_POOL, "f", th.f_min + 1e-6))

    def test_degenerate_punishment_is_flagged(self):
        inert = replace(IPGG_WEAK_POOL, beta=0.0)
        regime = classify_regime(inert)
        assert regime.degenerate and regime.kind is RegimeKind.DEFECTION_DOMINANT
        rich = replace(inert, f=6.0)
        regime = classify_regime(rich)
        assert regime.degenerate and regime.kind is RegimeKind.COOPERATION_DOMINANT
        with pytest.raises(KnifeEdgeError):
            classify_regime(replace(inert, f=5.0))  # collapsed thresholds sit at n

    @settings(deadline=None, max_examples=300)
    @given(model_strategy())
    def test_classification_agrees_with_polynomial_signs(self, model):
        try:
            regime = classify_regime(model)
        except KnifeEdgeError:
            return
        q0, q1 = q_function(model, 0.0), q_function(model, 1.0)
        if regime.kind is RegimeKind.DEFECTION_DOMINANT:
            assert q1 < 0
        elif regime.kind is RegimeKind.COOPERATION_DOMINANT:
            assert q0 > 0
        else:
            assert q0 < 0 < q1


class TestInteriorRoot:
    def test_bistable_root_bracket(self):
        x_star = interior_root(IPGG_BISTABLE)
        assert 0.78 < x_star < 0.79
        assert q_function(IPGG_BISTABLE, 0.78) < 0 < q_function(IPGG_BISTABLE, 0.79)

    def test_root_changes_sign(self):
        for model in (IPGG_BISTABLE, BG_COOP_BRIBES):
            x_star = interior_root(model)
            assert q_function(model, x_star - 1e-6) < 0 < q_function(model, x_star + 1e-6)

    def test_regime_carries_the_same_root(self):
        regime = classify_regime(IPGG_BISTABLE)
        assert regime.x_star == pytest.approx(interior_root(IPGG_BISTABLE), abs=1e-12)

    def test_requires_bistability(self):
        with pytest.raises(ValueError, match="bistable"):
            interior_root(IPGG_WEAK_POOL)
        with pytest.raises(ValueError, match="bistable"):
            interior_root(IPGG_RICH_POOL)


class TestStability:
    def test_defection_dominant_labels(self):
        assert stability_at(IPGG_WEAK_POOL, 0.0) is True
        assert stability_at(IPGG_WEAK_POOL, 1.0) is False

    def test_bistable_labels(self):
        assert stability_at(IPGG_BISTABLE, 0.0) is True
        assert stability_at(IPGG_BISTABLE, 1.0) is True
        assert stability_at(IPGG_BISTABLE, interior_root(IPGG_BISTABLE)) is False

    def test_cooperation_dominant_labels(self):
        assert stability_at(IPGG_RICH_POOL, 0.0) is False
        assert stability_at(IPGG_RICH_POOL, 1.0) is True

    def test_rejects_non_equilibria(self):
        with pytest.raises(ValueError, match="not an equilibrium"):
            stability_at(IPGG_BISTABLE, 0.5)

    @settings(deadline=None, max_examples=300)
    @given(model_strategy())
    # x* located to ROOT_TOL leaves G(x*) = -1.03e-12 at a slope of 2.68
    @example(CoreParams(n=6, b=0.0, c=2.0, tau=1.5, f=3.0, alpha=0.5, beta=1.0, r_p=2.0))
    def test_derivative_agrees_with_the_regime_labels(self, model):
        # stability_at is the one derivative-based check of Regime.stable_at_zero/one
        try:
            regime = classify_regime(model)
        except KnifeEdgeError:
            return
        assert stability_at(model, 0.0) is regime.stable_at_zero
        assert stability_at(model, 1.0) is regime.stable_at_one
        if regime.kind is RegimeKind.BISTABLE:
            assert stability_at(model, regime.x_star) is False
