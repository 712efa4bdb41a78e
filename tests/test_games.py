"""Per-group payoff formulas and parameter invariants."""

import math
from dataclasses import replace

import hypothesis.strategies as st
import pytest
from hypothesis import given

from conftest import bribery_params_strategy, core_params_strategy

from pgg_bribery import (
    BriberyParams,
    CoreParams,
    GroupComposition,
    ParameterError,
    group_payoff,
    payoff_c_bg,
    payoff_c_ipgg,
    payoff_d_bg,
    payoff_d_ipgg,
)
from pgg_bribery.presets import BG_DEFECTOR_BRIBES, IPGG_WEAK_POOL


class TestFrozenValues:
    """Hand-evaluated payoffs, cross-checked by the Monte Carlo oracle
    in test_montecarlo."""

    def test_cooperator_no_punishment(self):
        quiet = replace(IPGG_WEAK_POOL, beta=0.0)
        assert payoff_c_ipgg(quiet, GroupComposition(4, 0)) == pytest.approx(12.0, abs=1e-12)

    def test_cooperator_no_tax(self):
        untaxed = replace(IPGG_WEAK_POOL, tau=0.0)
        assert payoff_c_ipgg(untaxed, GroupComposition(4, 0)) == pytest.approx(13.0, abs=1e-12)

    def test_cooperator_mixed_group(self):
        value = payoff_c_ipgg(IPGG_WEAK_POOL, GroupComposition(2, 2))
        assert value == pytest.approx(10.9667, abs=1e-4)
        assert value == pytest.approx(329 / 30, abs=1e-12)

    def test_defector_no_punishment(self):
        quiet = replace(IPGG_WEAK_POOL, beta=0.0)
        assert payoff_d_ipgg(quiet, GroupComposition(4, 0)) == pytest.approx(12.6, abs=1e-12)

    def test_defector_all_cooperator_co_players(self):
        # n_d = 0: the defector-leader share is off, the cooperator-leader
        # share (denominator n_d + 1 = 1) stays, fine = 0.8 * 0.7 = 0.56
        value = payoff_d_ipgg(IPGG_WEAK_POOL, GroupComposition(4, 0))
        assert value == pytest.approx(12.6 - 0.56, abs=1e-12)

    def test_defector_all_defector_co_players(self):
        assert payoff_d_ipgg(IPGG_WEAK_POOL, GroupComposition(0, 4)) == pytest.approx(10.86, abs=1e-12)

    def test_bribery_cooperator_mixed_group(self):
        # base 10.9, receives 0.264 when leading, pays 0.144, fined 0.28
        value = payoff_c_bg(BG_DEFECTOR_BRIBES, GroupComposition(2, 2))
        assert value == pytest.approx(10.74, abs=1e-12)

    def test_bribery_defector_all_defector_co_players(self):
        value = payoff_d_bg(BG_DEFECTOR_BRIBES, GroupComposition(0, 4))
        assert value == pytest.approx(10.888, abs=1e-12)


class TestReductions:
    @given(core_params_strategy(), st.integers(0, 7))
    def test_no_punishment_closed_forms(self, params, k):
        quiet = replace(params, beta=0.0)
        n_c = k % quiet.n
        comp = GroupComposition(n_c, quiet.n - 1 - n_c)
        pi_c = quiet.b + quiet.f * quiet.c * (n_c + 1) / quiet.n - quiet.c - quiet.tau
        pi_d = quiet.b + quiet.f * quiet.c * n_c / quiet.n - quiet.tau
        assert payoff_c_ipgg(quiet, comp) == pytest.approx(pi_c, abs=1e-12)
        assert payoff_d_ipgg(quiet, comp) == pytest.approx(pi_d, abs=1e-12)

    @given(core_params_strategy(), st.integers(0, 7))
    def test_bare_dilemma_gap(self, params, k):
        quiet = replace(params, beta=0.0)
        n_c = k % quiet.n
        comp = GroupComposition(n_c, quiet.n - 1 - n_c)
        gap = payoff_d_ipgg(quiet, comp) - payoff_c_ipgg(quiet, comp)
        assert gap == pytest.approx(quiet.c - quiet.f * quiet.c / quiet.n, abs=1e-12)
        if quiet.f < quiet.n:
            assert gap > 0

    @given(bribery_params_strategy(), st.integers(0, 7), st.booleans())
    def test_bribery_off_is_bit_identical(self, params, k, zero_gamma):
        off = replace(params, gamma=0.0) if zero_gamma else replace(params, h=0.0)
        n_c = k % params.core.n
        comp = GroupComposition(n_c, params.core.n - 1 - n_c)
        assert payoff_c_bg(off, comp) == payoff_c_ipgg(params.core, comp)
        assert payoff_d_bg(off, comp) == payoff_d_ipgg(params.core, comp)

    @given(bribery_params_strategy(), st.integers(0, 7))
    def test_symmetric_bribes_cancel_in_the_gap(self, params, k):
        symmetric = replace(params, q=params.p)
        n_c = k % params.core.n
        comp = GroupComposition(n_c, params.core.n - 1 - n_c)
        gap_bg = payoff_c_bg(symmetric, comp) - payoff_d_bg(symmetric, comp)
        gap_core = payoff_c_ipgg(params.core, comp) - payoff_d_ipgg(params.core, comp)
        assert gap_bg == pytest.approx(gap_core, abs=1e-12)

    @given(bribery_params_strategy())
    def test_zero_count_compositions_are_finite(self, params):
        n = params.core.n
        for comp in (GroupComposition(0, n - 1), GroupComposition(n - 1, 0)):
            for strategy in ("C", "D"):
                assert math.isfinite(group_payoff(params, strategy, comp))
                assert math.isfinite(group_payoff(params.core, strategy, comp))


class TestInvariants:
    def test_group_size_must_be_at_least_two(self):
        with pytest.raises(ParameterError):
            CoreParams(n=1, b=12, c=1, tau=1, f=2, alpha=0.5, beta=0.2, r_p=1.4)

    def test_cost_must_be_positive(self):
        with pytest.raises(ParameterError):
            CoreParams(n=5, b=12, c=0, tau=1, f=2, alpha=0.5, beta=0.2, r_p=1.4)

    @pytest.mark.parametrize("field,value", [("alpha", 1.2), ("beta", -0.1), ("f", 0.0), ("tau", -1)])
    def test_range_violations(self, field, value):
        with pytest.raises(ParameterError):
            replace(IPGG_WEAK_POOL, **{field: value})

    def test_leader_action_probabilities(self):
        with pytest.raises(ParameterError):
            BriberyParams(replace(IPGG_WEAK_POOL, beta=0.5), h=1, gamma=0.6, p=0.3, q=0.8)

    def test_composition_must_match_group_size(self):
        with pytest.raises(ParameterError):
            payoff_c_ipgg(IPGG_WEAK_POOL, GroupComposition(2, 1))
        with pytest.raises(ParameterError):
            GroupComposition(-1, 5)

    def test_pool_multiplier_warning(self):
        assert replace(IPGG_WEAK_POOL, f=6.0).validation_warnings
        assert BriberyParams(
            replace(IPGG_WEAK_POOL, f=6.0), h=1, gamma=0.3, p=0.1, q=0.2
        ).validation_warnings
        assert not IPGG_WEAK_POOL.validation_warnings

    def test_strategy_dispatch_rejects_unknown(self):
        with pytest.raises(ValueError):
            group_payoff(IPGG_WEAK_POOL, "X", GroupComposition(2, 2))

    def test_params_are_immutable(self):
        with pytest.raises(AttributeError):
            IPGG_WEAK_POOL.f = 3.0
