"""Per-group payoff formulas and parameter invariants."""

import hashlib
import importlib
import math
import pkgutil
from dataclasses import fields, replace
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from conftest import bribery_params_strategy, core_params_strategy

import pgg_bribery
from pgg_bribery import (
    BriberyParams,
    CoreParams,
    GroupComposition,
    ParameterError,
    RngSeed,
    avg_payoff,
    estimate_avg_payoff,
    estimate_expected_payoff,
    group_payoff,
    realize_event,
)
from pgg_bribery.games import BRIBERY_FIELDS, CORE_FIELDS, MAX_N
from pgg_bribery.montecarlo import generator
from pgg_bribery.presets import BG_DEFECTOR_BRIBES, IPGG_WEAK_POOL, REGIMES


class TestFrozenValues:
    """Hand-evaluated payoffs, cross-checked by the Monte Carlo oracle
    in test_montecarlo."""

    def test_cooperator_no_punishment(self):
        quiet = replace(IPGG_WEAK_POOL, beta=0.0)
        assert group_payoff(quiet, "C", GroupComposition(4, 0)) == pytest.approx(12.0, abs=1e-12)

    def test_cooperator_no_tax(self):
        untaxed = replace(IPGG_WEAK_POOL, tau=0.0)
        assert group_payoff(untaxed, "C", GroupComposition(4, 0)) == pytest.approx(13.0, abs=1e-12)

    def test_cooperator_mixed_group(self):
        value = group_payoff(IPGG_WEAK_POOL, "C", GroupComposition(2, 2))
        assert value == pytest.approx(10.9667, abs=1e-4)
        assert value == pytest.approx(329 / 30, abs=1e-12)

    def test_defector_no_punishment(self):
        quiet = replace(IPGG_WEAK_POOL, beta=0.0)
        assert group_payoff(quiet, "D", GroupComposition(4, 0)) == pytest.approx(12.6, abs=1e-12)

    def test_defector_all_cooperator_co_players(self):
        # n_d = 0: the defector-leader share is off, the cooperator-leader
        # share (denominator n_d + 1 = 1) stays, fine = 0.8 * 0.7 = 0.56
        value = group_payoff(IPGG_WEAK_POOL, "D", GroupComposition(4, 0))
        assert value == pytest.approx(12.6 - 0.56, abs=1e-12)

    def test_defector_all_defector_co_players(self):
        assert group_payoff(IPGG_WEAK_POOL, "D", GroupComposition(0, 4)) == pytest.approx(10.86, abs=1e-12)

    def test_bribery_cooperator_mixed_group(self):
        # base 10.9, receives 0.264 when leading, pays 0.144, fined 0.28
        value = group_payoff(BG_DEFECTOR_BRIBES, "C", GroupComposition(2, 2))
        assert value == pytest.approx(10.74, abs=1e-12)

    def test_bribery_defector_all_defector_co_players(self):
        value = group_payoff(BG_DEFECTOR_BRIBES, "D", GroupComposition(0, 4))
        assert value == pytest.approx(10.888, abs=1e-12)


class TestPinnedValues:
    """The exact doubles of every preset regime model, both strategies, every
    composition, recorded before the four per-strategy, per-game payoff
    functions became one body."""

    DIGEST = "a431e2516f2f1a4487b6c55f5c6fce1e91639f6c5b5100b9683c339ce1a766b8"

    def test_preset_payoffs_are_bit_identical(self):
        values = [
            group_payoff(model, strategy, GroupComposition(n_c, 4 - n_c)).hex()
            for model in REGIMES.values()
            for n_c in range(5)
            for strategy in "CD"
        ]
        assert len(values) == 60
        assert hashlib.sha256(" ".join(values).encode()).hexdigest() == self.DIGEST


class TestReductions:
    @given(core_params_strategy(), st.integers(0, 7))
    def test_no_punishment_closed_forms(self, params, k):
        quiet = replace(params, beta=0.0)
        n_c = k % quiet.n
        comp = GroupComposition(n_c, quiet.n - 1 - n_c)
        pi_c = quiet.b + quiet.f * quiet.c * (n_c + 1) / quiet.n - quiet.c - quiet.tau
        pi_d = quiet.b + quiet.f * quiet.c * n_c / quiet.n - quiet.tau
        assert group_payoff(quiet, "C", comp) == pytest.approx(pi_c, abs=1e-12)
        assert group_payoff(quiet, "D", comp) == pytest.approx(pi_d, abs=1e-12)

    @given(core_params_strategy(), st.integers(0, 7))
    # f within an ulp of n: the exact gap, 1.1e-16, is below the payoffs' rounding, and gap is 0.0
    @example(CoreParams(n=3, b=0.0, c=1.0, tau=1.0, f=2.9999999999999996, alpha=0.5, beta=0.0, r_p=1.0), 0)
    def test_bare_dilemma_gap(self, params, k):
        quiet = replace(params, beta=0.0)
        n_c = k % quiet.n
        comp = GroupComposition(n_c, quiet.n - 1 - n_c)
        gap = group_payoff(quiet, "D", comp) - group_payoff(quiet, "C", comp)
        assert gap == pytest.approx(quiet.c - quiet.f * quiet.c / quiet.n, abs=1e-12)
        exact = Fraction(quiet.c) - Fraction(quiet.f) * Fraction(quiet.c) / quiet.n
        # a payoff takes at most six rounded steps over b, f c (n_c + 1) / n, c and tau: it is within
        # 6 u S of exact, S their sum and u = 2**-53, so the gap is within 12 u S < 16 ulp(S)
        if exact > 16 * math.ulp(quiet.b + quiet.f * quiet.c + quiet.c + quiet.tau):
            assert gap > 0

    @given(bribery_params_strategy(), st.integers(0, 7), st.booleans())
    def test_bribery_off_is_bit_identical(self, params, k, zero_gamma):
        off = replace(params, gamma=0.0) if zero_gamma else replace(params, h=0.0)
        n_c = k % params.n
        comp = GroupComposition(n_c, params.n - 1 - n_c)
        assert group_payoff(off, "C", comp) == group_payoff(params.core, "C", comp)
        assert group_payoff(off, "D", comp) == group_payoff(params.core, "D", comp)

    @given(bribery_params_strategy(), st.integers(0, 7))
    def test_symmetric_bribes_cancel_in_the_gap(self, params, k):
        symmetric = replace(params, q=params.p)
        n_c = k % params.n
        comp = GroupComposition(n_c, params.n - 1 - n_c)
        gap_bg = group_payoff(symmetric, "C", comp) - group_payoff(symmetric, "D", comp)
        gap_core = group_payoff(params.core, "C", comp) - group_payoff(params.core, "D", comp)
        assert gap_bg == pytest.approx(gap_core, abs=1e-12)

    @given(bribery_params_strategy())
    def test_zero_count_compositions_are_finite(self, params):
        n = params.n
        for comp in (GroupComposition(0, n - 1), GroupComposition(n - 1, 0)):
            for strategy in ("C", "D"):
                assert math.isfinite(group_payoff(params, strategy, comp))
                assert math.isfinite(group_payoff(params.core, strategy, comp))


class TestInvariants:
    def test_group_size_must_be_at_least_two(self):
        with pytest.raises(ParameterError):
            CoreParams(n=1, b=12, c=1, tau=1, f=2, alpha=0.5, beta=0.2, r_p=1.4)

    def test_group_size_is_at_most_max_n(self):
        from pgg_bribery.games import MAX_N  # imported here: a tree without the cap fails at once

        assert MAX_N > 3000  # the largest group the tests sample
        assert replace(IPGG_WEAK_POOL, n=MAX_N).n == MAX_N
        for n in (MAX_N + 1, 10**18):
            with pytest.raises(ParameterError, match=f"n must be <= MAX_N = {MAX_N}, got {n}"):
                replace(IPGG_WEAK_POOL, n=n)

    def test_cost_must_be_positive(self):
        with pytest.raises(ParameterError):
            CoreParams(n=5, b=12, c=0, tau=1, f=2, alpha=0.5, beta=0.2, r_p=1.4)

    @pytest.mark.parametrize("field,value", [("alpha", 1.2), ("beta", -0.1), ("f", 0.0), ("tau", -1)])
    def test_range_violations(self, field, value):
        with pytest.raises(ParameterError):
            replace(IPGG_WEAK_POOL, **{field: value})

    def test_leader_action_probabilities(self):
        with pytest.raises(ParameterError):
            BriberyParams(**vars(replace(IPGG_WEAK_POOL, beta=0.5)), h=1, gamma=0.6, p=0.3, q=0.8)

    def test_composition_must_match_group_size(self):
        with pytest.raises(ParameterError):
            group_payoff(IPGG_WEAK_POOL, "C", GroupComposition(2, 1))
        with pytest.raises(ParameterError):
            GroupComposition(-1, 5)

    @pytest.mark.parametrize("value", [True, "3", None, 1j], ids=["true", "text", "none", "complex"])
    def test_every_float_field_is_a_real_number_checked_before_any_range(self, value):
        for name in CORE_FIELDS[1:] + BRIBERY_FIELDS:
            # c = -1 and beta = 2 break ranges checked before most fields: the type is checked first
            with pytest.raises(ParameterError, match=f"^{name} must be a real number, got "):
                replace(BG_DEFECTOR_BRIBES, **{"c": -1.0, "beta": 2.0, name: value})
        with pytest.raises(ParameterError, match="^group size n must be >= 2, got 1$"):
            replace(BG_DEFECTOR_BRIBES, n=1, c=value)

    def test_pool_multiplier_warning(self):
        assert replace(IPGG_WEAK_POOL, f=6.0).validation_warnings
        assert BriberyParams(
            **vars(replace(IPGG_WEAK_POOL, f=6.0)), h=1, gamma=0.3, p=0.1, q=0.2
        ).validation_warnings
        assert not IPGG_WEAK_POOL.validation_warnings

    @pytest.mark.parametrize(
        "call",
        [
            lambda s: group_payoff(IPGG_WEAK_POOL, s, GroupComposition(2, 2)),
            lambda s: avg_payoff(IPGG_WEAK_POOL, 0.5, s),
            lambda s: realize_event(IPGG_WEAK_POOL, s, GroupComposition(2, 2), generator(RngSeed(0))),
            lambda s: estimate_expected_payoff(IPGG_WEAK_POOL, s, GroupComposition(2, 2), 10, RngSeed(0)),
            lambda s: estimate_avg_payoff(IPGG_WEAK_POOL, 0.5, s, 10, RngSeed(0)),
        ],
        ids=["group_payoff", "avg_payoff", "realize_event", "estimate_expected_payoff", "estimate_avg_payoff"],
    )
    def test_strategy_dispatch_rejects_unknown(self, call):
        with pytest.raises(ValueError, match="strategy must be 'C' or 'D'"):
            call("X")

    def test_params_are_immutable(self):
        with pytest.raises(AttributeError):
            IPGG_WEAK_POOL.f = 3.0


BRIBERY = {"h": 1, "gamma": 0.6, "p": 0.3, "q": 0.8}
# per IPGG field, values the record refuses; beta = 0.5 is refused only with the bribery fields
INVALID = {
    "n": [1, 2.5, MAX_N + 1, "5"],
    "b": [-1.0, float("inf")],
    "c": [0.0, float("nan")],
    "tau": [-0.5, float("-inf")],
    "f": [0.0, float("nan")],
    "alpha": [-0.1, 1.5],
    "beta": [1.2, float("nan")],
    "r_p": [-1.0, float("inf")],
}


class TestRecordContract:
    """A bribery game is the IPGG record with four more fields."""

    def test_the_fields_are_the_core_ones_then_the_bribery_ones(self):
        assert issubclass(BriberyParams, CoreParams)
        assert CORE_FIELDS == ("n", "b", "c", "tau", "f", "alpha", "beta", "r_p")
        assert BRIBERY_FIELDS == ("h", "gamma", "p", "q")
        assert [field.name for field in fields(BriberyParams)] == [*CORE_FIELDS, *BRIBERY_FIELDS]
        assert tuple(vars(IPGG_WEAK_POOL)) == CORE_FIELDS
        assert tuple(vars(BG_DEFECTOR_BRIBES)) == CORE_FIELDS + BRIBERY_FIELDS

    @pytest.mark.parametrize("name", CORE_FIELDS)
    def test_an_invalid_core_value_has_one_message_in_both_games(self, name):
        assert set(INVALID) == set(CORE_FIELDS)
        for value in INVALID[name]:
            values = dict(vars(IPGG_WEAK_POOL), **{name: value})
            with pytest.raises(ParameterError) as ipgg:
                CoreParams(**values)
            with pytest.raises(ParameterError) as bg:
                BriberyParams(**values, **BRIBERY)
            assert str(bg.value) == str(ipgg.value), (name, value)

    @given(bribery_params_strategy())
    def test_the_core_is_the_bribery_game_without_bribery(self, bg):
        core = bg.core
        assert core == CoreParams(**{name: getattr(bg, name) for name in CORE_FIELDS})
        assert type(core) is CoreParams and core != bg
        assert BriberyParams(**vars(core), **{name: getattr(bg, name) for name in BRIBERY_FIELDS}) == bg
        assert core.validation_warnings == bg.validation_warnings

    def test_a_replaced_beta_still_meets_the_leader_action_bound(self):
        assert BG_DEFECTOR_BRIBES.beta + BG_DEFECTOR_BRIBES.gamma == pytest.approx(0.8)
        assert replace(BG_DEFECTOR_BRIBES, beta=0.4).beta == 0.4
        with pytest.raises(ParameterError, match="beta \\+ gamma must be <= 1"):
            replace(BG_DEFECTOR_BRIBES, beta=0.5)
        with pytest.raises(ParameterError, match="beta \\+ gamma must be <= 1"):
            BriberyParams(**vars(replace(IPGG_WEAK_POOL, beta=0.5)), **BRIBERY)


def _modules():
    return sorted(
        f"pgg_bribery.{module.name}" for module in pkgutil.iter_modules(pgg_bribery.__path__)
        if not module.name.startswith("__")  # __main__ runs the CLI on import
    )


@pytest.mark.parametrize("module", ["pgg_bribery", *_modules()])
def test_every_exported_name_resolves(module):
    exported = importlib.import_module(module)
    # cli and presets keep no export list
    assert [name for name in getattr(exported, "__all__", ()) if not hasattr(exported, name)] == []
    exec(f"from {module} import *", {})
