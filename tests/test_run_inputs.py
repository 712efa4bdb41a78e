"""One rule per run input: every door that takes an input refuses a bad value with that rule's message.

Each input is fed True, text, None, a complex number and a value out of
its range, at every door: ``RunConfig``, the library calls the CLI feeds
and the model record.  A door names the value as its own argument, so the
messages differ only in that name.
"""

import math
from dataclasses import replace

import pytest

from pgg_bribery import (
    GroupComposition,
    RngSeed,
    RunConfig,
    avg_payoff,
    binomial_avg_payoff,
    estimate_avg_payoff,
    estimate_expected_payoff,
    evolve_finite_population,
    gradient_of_selection,
    integrate,
    q_function,
    regime_grid,
    sweep_root,
)
from pgg_bribery import montecarlo
from pgg_bribery.presets import BG_DEFECTOR_BRIBES, IPGG_BISTABLE

M = IPGG_BISTABLE
COMP = GroupComposition(2, 2)
BAD_TYPES = [True, "0.5", None, 1j]


def real(name, value):
    return f"{name} must be a real number, got {value!r}"


def integer(name, value):
    return f"{name} must be an integer, got {value!r}"


# input -> (type rule, [(name, door, out-of-range value, its message)])
DOORS = {
    "cooperator_fraction": (real, [
        ("cooperator fraction x", lambda v: q_function(M, v), 1.5, "cooperator fraction x must be in [0, 1], got 1.5"),
        ("cooperator fraction x", lambda v: gradient_of_selection(M, v), -0.5,
         "cooperator fraction x must be in [0, 1], got -0.5"),
        ("cooperator fraction x", lambda v: avg_payoff(M, v, "C"), 1.5, "cooperator fraction x must be in [0, 1], got 1.5"),
        ("cooperator fraction x", lambda v: binomial_avg_payoff(M, v, "D"), 1.5,
         "cooperator fraction x must be in [0, 1], got 1.5"),
        ("x0", lambda v: integrate(M, v), 1.5, "x0 must be in [0, 1], got 1.5"),
        ("x", lambda v: estimate_avg_payoff(M, v, "C", 10, RngSeed(0)), 1.5, "x must be in [0, 1], got 1.5"),
        ("x0", lambda v: evolve_finite_population(M, 20, v, 10), 1.5, "x0 must be in [0, 1], got 1.5"),
    ]),
    "integration_controls": (real, [
        ("step", lambda v: RunConfig(M, step=v), -1.0, "step must be finite and > 0, got -1.0"),
        ("step", lambda v: integrate(M, 0.5, step=v), -1.0, "step must be finite and > 0, got -1.0"),
        ("t_max", lambda v: RunConfig(M, t_max=v), math.inf, "t_max must be finite and > 0, got inf"),
        ("t_max", lambda v: integrate(M, 0.5, t_max=v), math.inf, "t_max must be finite and > 0, got inf"),
        ("conv_tol", lambda v: RunConfig(M, conv_tol=v), 0.0, "conv_tol must be finite and > 0, got 0.0"),
        ("conv_tol", lambda v: integrate(M, 0.5, conv_tol=v), 0.0, "conv_tol must be finite and > 0, got 0.0"),
    ]),
    "sample_count": (integer, [
        ("samples", lambda v: RunConfig(M, samples=v), 1, "samples must be >= 2, got 1"),
        ("n", lambda v: estimate_expected_payoff(M, "C", COMP, v, RngSeed(0)), 1, "n must be >= 2, got 1"),
        ("n", lambda v: estimate_avg_payoff(M, 0.5, "C", v, RngSeed(0)), 10**10,
         f"n must be <= MAX_SAMPLES = {montecarlo.MAX_SAMPLES}, got {10**10}"),
    ]),
    "count": (integer, [
        ("seed", lambda v: RunConfig(M, seed=v), -1, "seed must be >= 0, got -1"),
        ("master_seed", lambda v: RngSeed(v), -1, "master_seed must be >= 0, got -1"),
        ("stream_id", lambda v: RngSeed(0, v), -2, "stream_id must be >= 0, got -2"),
        ("n_d", lambda v: GroupComposition(0, v), -1, "n_d must be >= 0, got -1"),
        ("rounds", lambda v: evolve_finite_population(M, 20, 0.5, v), -1, "rounds must be >= 0, got -1"),
    ]),
    "imitation_strength": (real, [
        ("imitation_strength", lambda v: evolve_finite_population(M, 20, 0.5, 10, imitation_strength=v), math.nan,
         "imitation_strength must be finite, got nan"),
    ]),
    "record": (real, [
        ("c", lambda v: replace(M, c=v), -1.0, "contribution cost c must be > 0, got -1.0"),
        ("f", lambda v: replace(M, f=v), math.inf, "f must be finite, got inf"),
        ("h", lambda v: replace(BG_DEFECTOR_BRIBES, h=v), -1.0, "bribe h must be >= 0, got -1.0"),
        ("q", lambda v: replace(BG_DEFECTOR_BRIBES, q=v), 2.0, "q must be in [0, 1], got 2.0"),
    ]),
    "axis_ends": (real, [
        ("f lo", lambda v: sweep_root(M, "f", v, 2.0), 3.0, "f bounds must satisfy lo < hi, got [3.0, 2.0]"),
        ("r_p hi", lambda v: regime_grid(M, 1.0, 2.0, 1.0, v), 0.5, "r_p bounds must satisfy lo < hi, got [1.0, 0.5]"),
    ]),
}


def _outcome(door, value) -> str:
    try:
        door(value)
    except ValueError as err:
        return str(err)
    except Exception as err:  # the wrong kind of refusal
        return f"{type(err).__name__}: {err}"
    return "accepted"


@pytest.mark.parametrize("kind", list(DOORS))
def test_every_door_refuses_with_the_one_message(kind):
    rule, doors = DOORS[kind]
    wrong = {}
    for index, (name, door, out, out_message) in enumerate(doors):
        for value, expected in [(value, rule(name, value)) for value in BAD_TYPES] + [(out, out_message)]:
            got = _outcome(door, value)
            if got != expected:
                wrong[f"{index}: {name} = {value!r}"] = got
    assert wrong == {}


def test_workers_follow_the_one_rule_before_any_pool_starts(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool started instead of the refusal")

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", no_pool)
    cases = [(value, integer("workers", value)) for value in (True, "2", 2.5, 1j)]  # None runs in this process
    cases += [(0, "workers must be >= 1, got 0"), (10**4, f"workers must be <= MAX_WORKERS = {montecarlo.MAX_WORKERS}, got 10000")]
    for value, expected in cases:
        assert _outcome(lambda v: estimate_expected_payoff(M, "C", COMP, 600_000, RngSeed(0), workers=v), value) == expected
        assert _outcome(lambda v: estimate_avg_payoff(M, 0.5, "D", 600_000, RngSeed(0), workers=v), value) == expected


def test_a_seed_that_is_not_an_rng_seed_is_refused_before_any_task(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the work started instead of the refusal")

    monkeypatch.setattr(montecarlo, "_chunk_task", no_work)
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", no_work)
    for seed in (1, None, (0, 1)):
        expected = f"seed must be an RngSeed, got {seed!r}"
        assert _outcome(lambda s: estimate_avg_payoff(M, 0.5, "C", 10, s, workers=2), seed) == expected
        assert _outcome(lambda s: estimate_expected_payoff(M, "C", COMP, 10, s), seed) == expected
        assert _outcome(lambda s: evolve_finite_population(M, 20, 0.5, 10, seed=s), seed) == expected
