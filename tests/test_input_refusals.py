"""Inputs refused with ``ParameterError`` at the door that takes them, not by a ``TypeError`` or an ``AttributeError`` later.

A composition must be a ``GroupComposition`` record, and a sweep axis's
``steps``, a gradient's ``points`` and the battery's ``samples`` must be
integers before their range checks, each of which keeps its own message.
"""

import re

import pytest

from pgg_bribery import (
    ParameterError,
    RngSeed,
    estimate_expected_payoff,
    group_payoff,
    realize_event,
    regime_grid,
    sweep_root,
)
from pgg_bribery.cli import gradient_rows
from pgg_bribery.montecarlo import generator
from pgg_bribery.presets import IPGG_BISTABLE
from pgg_bribery.verify import run_battery

M = IPGG_BISTABLE


@pytest.mark.parametrize("comp", [(2, 2), [2, 2], {"n_c": 2, "n_d": 2}, None])
def test_a_composition_that_is_not_a_record_is_refused(comp):
    message = f"^{re.escape(f'comp must be a GroupComposition, got {comp!r}')}$"
    calls = (
        lambda: estimate_expected_payoff(M, "C", comp, 10, RngSeed(0)),
        lambda: group_payoff(M, "C", comp),
        lambda: realize_event(M, "C", comp, generator(RngSeed(0))),
    )
    for call in calls:
        with pytest.raises(ParameterError, match=message):
            call()


@pytest.mark.parametrize("steps", ["3", 2.5, None, True])
def test_a_non_integer_axis_steps_is_refused(steps):
    with pytest.raises(ParameterError, match=f"^{re.escape(f'f steps must be an integer, got {steps!r}')}$"):
        sweep_root(M, "f", 1.0, 2.0, steps)
    with pytest.raises(ParameterError, match=f"^{re.escape(f'f steps must be an integer, got {steps!r}')}$"):
        regime_grid(M, 1.0, 2.0, 0.5, 1.0, f_steps=steps, rp_steps=3)
    with pytest.raises(ParameterError, match=f"^{re.escape(f'r_p steps must be an integer, got {steps!r}')}$"):
        regime_grid(M, 1.0, 2.0, 0.5, 1.0, f_steps=3, rp_steps=steps)


@pytest.mark.parametrize("points", ["3", 2.5, None, True])
def test_a_non_integer_gradient_points_is_refused(points):
    with pytest.raises(ParameterError, match=f"^{re.escape(f'--points must be an integer, got {points!r}')}$"):
        gradient_rows(M, points)


@pytest.mark.parametrize("samples", ["5000", 5000.5, None, True])
def test_a_non_integer_battery_samples_is_refused(samples):
    with pytest.raises(ParameterError, match=f"^{re.escape(f'samples must be an integer, got {samples!r}')}$"):
        run_battery(samples=samples)


def test_each_count_keeps_its_range_message_and_takes_a_whole_float():
    with pytest.raises(ValueError, match=r"^f needs at least 2 steps, got 1$"):
        sweep_root(M, "f", 1.0, 2.0, 1)
    with pytest.raises(ValueError, match=r"^--points must be >= 2, got 1$"):
        gradient_rows(M, 1)
    with pytest.raises(ValueError, match=r"^verify needs samples >= MIN_SAMPLES = 1000, got 999$"):
        run_battery(samples=999.0)
    assert len(sweep_root(M, "f", 1.0, 2.0, 3.0).points) == 3
    assert len(regime_grid(M, 1.0, 2.0, 0.5, 1.0, f_steps=2.0, rp_steps=3)) == 6
    assert len(gradient_rows(M, 5.0)) == 5
