"""The cheap paths of verify's model loop and of the bribe-count lookup give the results of the paths they replace.

``verify._uniform`` is ``rng.uniform`` without numpy's per-call set-up,
the record's real-number rule takes an exact ``float`` or ``int`` before
its ABC check, and ``montecarlo._zeros_through`` counts the zero lanes
that a search of their indices counted.
"""

from decimal import Decimal
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from pgg_bribery import BriberyParams, CoreParams, ParameterError, RngSeed
from pgg_bribery.games import _as_real
from pgg_bribery.montecarlo import _zeros_through, generator
from pgg_bribery.verify import _uniform, draw_bribery_params, draw_core_params

# the (low, high) pairs that verify's draws pass, but gamma's (0.0, 1.0 - beta)
CALL_SITE_BOUNDS = [
    (0.05, 1.0), (0.0, 1.0), (0.1, 3.0), (0.0, 3.0), (0.0, 15.0),
    (0.5, 2.0), (0.1, 1.5), (0.2, 10.0), (0.0, 2.0), (0.1, 0.9),
]


@given(
    seed=st.integers(0, 2**64 - 1),
    bounds=st.one_of(st.sampled_from(CALL_SITE_BOUNDS), st.floats(0.0, 1.0).map(lambda beta: (0.0, 1.0 - beta))),
    draws=st.integers(1, 20),
)
def test_uniform_is_numpys_value_for_value_and_state_for_state(seed, bounds, draws):
    ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(draws):
        got, want = _uniform(ours, *bounds), numpys.uniform(*bounds)
        assert type(got) is type(want) is float
        assert got.hex() == want.hex(), bounds
    assert ours.bit_generator.state == numpys.bit_generator.state


def numpys_core_params(rng, positive_punishment=False):
    """``draw_core_params`` as it was written with ``rng.uniform``."""
    beta = rng.uniform(0.05, 1.0) if positive_punishment else rng.uniform(0.0, 1.0)
    r_p = rng.uniform(0.1, 3.0) if positive_punishment else rng.uniform(0.0, 3.0)
    return CoreParams(
        n=int(rng.integers(2, 9)),
        b=rng.uniform(0.0, 15.0),
        c=rng.uniform(0.5, 2.0),
        tau=rng.uniform(0.1, 1.5),
        f=rng.uniform(0.2, 10.0),
        alpha=rng.uniform(0.0, 1.0),
        beta=beta,
        r_p=r_p,
    )


def numpys_bribery_params(rng, positive_punishment=False):
    """``draw_bribery_params`` as it was written with ``rng.uniform``."""
    core = numpys_core_params(rng, positive_punishment)
    return BriberyParams(
        **vars(core),
        h=rng.uniform(0.0, 2.0),
        gamma=rng.uniform(0.0, 1.0 - core.beta),
        p=rng.uniform(0.0, 1.0),
        q=rng.uniform(0.0, 1.0),
    )


@pytest.mark.parametrize("positive_punishment", [False, True])
def test_drawn_records_and_end_state_are_those_of_numpys_uniform(positive_punishment):
    for seed in range(10):
        ours, numpys = generator(RngSeed(seed, 101)), generator(RngSeed(seed, 101))
        for i in range(200):
            draw, reference = (
                (draw_core_params, numpys_core_params) if i % 2 == 0 else (draw_bribery_params, numpys_bribery_params)
            )
            got, want = draw(ours, positive_punishment), reference(numpys, positive_punishment)
            assert type(got) is type(want) and repr(got) == repr(want)
        assert ours.bit_generator.state == numpys.bit_generator.state


class FloatSubclass(float):
    pass


class IntSubclass(int):
    pass


# each value, and whether the real-number rule takes it: the verdicts of the ABC check alone
REAL_VERDICTS = [
    (1.5, True),
    (3, True),
    (True, False),
    (np.True_, False),
    (np.float64(1.5), True),
    (np.int64(3), True),
    (Fraction(1, 3), True),
    (Decimal("1.5"), False),  # not registered as a numbers.Real
    (FloatSubclass(1.5), True),
    (IntSubclass(3), True),
    ("1", False),
    (None, False),
    (1j, False),
]


@pytest.mark.parametrize("value, taken", REAL_VERDICTS, ids=[repr(value) for value, _ in REAL_VERDICTS])
def test_the_real_number_rule_keeps_its_verdicts(value, taken):
    if taken:
        assert _as_real(value, "b") is value
    else:
        with pytest.raises(ParameterError, match=r"^b must be a real number, got "):
            _as_real(value, "b")


@given(st.lists(st.integers(0, 3), min_size=1, max_size=300), st.data())
def test_zero_counts_are_the_searched_counts(values, data):
    values = np.array(values, np.int8)
    at = np.array(sorted(data.draw(st.sets(st.integers(0, len(values) - 1)))), np.intp)
    zeros = np.flatnonzero(values == 0)
    want = np.searchsorted(zeros, at, side="right")
    assert _zeros_through(values, at).tolist() == want.tolist()
