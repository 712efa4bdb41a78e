import multiprocessing

import hypothesis.strategies as st
import pytest
from hypothesis import strategies

from pgg_bribery import BriberyParams, CoreParams


def core_params_strategy(min_beta: float = 0.0, min_rp: float = 0.0):
    """Random game constants at the magnitudes the closed forms target."""
    return st.builds(
        CoreParams,
        n=st.integers(min_value=2, max_value=8),
        b=st.floats(min_value=0.0, max_value=15.0),
        c=st.floats(min_value=0.5, max_value=2.0),
        tau=st.floats(min_value=0.1, max_value=1.5),
        f=st.floats(min_value=0.2, max_value=10.0),
        alpha=st.floats(min_value=0.0, max_value=1.0),
        beta=st.floats(min_value=min_beta, max_value=1.0),
        r_p=st.floats(min_value=min_rp, max_value=3.0),
    )


@strategies.composite
def bribery_params_strategy(draw, min_beta: float = 0.0, min_rp: float = 0.0):
    core = draw(core_params_strategy(min_beta, min_rp))
    gamma = draw(st.floats(min_value=0.0, max_value=1.0)) * (1.0 - core.beta)
    return BriberyParams(
        **vars(core),
        h=draw(st.floats(min_value=0.0, max_value=2.0)),
        gamma=gamma,
        p=draw(st.floats(min_value=0.0, max_value=1.0)),
        q=draw(st.floats(min_value=0.0, max_value=1.0)),
    )


def model_strategy(min_beta: float = 0.0, min_rp: float = 0.0):
    return st.one_of(
        core_params_strategy(min_beta, min_rp),
        bribery_params_strategy(min_beta, min_rp),
    )


@pytest.fixture(autouse=True)
def no_leaked_worker_processes():
    """Every worker pool is shut down before the call that started it returns."""
    yield
    assert multiprocessing.active_children() == []
