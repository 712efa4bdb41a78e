"""The array regime core against the scalar classifier, bit for bit."""

import os
from dataclasses import replace

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import model_strategy
from helpers import grid_regimes, sweep_regimes

from pgg_bribery import (
    KnifeEdgeError,
    ParameterError,
    basin_of_cooperation,
    classify_regime,
    classify_regimes,
    coefficients,
    gradient_of_selection,
    q_function,
    regime_grid,
    sweep_root,
    thresholds,
)
from pgg_bribery.cli import main
from pgg_bribery.output import fmt_cell
from pgg_bribery.presets import BG_DEFECTOR_BRIBES_BASE, IPGG_BISTABLE, IPGG_WEAK_POOL


def scalar_cell(model, f, r_p):
    """(token, x_star, basin) from the scalar functions; None where undefined."""
    cell = replace(model, f=float(f), r_p=float(r_p))
    try:
        regime = classify_regime(cell)
    except KnifeEdgeError:
        return "knife_edge", None, None
    return regime.token, regime.x_star, basin_of_cooperation(cell)


def undefined_as_none(value):
    return None if np.isnan(value) else float(value)


def assert_cells_match(model, f_values, rp_values, token, x_star, basin):
    for i, f in enumerate(f_values):
        for j, r_p in enumerate(rp_values):
            expected = scalar_cell(model, f, r_p)
            actual = (str(token[i, j]), undefined_as_none(x_star[i, j]), undefined_as_none(basin[i, j]))
            assert actual == expected, (f, r_p)


@settings(deadline=None, max_examples=60)
@given(
    model_strategy(),
    st.lists(st.floats(0.0, 3.0), min_size=1, max_size=4),
    st.lists(st.floats(0.2, 10.0), min_size=1, max_size=4),
)
def test_array_core_equals_scalar_oracle(model, rp_list, f_list):
    rp_values = np.array(sorted(set(rp_list)))
    # cells exactly on, and just off, each threshold of the first r_p
    th = thresholds(replace(model, r_p=float(rp_values[0])))
    edges = [th.f_min, th.f_max, th.f_min + 2e-9, th.f_max - 2e-9]
    f_values = np.array(sorted(set(f_list) | {f for f in edges if f > 0.0}))
    regimes = classify_regimes(model, f=f_values[:, None], r_p=rp_values[None, :])
    assert regimes.token.shape == (len(f_values), len(rp_values))
    assert_cells_match(model, f_values, rp_values, *regimes)


@pytest.mark.parametrize("model", [IPGG_WEAK_POOL, BG_DEFECTOR_BRIBES_BASE])
def test_grid_and_sweep_knife_edges_match_the_scalar_reports(model):
    rp_lo = 1.0
    th = thresholds(replace(model, r_p=rp_lo))
    grid = regime_grid(model, th.f_min, th.f_max, rp_lo, 3.0, 7, 5)
    regimes = grid_regimes(grid)
    assert_cells_match(model, grid.f_values, grid.rp_values, *regimes)
    assert {(int(i), int(j)) for i, j in np.argwhere(regimes.token == "knife_edge")} == {(0, 0), (6, 0)}

    sweep = sweep_root(replace(model, r_p=rp_lo), "f", th.f_min, th.f_max, 9)
    regimes = sweep_regimes(sweep)
    assert np.flatnonzero(regimes.token == "knife_edge").tolist() == [0, 8]
    for i, f in enumerate(sweep.points):
        assert (
            regimes.token[i], undefined_as_none(regimes.x_star[i]), undefined_as_none(regimes.basin[i]),
        ) == scalar_cell(model, f, rp_lo)


# with r_p = 0 the thresholds coincide, and the rule names f_min first
@pytest.mark.parametrize("model", [IPGG_WEAK_POOL, BG_DEFECTOR_BRIBES_BASE, replace(IPGG_WEAK_POOL, r_p=0.0)])
@pytest.mark.parametrize("edge", ["f_min", "f_max", None])
def test_a_lone_model_equals_the_scalar_classifier(model, edge):
    if edge is not None:
        model = replace(model, f=getattr(thresholds(model), edge))
    token, x_star, basin = classify_regimes(model)
    assert token.shape == x_star.shape == basin.shape == () and token.dtype == object
    expected = scalar_cell(model, model.f, model.r_p)
    assert (str(token), undefined_as_none(x_star), undefined_as_none(basin)) == expected
    assert (expected[0] == "knife_edge") == (edge is not None)
    if edge is not None:
        with pytest.raises(KnifeEdgeError) as err:
            classify_regime(model)
        name = "f_min" if model.r_p == 0.0 else edge
        assert err.value.threshold_name == name and f"of {name}=" in str(err.value)


def test_classification_refuses_non_finite_thresholds():
    overflowing = replace(IPGG_WEAK_POOL, r_p=1e308)  # beta*tau*r_p*n*(n+1) overflows
    with pytest.raises(ValueError, match="not finite"):
        classify_regime(overflowing)
    with pytest.raises(ValueError, match="not finite"):
        classify_regimes(IPGG_WEAK_POOL, r_p=np.array([1.0, 1e308]))


def first_refusal(model, overrides):
    """The message a per-cell ``replace`` loop refuses first, with its index, or None."""
    for name in ("f", "r_p"):
        for index, value in enumerate(np.ravel(overrides.get(name, []))):
            try:
                replace(model, **{name: float(value)})
            except ParameterError as err:
                return f"{err} (index {index} of {name})"
    return None


@st.composite
def override_arrays(draw):
    """``f`` and/or ``r_p`` arrays of mutually broadcastable shapes, some cells set to refusable values."""
    shapes = draw(hnp.mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=5)).input_shapes
    overrides = {}
    for name, shape in zip(draw(st.sampled_from([("f",), ("r_p",), ("f", "r_p")])), shapes):
        values = draw(hnp.arrays(np.float64, shape, elements=st.floats(0.0, 10.0)))
        special = st.sampled_from([np.nan, np.inf, -np.inf, -0.0, -1e-300, -2.0])
        for index, value in draw(st.lists(st.tuples(st.integers(0, values.size - 1), special), max_size=3)):
            values.flat[index] = value
        overrides[name] = values
    return overrides


@settings(deadline=None, max_examples=150)
@given(st.sampled_from([IPGG_WEAK_POOL, BG_DEFECTOR_BRIBES_BASE]), override_arrays())
@example(IPGG_WEAK_POOL, dict(f=np.array([np.nan])))
@example(IPGG_WEAK_POOL, dict(f=-1.0))
@example(IPGG_WEAK_POOL, dict(r_p=-2.0))
@example(BG_DEFECTOR_BRIBES_BASE, dict(f=np.array([[2.0], [np.inf], [-1.0]]), r_p=np.array([[1.0, 2.0]])))
@example(BG_DEFECTOR_BRIBES_BASE, dict(r_p=np.array([0.0, -0.0, -1e-300, np.nan])))
@example(IPGG_BISTABLE, dict(r_p=np.array([-1.0, 2.0])))
@example(IPGG_BISTABLE, dict(f=np.array([-3.0, np.nan])))
def test_overrides_that_the_record_refuses_are_refused(model, overrides):
    expected = first_refusal(model, overrides)
    for function in (coefficients, classify_regimes):
        if expected is None:
            function(model, **overrides)
        else:
            with pytest.raises(ParameterError) as refused:
                function(model, **overrides)
            assert str(refused.value) == expected


@pytest.mark.parametrize("overrides", [
    dict(f=[2.0, 3.0, 7.5]),
    dict(r_p=[0.5, 2.0]),
    dict(f=[[2.0], [6.0]], r_p=[1.0, 2.5]),
    dict(f=(4.0,), r_p=2.0),
])
def test_a_list_override_is_its_array(overrides):
    arrays = {name: values if isinstance(values, float) else np.asarray(values) for name, values in overrides.items()}
    for function in (coefficients, classify_regimes):
        for got, want in zip(function(IPGG_BISTABLE, **overrides), function(IPGG_BISTABLE, **arrays)):
            got, want = np.asarray(got), np.asarray(want)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@pytest.mark.parametrize("name", ["f", "r_p"])
def test_a_float_override_stays_a_float(name):
    value = getattr(IPGG_BISTABLE, name) + 0.25
    got = coefficients(IPGG_BISTABLE, **{name: value})
    want = coefficients(replace(IPGG_BISTABLE, **{name: value}))
    assert [(type(v), float(v).hex()) for v in got] == [(type(v), float(v).hex()) for v in want]


@pytest.mark.parametrize("record, name, message", [
    *[(IPGG_WEAK_POOL, name, f"{name} must be finite") for name in ("b", "c", "tau", "f", "r_p")],
    (IPGG_WEAK_POOL, "n", "n must be an integer"),
    (BG_DEFECTOR_BRIBES_BASE, "h", "h must be finite"),
])
def test_parameters_must_be_finite(record, name, message):
    for value in (float("inf"), float("nan")):
        with pytest.raises(ParameterError, match=message):
            replace(record, **{name: value})


def data_lines(path):
    with open(path, encoding="utf-8") as handle:
        return [line for line in handle.read().splitlines() if line and not line.startswith("#")][1:]


def text_of(rows):
    return [",".join(fmt_cell(cell) for cell in row) for row in rows]


@pytest.fixture
def weak_cfg(tmp_path):
    path = tmp_path / "weak.cfg"
    path.write_text("model = ipgg\nn = 5\nb = 12\nc = 1\ntau = 1\nf = 2\nalpha = 0.5\nbeta = 0.2\nr_p = 1.4\n")
    return str(path)


def test_cli_csvs_equal_rows_built_from_the_scalar_functions(weak_cfg, tmp_path, capsys):
    out = str(tmp_path / "out")
    model = IPGG_WEAK_POOL
    th = thresholds(model)
    f_lo, f_hi = th.f_min, th.f_max + 1.0  # the first f is a knife edge
    assert main([
        "grid", "--config", weak_cfg, "--f-lo", repr(f_lo), "--f-hi", repr(f_hi),
        "--rp-lo", "1.4", "--rp-hi", "3", "--f-steps", "6", "--rp-steps", "4", "--out", out,
    ]) == 0
    expected = []
    for f in np.linspace(f_lo, f_hi, 6):
        for r_p in np.linspace(1.4, 3.0, 4):
            token, _, basin = scalar_cell(model, f, r_p)
            expected.append((float(f), float(r_p), token, basin))
    assert data_lines(os.path.join(out, "grid.csv")) == text_of(expected)

    assert main([
        "sweep", "--config", weak_cfg, "--param", "f", "--lo", repr(th.f_min), "--hi", repr(th.f_max),
        "--steps", "7", "--out", out,
    ]) == 0
    expected = []
    for f in np.linspace(th.f_min, th.f_max, 7):
        token, x_star, basin = scalar_cell(model, f, model.r_p)
        expected.append((float(f), token, x_star, basin))
    assert data_lines(os.path.join(out, "sweep.csv")) == text_of(expected)

    assert main(["gradient", "--config", weak_cfg, "--points", "33", "--out", out]) == 0
    xs = [i / 32 for i in range(33)]
    expected = [(x, q_function(model, x), gradient_of_selection(model, x)) for x in xs]
    assert data_lines(os.path.join(out, "gradient.csv")) == text_of(expected)
