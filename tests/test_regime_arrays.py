"""The array regime core against the scalar classifier, bit for bit."""

import os
from dataclasses import replace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import model_strategy

from pgg_bribery import (
    KnifeEdgeError,
    ParameterError,
    basin_of_cooperation,
    classify_regime,
    classify_regimes,
    core_of,
    gradient_of_selection,
    q_function,
    regime_grid,
    sweep_root,
    thresholds,
    with_parameter,
)
from pgg_bribery.cli import main
from pgg_bribery.output import fmt_cell
from pgg_bribery.presets import BG_DEFECTOR_BRIBES_BASE, IPGG_WEAK_POOL


def scalar_cell(model, f, r_p):
    """(token, x_star, basin, note) from the scalar functions; None where undefined."""
    cell = with_parameter(with_parameter(model, "f", float(f)), "r_p", float(r_p))
    try:
        regime = classify_regime(cell)
    except KnifeEdgeError as err:
        return "knife_edge", None, None, str(err)
    return regime.token, regime.x_star, basin_of_cooperation(cell), None


def undefined_as_none(value):
    return None if np.isnan(value) else float(value)


def assert_cells_match(model, f_values, rp_values, token, x_star, basin, notes):
    for i, f in enumerate(f_values):
        for j, r_p in enumerate(rp_values):
            expected = scalar_cell(model, f, r_p)
            actual = (
                str(token[i, j]), undefined_as_none(x_star[i, j]), undefined_as_none(basin[i, j]), notes.get((i, j)),
            )
            assert actual == expected, (f, r_p)
    assert len(notes) == np.count_nonzero(token == "knife_edge")


@settings(deadline=None, max_examples=60)
@given(
    model_strategy(),
    st.lists(st.floats(0.0, 3.0), min_size=1, max_size=4),
    st.lists(st.floats(0.2, 10.0), min_size=1, max_size=4),
)
def test_array_core_equals_scalar_oracle(model, rp_list, f_list):
    rp_values = np.array(sorted(set(rp_list)))
    # cells exactly on, and just off, each threshold of the first r_p
    th = thresholds(with_parameter(model, "r_p", float(rp_values[0])))
    edges = [th.f_min, th.f_max, th.f_min + 2e-9, th.f_max - 2e-9]
    f_values = np.array(sorted(set(f_list) | {f for f in edges if f > 0.0}))
    regimes = classify_regimes(model, f=f_values[:, None], r_p=rp_values[None, :])
    assert regimes.token.shape == (len(f_values), len(rp_values))
    assert_cells_match(model, f_values, rp_values, *regimes)


@pytest.mark.parametrize("model", [IPGG_WEAK_POOL, BG_DEFECTOR_BRIBES_BASE])
def test_grid_and_sweep_knife_edges_match_the_scalar_reports(model):
    rp_lo = 1.0
    th = thresholds(with_parameter(model, "r_p", rp_lo))
    grid = regime_grid(model, th.f_min, th.f_max, rp_lo, 3.0, 7, 5)
    assert_cells_match(model, grid.f_values, grid.rp_values, grid.token, grid.x_star, grid.basin, grid.notes)
    assert set(grid.notes) == {(0, 0), (6, 0)}
    for (i, j), note in grid.notes.items():
        assert note == scalar_cell(model, grid.f_values[i], grid.rp_values[j])[3]

    sweep = sweep_root(with_parameter(model, "r_p", rp_lo), "f", th.f_min, th.f_max, 9)
    assert sorted(sweep.notes) == [0, 8]
    for i, f in enumerate(sweep.points):
        token, x_star, basin, note = scalar_cell(model, f, rp_lo)
        assert (sweep.token[i], undefined_as_none(sweep.x_star[i]), undefined_as_none(sweep.basin[i])) == (
            token, x_star, basin,
        )
        assert sweep.notes.get(i) == note


# with r_p = 0 the thresholds coincide, and the rule names f_min first
@pytest.mark.parametrize("model", [IPGG_WEAK_POOL, BG_DEFECTOR_BRIBES_BASE, with_parameter(IPGG_WEAK_POOL, "r_p", 0.0)])
@pytest.mark.parametrize("edge", ["f_min", "f_max", None])
def test_a_lone_model_equals_the_scalar_classifier(model, edge):
    if edge is not None:
        model = with_parameter(model, "f", getattr(thresholds(model), edge))
    token, x_star, basin, notes = classify_regimes(model)
    assert token.shape == x_star.shape == basin.shape == ()
    core = core_of(model)
    expected = scalar_cell(model, core.f, core.r_p)
    assert (str(token), undefined_as_none(x_star), undefined_as_none(basin), notes.get(())) == expected
    assert (expected[0] == "knife_edge") == (edge is not None) == (set(notes) == {()})
    if edge is not None:
        assert ("f_min" if core_of(model).r_p == 0.0 else edge) in notes[()]


def test_classification_refuses_non_finite_thresholds():
    overflowing = with_parameter(IPGG_WEAK_POOL, "r_p", 1e308)  # beta*tau*r_p*n*(n+1) overflows
    with pytest.raises(ValueError, match="not finite"):
        classify_regime(overflowing)
    with pytest.raises(ValueError, match="not finite"):
        classify_regimes(IPGG_WEAK_POOL, r_p=np.array([1.0, 1e308]))


@pytest.mark.parametrize("model, overrides, name, index", [
    (IPGG_WEAK_POOL, dict(f=np.array([np.nan])), "f", 0),
    (IPGG_WEAK_POOL, dict(f=-1.0), "f", 0),
    (IPGG_WEAK_POOL, dict(r_p=-2.0), "r_p", 0),
    (BG_DEFECTOR_BRIBES_BASE, dict(f=np.array([[2.0], [np.inf], [-1.0]]), r_p=np.array([[1.0, 2.0]])), "f", 1),
    (BG_DEFECTOR_BRIBES_BASE, dict(r_p=np.array([0.0, -0.0, -1e-300, np.nan])), "r_p", 2),
], ids=["nan_f", "negative_f", "negative_r_p", "grid_inf_f", "sweep_negative_r_p"])
def test_overrides_that_the_record_refuses_are_refused(model, overrides, name, index):
    with pytest.raises(ParameterError) as record:
        with_parameter(model, name, float(np.asarray(overrides[name]).flat[index]))
    with pytest.raises(ParameterError) as arrays:
        classify_regimes(model, **overrides)
    assert str(arrays.value) == f"{record.value} (index {index} of {name})"


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
            token, _, basin, _ = scalar_cell(model, f, r_p)
            expected.append((float(f), float(r_p), token, basin))
    assert data_lines(os.path.join(out, "grid.csv")) == text_of(expected)

    assert main([
        "sweep", "--config", weak_cfg, "--param", "f", "--lo", repr(th.f_min), "--hi", repr(th.f_max),
        "--steps", "7", "--out", out,
    ]) == 0
    expected = []
    for f in np.linspace(th.f_min, th.f_max, 7):
        token, x_star, basin, _ = scalar_cell(model, f, model.r_p)
        expected.append((float(f), token, x_star, basin))
    assert data_lines(os.path.join(out, "sweep.csv")) == text_of(expected)

    assert main(["gradient", "--config", weak_cfg, "--points", "33", "--out", out]) == 0
    xs = [i / 32 for i in range(33)]
    expected = [(x, q_function(model, x), gradient_of_selection(model, x)) for x in xs]
    assert data_lines(os.path.join(out, "gradient.csv")) == text_of(expected)
