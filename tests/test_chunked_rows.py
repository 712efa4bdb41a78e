"""The chunk-made ``gradient``, ``sweep`` and ``grid`` rows against whole-array rows, and their memory."""

import tracemalloc

import numpy as np
import pytest

from pgg_bribery import classify_regimes, gradient_of_selection, q_function, thresholds
from pgg_bribery.cli import _cells, gradient_rows, grid_rows, sweep_rows
from pgg_bribery.output import CHUNK, ColumnRows, write_csv
from pgg_bribery.presets import BG_DEFECTOR_BRIBES_BASE, IPGG_BISTABLE
from pgg_bribery.sweeps import MAX_CELLS, regime_grid, sweep_root, with_parameter

HEADER = ["a", "b", "c", "d"]


def csv_bytes(path, rows) -> bytes:
    write_csv(path, HEADER[:len(rows.columns)], rows, ["meta"])
    return path.read_bytes()


@pytest.mark.parametrize("model", [IPGG_BISTABLE, BG_DEFECTOR_BRIBES_BASE], ids=["ipgg", "bg"])
@pytest.mark.parametrize("points", [2, 3, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5])
def test_gradient_equals_whole_array_columns(tmp_path, model, points):
    xs = np.arange(points) / (points - 1)
    whole = ColumnRows(xs, q_function(model, xs), gradient_of_selection(model, xs))
    assert csv_bytes(tmp_path / "chunked.csv", gradient_rows(model, points)) == csv_bytes(tmp_path / "whole.csv", whole)


def test_grid_and_sweep_equal_whole_array_columns(tmp_path):
    model = BG_DEFECTOR_BRIBES_BASE
    th = thresholds(with_parameter(model, "r_p", 0.5))
    # 97 * 89 cells span three chunks, and the first cell is a knife edge (an empty basin)
    grid = regime_grid(model, th.f_min, 6.0, 0.5, 5.0, 97, 89)
    assert grid.token.size % CHUNK and grid.token.size > 2 * CHUNK and grid.notes
    whole = ColumnRows(
        np.repeat(grid.f_values, len(grid.rp_values)),
        np.tile(grid.rp_values, len(grid.f_values)),
        grid.token.ravel(),
        _cells(grid.basin.ravel()),
    )
    assert csv_bytes(tmp_path / "grid.csv", grid_rows(grid)) == csv_bytes(tmp_path / "whole_grid.csv", whole)

    sweep = sweep_root(model, "f", th.f_min, 6.0, 2 * CHUNK + 5)
    whole = ColumnRows(sweep.points, sweep.token, _cells(sweep.x_star), _cells(sweep.basin))
    assert csv_bytes(tmp_path / "sweep.csv", sweep_rows(sweep)) == csv_bytes(tmp_path / "whole_sweep.csv", whole)


@pytest.mark.parametrize("points, message", [(1, "must be >= 2"), (0, "must be >= 2"), (MAX_CELLS + 1, "limit")])
def test_gradient_rows_refuse_their_size_before_any_chunk(points, message):
    with pytest.raises(ValueError, match=message):
        gradient_rows(IPGG_BISTABLE, points)


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# whole-array columns peak at ~3 MB at 50001 points and ~12 MB at 200001
def test_gradient_csv_working_memory_is_bounded(tmp_path):
    def write():
        write_csv(tmp_path / "gradient.csv", ["x", "q", "g"], gradient_rows(IPGG_BISTABLE, 50_001), [])

    assert traced_peak(write) < 2 * 2**20


def test_gradient_columns_are_made_a_chunk_at_a_time():
    # write_csv's slicing alone, as formatting 200001 traced rows takes seconds
    def slice_all():
        rows = gradient_rows(IPGG_BISTABLE, 200_001)
        for start in range(0, len(rows), CHUNK):
            [column[start:start + CHUNK] for column in rows.columns]

    assert traced_peak(slice_all) < 2**20


def test_regime_tokens_are_references_to_four_strings():
    f, r_p = np.linspace(1.2, 6.0, 200), np.linspace(0.5, 5.0, 200)
    token = classify_regimes(BG_DEFECTOR_BRIBES_BASE, f=f[:, None], r_p=r_p[None, :]).token
    assert token.dtype == object and token.shape == (200, 200)
    assert token.nbytes <= 8 * token.size
    assert len({id(cell) for cell in token.flat}) <= 4
