"""The chunk-made ``gradient``, ``sweep`` and ``grid`` rows against whole-array rows, and their memory."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from helpers import grid_regimes, sweep_regimes
from pgg_bribery import classify_regimes, gradient_of_selection, q_function, thresholds
from pgg_bribery.cli import gradient_rows
from pgg_bribery.output import CHUNK, ColumnRows, write_csv
from pgg_bribery.presets import BG_DEFECTOR_BRIBES_BASE, IPGG_BISTABLE
from pgg_bribery.sweeps import MAX_CELLS, regime_grid, sweep_root

GRADIENT = ["x", "q", "g"]


def csv_bytes(path, header, rows) -> bytes:
    write_csv(path, header, rows, ["meta"])
    return path.read_bytes()


@pytest.mark.parametrize("model", [IPGG_BISTABLE, BG_DEFECTOR_BRIBES_BASE], ids=["ipgg", "bg"])
@pytest.mark.parametrize("points", [2, 3, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5])
def test_gradient_equals_whole_array_columns(tmp_path, model, points):
    xs = np.arange(points) / (points - 1)
    whole = ColumnRows(xs, q_function(model, xs), gradient_of_selection(model, xs))
    chunked = gradient_rows(model, points)
    assert csv_bytes(tmp_path / "chunked.csv", GRADIENT, chunked) == csv_bytes(tmp_path / "whole.csv", GRADIENT, whole)


def test_grid_and_sweep_equal_whole_array_columns(tmp_path):
    model = BG_DEFECTOR_BRIBES_BASE
    th = thresholds(replace(model, r_p=0.5))
    # 97 * 89 cells span three chunks, and the first cell is a knife edge (an empty basin)
    grid = regime_grid(model, th.f_min, 6.0, 0.5, 5.0, 97, 89)
    token, _, basin = grid_regimes(grid)  # every cell in one whole-array call
    assert token.size % CHUNK and token.size > 2 * CHUNK and token[0, 0] == "knife_edge"
    whole = ColumnRows(
        np.repeat(grid.f_values, len(grid.rp_values)),
        np.tile(grid.rp_values, len(grid.f_values)),
        token.ravel(),
        np.ma.masked_invalid(basin.ravel()),
    )
    assert csv_bytes(tmp_path / "grid.csv", grid.HEADER, grid) == csv_bytes(tmp_path / "whole.csv", grid.HEADER, whole)

    sweep = sweep_root(model, "f", th.f_min, 6.0, 2 * CHUNK + 5)
    token, x_star, basin = sweep_regimes(sweep)
    whole = ColumnRows(sweep.points, token, np.ma.masked_invalid(x_star), np.ma.masked_invalid(basin))
    assert csv_bytes(tmp_path / "sweep.csv", sweep.HEADER, sweep) == csv_bytes(tmp_path / "all.csv", sweep.HEADER, whole)


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
    # the chunks alone, made as write_csv makes them, as formatting 200001 traced rows takes seconds
    def make_all():
        rows = gradient_rows(IPGG_BISTABLE, 200_001)
        for start in range(0, len(rows), CHUNK):
            rows.make(start, min(start + CHUNK, len(rows)))

    assert traced_peak(make_all) < 2**20


# cells classified up front, as whole arrays, peak at ~3.7 MiB for this grid and ~4.4 MiB for this sweep
def test_grid_csv_working_memory_is_bounded(tmp_path):
    def write():
        grid = regime_grid(BG_DEFECTOR_BRIBES_BASE, 1.2, 6.0, 0.5, 5.0, 300, 300)
        write_csv(tmp_path / "grid.csv", grid.HEADER, grid, [])

    assert traced_peak(write) < 2 * 2**20


def test_sweep_csv_working_memory_is_bounded(tmp_path):
    def write():
        sweep = sweep_root(IPGG_BISTABLE, "f", 1.05, 8.0, 90_000)
        write_csv(tmp_path / "sweep.csv", sweep.HEADER, sweep, [])

    assert traced_peak(write) < 2.5 * 2**20


def test_regime_tokens_are_references_to_four_strings():
    f, r_p = np.linspace(1.2, 6.0, 200), np.linspace(0.5, 5.0, 200)
    token = classify_regimes(BG_DEFECTOR_BRIBES_BASE, f=f[:, None], r_p=r_p[None, :]).token
    assert token.dtype == object and token.shape == (200, 200)
    assert token.nbytes <= 8 * token.size
    assert len({id(cell) for cell in token.flat}) <= 4
