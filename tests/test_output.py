"""The chunked CSV writer against the per-row ``fmt_cell`` loop."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from pgg_bribery.output import CHUNK, ColumnRows, fmt_cell, write_csv

SPECIAL_FLOATS = [
    float("nan"), float("inf"), float("-inf"), 0.0, -0.0,
    5e-324, 2.225073858507201e-308, 1.7976931348623157e308,
    0.1, 1 / 3, 0.30000000000000004, 123456789.01234567, -9.8765432109876543e-100,
]
FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(SPECIAL_FLOATS)
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
CELLS = FLOATS | st.none() | TEXT | st.integers(-(10**20), 10**20) | st.booleans()
ROW_COUNTS = st.sampled_from([0, 1, CHUNK - 1, CHUNK, CHUNK + 1]) | st.integers(0, 12)


def reference_bytes(header, rows, meta) -> bytes:
    """What the writer wrote row by row, one ``fmt_cell`` per cell."""
    lines = [f"# {line}\n" for line in meta] + [",".join(header) + "\n"]
    lines += [",".join(fmt_cell(cell) for cell in row) + "\n" for row in rows]
    return "".join(lines).encode("utf-8")


@st.composite
def columns(draw):
    """Equal-length columns: float arrays, float lists, mixed-cell lists, string lists.

    Each column repeats a short drawn pattern, so chunk-sized row counts stay cheap.
    """
    rows = draw(ROW_COUNTS)
    result = []
    for kind in draw(st.lists(st.sampled_from(["array", "floats", "cells", "text"]), min_size=1, max_size=4)):
        cells = {"array": FLOATS, "floats": FLOATS, "cells": CELLS, "text": TEXT}[kind]
        pattern = draw(st.lists(cells, min_size=1, max_size=9))
        values = [pattern[i % len(pattern)] for i in range(rows)]
        result.append(np.array(values, dtype=float) if kind == "array" else values)
    return result


@settings(max_examples=80, deadline=None)
@given(columns(), st.booleans())
def test_write_csv_matches_the_per_row_loop(tmp_path_factory, cols, as_row_list):
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    header = [f"c{i}" for i in range(len(cols))]
    rows = list(zip(*cols)) if as_row_list else ColumnRows(*cols)
    write_csv(path, header, rows, ["meta line", "key=value"])
    assert path.read_bytes() == reference_bytes(header, zip(*cols), ["meta line", "key=value"])


def test_chunks_of_one_column_may_differ_in_kind(tmp_path):
    # floats for the whole first chunk, then a missing value in the second
    values = [0.5] * CHUNK + [None, 0.25]
    labels = ["bistable"] * CHUNK + [None, "x"]
    write_csv(tmp_path / "out.csv", ["a", "b"], ColumnRows(values, labels), [])
    assert (tmp_path / "out.csv").read_bytes() == reference_bytes(["a", "b"], zip(values, labels), [])


@pytest.mark.parametrize("cols", [
    [["%s", "%%", "%(a)s", "%.17g", "100%"], [1.5, 2.5, 3.5, 4.5, 5.5]],
    [np.array([0.1, float("nan"), -0.0, 1e300])],
    [np.array([0.1, 1 / 3, float("inf"), -0.0], dtype=np.float32), ["a", "%d", "b", "%"]],
], ids=["percent_strings", "one_column", "float32_array"])
def test_one_format_per_chunk_writes_the_per_row_bytes(tmp_path, cols):
    # cells are the operands of the chunk's one `%`, never part of its format
    header = [f"c{i}" for i in range(len(cols))]
    cols = [np.concatenate([col] * (CHUNK // 2)) if isinstance(col, np.ndarray) else col * (CHUNK // 2)
            for col in cols]
    write_csv(tmp_path / "out.csv", header, ColumnRows(*cols), [])
    assert (tmp_path / "out.csv").read_bytes() == reference_bytes(header, zip(*cols), [])


def test_unequal_columns_are_refused_before_writing(tmp_path):
    with pytest.raises(ValueError, match="unequal length"):
        write_csv(tmp_path / "out.csv", ["a", "b"], ColumnRows([1.0, 2.0, 3.0], [4.0]), [])
    assert not (tmp_path / "out.csv").exists()


def test_ragged_rows_are_refused_before_writing(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "out.csv", ["a", "b"], [(1.0, 2.0), (3.0,)], [])
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("header, rows", [
    (["a", "b", "c"], ColumnRows([1.0, 2.0], [3.0, 4.0])),
    (["a"], [(1.0, 2.0)]),
], ids=["wide_header", "narrow_header"])
def test_a_header_of_another_width_is_refused_before_writing(tmp_path, header, rows):
    with pytest.raises(ValueError, match=f"{len(header)} header fields for 2 columns"):
        write_csv(tmp_path / "out.csv", header, rows, [])
    assert not (tmp_path / "out.csv").exists()
