"""The chunked CSV writer against the per-row ``fmt_cell`` loop, and its all-or-nothing files."""

import os
import stat
import threading
from decimal import Decimal

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from pgg_bribery import output
from pgg_bribery.cli import gradient_rows
from pgg_bribery.output import CHUNK, ColumnRows, LazyRows, fmt_cell, write_csv, write_plot
from pgg_bribery.presets import IPGG_BISTABLE

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
    """What the writer wrote row by row, one ``fmt_cell`` per cell; a masked cell is ``None``."""
    lines = [f"# {line}\n" for line in meta] + [",".join(header) + "\n"]
    lines += [",".join(fmt_cell(None if cell is np.ma.masked else cell) for cell in row) + "\n" for row in rows]
    return "".join(lines).encode("utf-8")


@st.composite
def columns(draw):
    """Equal-length columns: float arrays, masked float arrays, float lists, mixed-cell lists, string lists.

    Each column repeats a short drawn pattern, so chunk-sized row counts stay cheap.
    """
    rows = draw(ROW_COUNTS)
    result = []
    kinds = st.sampled_from(["array", "masked", "floats", "cells", "text"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=4)):
        cells = {"array": FLOATS, "masked": FLOATS, "floats": FLOATS, "cells": CELLS, "text": TEXT}[kind]
        pattern = draw(st.lists(cells, min_size=1, max_size=9))
        values = [pattern[i % len(pattern)] for i in range(rows)]
        if kind == "masked":
            mask = draw(st.lists(st.booleans(), min_size=len(pattern), max_size=len(pattern)))
            values = np.ma.array(values, dtype=float, mask=[mask[i % len(mask)] for i in range(rows)])
        result.append(np.array(values, dtype=float) if kind == "array" else values)
    return result


@settings(max_examples=80, deadline=None)
@given(columns(), st.booleans())
def test_write_csv_matches_the_per_row_loop(tmp_path_factory, cols, as_row_list):
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    header = [f"c{i}" for i in range(len(cols))]
    # a row holds cells, so a masked cell there is None
    cells = [col.tolist() if np.ma.isMaskedArray(col) else col for col in cols]
    rows = list(zip(*cells)) if as_row_list else ColumnRows(*cols)
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
    [np.array([0.1, 1e-5, -0.0, float("nan"), float("-inf"), -123456.789, 1e17, 2.5e-300, 0.00012, 1e16])],
    [np.ma.array([0.5, float("nan"), 1 / 3, -0.0], mask=[0, 0, 1, 0]), np.ma.array([1, 2, 3, 4], mask=[1, 0, 0, 0]),
     np.ma.array(["a", "b", "%s", "d"], mask=[0, 1, 0, 0]), np.longdouble(1) / np.arange(1, 5)],
], ids=["percent_strings", "one_column", "float32_array", "fixed_and_exponent_float64", "masked_and_longdouble"])
def test_cells_stay_literal_and_floats_keep_their_bytes(tmp_path, cols):
    # a cell such as "%s" is written as it is; a float32 or longdouble cell as the double
    # float() gives it; a masked cell, of any dtype, is empty and an unmasked nan is "nan"
    header = [f"c{i}" for i in range(len(cols))]
    cols = [(np.ma if np.ma.isMaskedArray(col) else np).concatenate([col] * (CHUNK // 2))
            if isinstance(col, np.ndarray) else col * (CHUNK // 2) for col in cols]
    write_csv(tmp_path / "out.csv", header, ColumnRows(*cols), [])
    assert (tmp_path / "out.csv").read_bytes() == reference_bytes(header, zip(*cols), [])


def edge_floats() -> list[float]:
    """Powers of ten and their neighbours, the notation edges, 18-digit ties, zeros, subnormals, non-finite."""
    values = []
    for k in range(-6, 19):
        power = float(f"1e{k}")  # the double nearest 10**k
        values += [power, np.nextafter(power, 0.0), np.nextafter(power, np.inf), 1.5 * power, 9.5 * power]
    # exactly halfway between two 17-digit decimals: "%.17g" rounds them to even
    ties = [10**15 + 0.25, 10**15 + 0.75, 10**14 + 0.125, 10**14 + 0.375, 2.0**49 + 0.625]
    assert all(len(Decimal(tie).as_tuple().digits) == 18 for tie in ties)
    values += ties + [0.0, 5e-324, 2.225073858507201e-308, 1.7976931348623157e308, np.inf, np.nan, 1 / 3, 0.1]
    return [float(value) for value in values] + [-float(value) for value in values]


def test_float_columns_are_percent_17g_byte_for_byte(tmp_path):
    edges = np.array(edge_floats())
    rng = np.random.default_rng(7)
    spread = 10.0 ** rng.uniform(-7, 19, CHUNK + 1) * rng.choice([-1.0, 1.0], CHUNK + 1)
    patterns = rng.integers(0, 2**64, CHUNK + 1, dtype=np.uint64).view(np.float64)
    for rows in (len(edges), CHUNK - 1, CHUNK, CHUNK + 1):
        columns = np.resize(edges, rows), spread[:rows], patterns[:rows]
        write_csv(tmp_path / "out.csv", ["v", "w", "u"], ColumnRows(*columns), [])
        expected = "".join(f"{v:.17g},{w:.17g},{u:.17g}\n" for v, w, u in zip(*(c.tolist() for c in columns)))
        assert (tmp_path / "out.csv").read_bytes() == ("v,w,u\n" + expected).encode()


def test_at_most_one_float_in_a_hundred_is_formatted_by_python():
    # the lanes "%.17g" formats one at a time: the numpy digits of the rest are certain
    x, q, g = gradient_rows(IPGG_BISTABLE, 200_001).make(0, CHUNK)
    for values in (np.linspace(0, 1, 10**5), x, q, g):
        _, _, certain = output._seventeen_digits(values)
        assert np.mean(~certain & (values != 0)) <= 0.01


def test_unequal_columns_are_refused_before_writing(tmp_path):
    with pytest.raises(ValueError, match="unequal length"):
        write_csv(tmp_path / "out.csv", ["a", "b"], ColumnRows([1.0, 2.0, 3.0], [4.0]), [])
    # a lazy chunk's columns are checked as the chunk is made
    short = LazyRows(5, lambda start, stop: [range(start, stop), range(start, stop - 1)])
    with pytest.raises(ValueError, match=r"2 header fields for 2 columns of \[5, 4\] rows, in rows 0 to 5"):
        write_csv(tmp_path / "out.csv", ["a", "b"], short, [])
    assert os.listdir(tmp_path) == []


def test_ragged_rows_are_refused_before_writing(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "out.csv", ["a", "b"], [(1.0, 2.0), (3.0,)], [])
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("header, rows, columns", [
    (["a", "b", "c"], ColumnRows([1.0, 2.0], [3.0, 4.0]), 2),
    (["a"], [(1.0, 2.0)], 2),
    (["x", "q"], gradient_rows(IPGG_BISTABLE, 3), 3),
    (["a", "b"], LazyRows(CHUNK + 1, lambda start, stop: [range(start, stop)] * (3 if start else 2)), 3),
], ids=["wide_header", "narrow_header", "gradient", "second_chunk"])
def test_a_header_of_another_width_is_refused_before_writing(tmp_path, header, rows, columns):
    with pytest.raises(ValueError, match=f"{len(header)} header fields for {columns} columns"):
        write_csv(tmp_path / "out.csv", header, rows, [])
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_a_failing_chunk_leaves_an_existing_file_untouched(tmp_path, error):
    def make(start, stop):
        if start:
            raise error("second chunk")
        return [np.arange(start, stop, dtype=float)]

    path = tmp_path / "out.csv"
    path.write_bytes(b"# old\na\n1\n")
    with pytest.raises(error, match="second chunk"):
        write_csv(path, ["a"], LazyRows(2 * CHUNK, make), ["new"])
    assert path.read_bytes() == b"# old\na\n1\n"
    assert os.listdir(tmp_path) == ["out.csv"]


@pytest.mark.parametrize("umask", [0o022, 0o027])
def test_a_written_csv_has_the_mode_of_a_plain_open(tmp_path, umask):
    previous = os.umask(umask)
    try:
        with open(tmp_path / "plain.csv", "w"):
            pass
        write_csv(tmp_path / "out.csv", ["a"], [(1.0,)], [])
    finally:
        os.umask(previous)
    assert (tmp_path / "out.csv").stat().st_mode == (tmp_path / "plain.csv").stat().st_mode == 0o100666 & ~umask


def test_a_file_at_the_partial_name_is_neither_reused_nor_removed(tmp_path):
    partial = tmp_path / f"out.csv.{os.getpid()}.partial"
    partial.write_bytes(b"not the writer's\n")
    with pytest.raises(FileExistsError):
        write_csv(tmp_path / "out.csv", ["a"], [(1.0,)], [])
    assert partial.read_bytes() == b"not the writer's\n"
    assert os.listdir(tmp_path) == [partial.name]


def test_a_symlink_target_is_written_through(tmp_path):
    real, link = tmp_path / "real.csv", tmp_path / "link.csv"
    real.write_bytes(b"old\n")
    link.symlink_to(real)
    write_csv(link, ["a"], [(1.0,)], [])
    assert link.is_symlink() and real.read_bytes() == b"a\n1\n"
    assert sorted(os.listdir(tmp_path)) == ["link.csv", "real.csv"]


def test_a_plot_to_a_fifo_is_written_through_and_leaves_the_fifo(tmp_path):
    csv_path, fifo = tmp_path / "out.csv", tmp_path / "out.fifo"
    write_csv(csv_path, ["x", "y"], [(0.0, 1.0), (1.0, 2.0)], [])
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    write_plot(str(csv_path), str(fifo))
    reader.join(timeout=10)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert received == [output.render_csv_plot(str(csv_path)).encode("utf-8")]
    assert sorted(os.listdir(tmp_path)) == ["out.csv", "out.fifo"]


def test_a_failing_svg_write_leaves_an_existing_file_untouched(tmp_path, monkeypatch):
    csv_path = tmp_path / "out.csv"
    write_csv(csv_path, ["x", "y"], [(0.0, 1.0), (1.0, 2.0)], [])
    write_plot(str(csv_path))
    before = (tmp_path / "out.svg").read_bytes()
    # a lone surrogate cannot be encoded: the write fails after the file is opened
    monkeypatch.setattr(output, "render_csv_plot", lambda path: "<svg>\ud800</svg>\n")
    with pytest.raises(UnicodeEncodeError):
        write_plot(str(csv_path))
    assert (tmp_path / "out.svg").read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["out.csv", "out.svg"]
