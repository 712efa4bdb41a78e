"""Deterministic CSV and SVG emission.

CSV files are UTF-8 with LF line endings, ``,`` separators and ``.``
decimal points.  Floats are printed with 17 significant digits so the
files are byte-stable and round-trip to the exact double.  A leading
``#`` comment block echoes the configuration and the subcommand options,
making every artifact self-describing; readers skip those lines.
:func:`write_csv` formats ``CHUNK`` rows with one ``%`` operation: the
row format repeated once per row, applied to the chunk's cells in row
order.  Both writers write a missing or regular-file target whole or not
at all, and any other target through (see :func:`_all_or_nothing`).

SVG output is a convenience rendering of any emitted CSV (line plot, or
heatmap for the regime-grid schema); numeric results live in the CSV.
"""

from __future__ import annotations

import os
import stat
from contextlib import contextmanager, suppress
from itertools import chain
from math import isfinite

import numpy as np

__all__ = [
    "fmt_float",
    "fmt_cell",
    "fmt_quantity",
    "LazyRows",
    "ColumnRows",
    "CHUNK",
    "write_csv",
    "read_csv",
    "render_csv_plot",
    "write_plot",
]


def fmt_float(value: float) -> str:
    """17 significant digits: enough to reconstruct the double exactly."""
    return format(float(value), ".17g")


def fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return fmt_float(value)


def fmt_quantity(value: float) -> str:
    """Human-facing number for stdout summaries (12-decimal rounded repr)."""
    return repr(round(float(value), 12))


class LazyRows:
    """``length`` rows made a chunk at a time.

    ``make(start, stop)`` returns every column of rows ``start`` to
    ``stop``; :func:`write_csv` calls it once per chunk of ``CHUNK`` rows,
    so a column of the whole file never exists unless the caller holds it.
    """

    def __init__(self, length: int, make):
        self.length, self.make = length, make

    def __len__(self) -> int:
        return self.length


class ColumnRows(LazyRows):
    """Rows held as equal-length columns: lists, tuples, ranges or numpy arrays.

    :func:`write_csv` slices them ``CHUNK`` rows at a time, so a numpy
    column becomes Python values and text one chunk at a time, never for
    the whole file at once.
    """

    def __init__(self, *columns):
        if len({len(column) for column in columns}) > 1:
            raise ValueError(f"columns of unequal length: {[len(column) for column in columns]}")
        super().__init__(len(columns[0]) if columns else 0, lambda start, stop: [c[start:stop] for c in columns])


CHUNK = 4096  # rows formatted per write


def _column_field(values) -> tuple[str, list]:
    """The row-format field of one column chunk and the values it formats.

    A chunk of floats keeps its values under ``%.17g`` (the bytes of
    :func:`fmt_float`); any other chunk becomes text, strings as they are
    and every other cell through :func:`fmt_cell`.  A ``float64`` array
    holds only floats, so it skips the per-value type scan.
    """
    if isinstance(values, np.ndarray):
        if values.dtype == np.float64:
            return "%.17g", values.tolist()
        values = values.tolist()
    if all(type(value) is float for value in values):
        return "%.17g", values
    return "%s", [value if type(value) is str else fmt_cell(value) for value in values]


@contextmanager
def _all_or_nothing(path):
    """A handle on ``path``, written whole or not at all if ``path`` is missing or a regular file.

    Such a target is written as ``<path>.<pid>.partial``, made anew with a plain ``open``'s mode,
    renamed over ``path`` at the end, and removed on any exception.  Any other target (a symlink,
    a device, a FIFO) is written through, as ``open(path, "w")`` writes it.
    """
    if os.path.lexists(path) and not stat.S_ISREG(os.lstat(path).st_mode):
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
        return
    partial = f"{os.fspath(path)}.{os.getpid()}.partial"
    handle = open(partial, "x", encoding="utf-8", newline="\n")
    try:
        with handle:
            yield handle
        os.replace(partial, path)
    except BaseException:
        with suppress(OSError):
            os.remove(partial)
        raise


def write_csv(path, header: list[str], rows, meta: list[str]) -> None:
    """Write ``meta`` as ``#`` lines, then ``header`` and ``rows``, or no file at all.

    ``rows`` is a :class:`LazyRows` (a :class:`ColumnRows` among them) or
    a sequence of equal-length rows, which is first transposed into
    columns.  A chunk whose columns are not one per header field, each of
    the chunk's length, raises ``ValueError``.  Each cell is written as
    :func:`fmt_cell` writes it, each chunk of ``CHUNK`` rows with one ``%``
    operation: the row format repeated once per row, applied to the
    chunk's cells flattened in row order.
    """
    if not isinstance(rows, LazyRows):
        rows = ColumnRows(*zip(*rows, strict=True))
    with _all_or_nothing(path) as handle:
        for line in meta:
            handle.write(f"# {line}\n")
        handle.write(",".join(header) + "\n")
        for start in range(0, len(rows), CHUNK):
            stop = min(start + CHUNK, len(rows))
            columns = rows.make(start, stop)
            lengths = [len(column) for column in columns]
            if lengths != [stop - start] * len(header):
                raise ValueError(f"{path}: {len(header)} header fields for {len(lengths)} columns "
                                 f"of {lengths} rows, in rows {start} to {stop}")
            fields, chunks = zip(*map(_column_field, columns))
            row_format = ",".join(fields) + "\n"
            handle.write((row_format * len(chunks[0])) % tuple(chain.from_iterable(zip(*chunks))))


def read_csv(path) -> tuple[list[str], list[str], list[list[str]]]:
    """Read back an emitted CSV: (meta lines, header, string rows)."""
    return _read_table(path)[:3]


def _read_table(path) -> tuple[list[str], list[str], list[list[str]], list[int]]:
    """:func:`read_csv`, plus the line number of each row."""
    meta: list[str] = []
    header: list[str] | None = None
    rows: list[list[str]] = []
    linenos: list[int] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if line.startswith("#"):
                meta.append(line[1:].strip())
                continue
            if not line:
                continue
            fields = line.split(",")
            if header is None:
                header = fields
            elif len(fields) != len(header):
                raise ValueError(
                    f"{path}: line {lineno}: {len(fields)} fields, the header has {len(header)}"
                )
            else:
                rows.append(fields)
                linenos.append(lineno)
    if header is None:
        raise ValueError(f"{path} contains no header row")
    return meta, header, rows, linenos


# ---------------------------------------------------------------------------
# SVG rendering

_WIDTH, _HEIGHT = 640.0, 480.0
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64.0, 20.0, 34.0, 44.0
_PLOT_W, _PLOT_H = _WIDTH - _MARGIN_L - _MARGIN_R, _HEIGHT - _MARGIN_T - _MARGIN_B
_FRAME = (
    f'<rect x="{_MARGIN_L:g}" y="{_MARGIN_T:g}" width="{_PLOT_W:g}" height="{_PLOT_H:g}" '
    'fill="none" stroke="#333333" stroke-width="1"/>'
)
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def _is_number(cell: str) -> bool:
    if cell == "":
        return True  # empty cells are gaps, not categories
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _is_finite_number(cell: str) -> bool:
    try:
        return isfinite(float(cell))
    except ValueError:
        return False


def _text(x, y, anchor: str, size: int, body: str, fill: str = "") -> str:
    """One ``<text>`` element; a numeric coordinate is written with two decimals, a string as it is."""
    x, y = (v if isinstance(v, str) else f"{v:.2f}" for v in (x, y))
    color = f' fill="{fill}"' if fill else ""
    return (
        f'<text x="{x}" y="{y}" text-anchor="{anchor}" '
        f'font-family="sans-serif" font-size="{size}"{color}>{body}</text>'
    )


def _x_label(body: str) -> str:
    return _text(_MARGIN_L + _PLOT_W / 2, _HEIGHT - 8, "middle", 11, body)


def _svg_header(title: str) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH:g}" height="{_HEIGHT:g}" viewBox="0 0 {_WIDTH:g} {_HEIGHT:g}">',
        f'<rect width="{_WIDTH:g}" height="{_HEIGHT:g}" fill="white"/>',
        _text(f"{_WIDTH / 2:.1f}", "20", "middle", 13, title),
    ]


def _scale(lo: float, hi: float):
    if hi == lo:
        hi = lo + 1.0
    span = hi - lo
    return lo, span


def _line_plot_svg(xlabel: str, series: list[tuple[str, list[float], list[float]]], title: str) -> str:
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_span = _scale(min(xs_all), max(xs_all))
    y_lo, y_span = _scale(min(ys_all), max(ys_all))

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / x_span * _PLOT_W

    def py(y: float) -> float:
        return _HEIGHT - _MARGIN_B - (y - y_lo) / y_span * _PLOT_H

    parts = _svg_header(title)
    parts.append(_FRAME)
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x_val = x_lo + frac * x_span
        y_val = y_lo + frac * y_span
        parts.append(_text(px(x_val), _HEIGHT - _MARGIN_B + 16, "middle", 10, f"{x_val:.4g}"))
        parts.append(_text(_MARGIN_L - 6, py(y_val) + 3, "end", 10, f"{y_val:.4g}"))
    parts.append(_x_label(xlabel))
    for index, (name, xs, ys) in enumerate(series):
        color = _PALETTE[index % len(_PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        if points:
            parts.append(
                f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        parts.append(_text(_WIDTH - _MARGIN_R - 6, _MARGIN_T + 14 + 14 * index, "end", 11, name, color))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _heat_color(value: float | None) -> str:
    if value is None:
        return "#cccccc"
    value = min(1.0, max(0.0, value))
    # white -> blue ramp
    red = round(255 * (1.0 - value) + 31 * value)
    green = round(255 * (1.0 - value) + 119 * value)
    blue = round(255 * (1.0 - value) + 180 * value)
    return f"#{red:02x}{green:02x}{blue:02x}"


def _heatmap_svg(f_values, rp_values, lookup, title: str) -> str:
    cell_w = _PLOT_W / len(f_values)
    cell_h = _PLOT_H / len(rp_values)
    parts = _svg_header(title)
    for i, f in enumerate(f_values):
        for j, rp in enumerate(rp_values):
            x = _MARGIN_L + i * cell_w
            y = _HEIGHT - _MARGIN_B - (j + 1) * cell_h
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{cell_w:.2f}" height="{cell_h:.2f}" '
                f'fill="{_heat_color(lookup.get((f, rp)))}"/>'
            )
    parts.append(_FRAME)
    parts.append(_text(_MARGIN_L, _HEIGHT - _MARGIN_B + 16, "middle", 10, f"{float(f_values[0]):.4g}"))
    parts.append(_text(_WIDTH - _MARGIN_R, _HEIGHT - _MARGIN_B + 16, "middle", 10, f"{float(f_values[-1]):.4g}"))
    parts.append(_text(_MARGIN_L - 6, _HEIGHT - _MARGIN_B, "end", 10, f"{float(rp_values[0]):.4g}"))
    parts.append(_text(_MARGIN_L - 6, _MARGIN_T + 10, "end", 10, f"{float(rp_values[-1]):.4g}"))
    parts.append(_x_label("pool multiplier f (x), punishment multiplier r_p (y), shade = basin of full cooperation"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_csv_plot(path) -> str:
    """Render a previously emitted CSV as a standalone SVG document.

    Empty cells are gaps.  A plotted cell that is not a finite number is
    refused with ``ValueError`` naming the file and the line.
    """
    meta, header, rows, linenos = _read_table(path)
    if not rows:
        raise ValueError(f"{path}: no data rows to plot")
    title = os.path.basename(str(path))

    def numbers(column: int, keep: range | list[int]) -> list[float]:
        """The cells of ``column`` in the rows ``keep`` as floats, each finite."""
        try:
            values = [float(rows[k][column]) for k in keep]
            if all(map(isfinite, values)):
                return values
        except ValueError:
            pass
        bad = next(k for k in keep if not _is_finite_number(rows[k][column]))
        raise ValueError(f"{path}: line {linenos[bad]}: {header[column]} {rows[bad][column]!r} is not a finite number")

    every = range(len(rows))
    if header == ["f", "r_p", "regime", "basin"]:
        f_column, rp_column = numbers(0, every), numbers(1, every)
        filled = [k for k in every if rows[k][3] != ""]
        basins = dict(zip(filled, numbers(3, filled)))
        lookup = {(f_column[k], rp_column[k]): basins.get(k) for k in every}
        return _heatmap_svg(sorted(set(f_column)), sorted(set(rp_column)), lookup, title)

    numeric = [
        all(_is_number(row[i]) for row in rows) and any(row[i] != "" for row in rows)
        for i in range(len(header))
    ]
    numeric_columns = [i for i, flag in enumerate(numeric) if flag]
    if not numeric_columns:
        raise ValueError(f"{path}: no numeric column to plot")
    x_index = numeric_columns[0]
    series = []
    for i in numeric_columns[1:]:
        plotted = [k for k in every if rows[k][i] != "" and rows[k][x_index] != ""]
        series.append((header[i], numbers(x_index, plotted), numbers(i, plotted)))
    if not series:  # a single numeric column plots against the row index
        ys = numbers(x_index, [k for k in every if rows[k][x_index] != ""])
        return _line_plot_svg("row", [(header[x_index], list(map(float, range(len(ys)))), ys)], title)
    return _line_plot_svg(header[x_index], series, title)


def write_plot(csv_path, svg_path=None) -> str:
    """Render ``csv_path`` to ``svg_path`` (default: beside it, ``.svg``) and return that path."""
    try:
        svg = render_csv_plot(csv_path)
    except OSError as err:
        raise OSError(f"cannot read {csv_path}: {err}") from err
    svg_path = svg_path or os.path.splitext(csv_path)[0] + ".svg"
    try:
        with _all_or_nothing(svg_path) as handle:
            handle.write(svg)
    except OSError as err:
        raise OSError(f"cannot write {svg_path}: {err}") from err
    return svg_path
