"""Deterministic CSV and SVG emission.

CSV files are UTF-8 with LF line endings, ``,`` separators and ``.``
decimal points.  Floats are printed with 17 significant digits so the
files are byte-stable and round-trip to the exact double.  A leading
``#`` comment block echoes the configuration and the subcommand options,
making every artifact self-describing; readers skip those lines.
:func:`write_csv` formats ``CHUNK`` rows with one ``%`` operation: the
row format repeated once per row, applied to the chunk's cells in row
order.

SVG output is a convenience rendering of any emitted CSV (line plot, or
heatmap for the regime-grid schema); numeric results live in the CSV.
"""

from __future__ import annotations

import os
from itertools import chain
from math import isfinite

import numpy as np

__all__ = [
    "fmt_float",
    "fmt_cell",
    "fmt_quantity",
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


class ColumnRows:
    """Rows held as equal-length columns: lists, tuples or numpy arrays.

    :func:`write_csv` formats them column by column, ``CHUNK`` rows at a
    time; a numpy column becomes Python values and text one chunk at a
    time, never for the whole file at once.
    """

    def __init__(self, *columns):
        if len({len(column) for column in columns}) > 1:
            raise ValueError(f"columns of unequal length: {[len(column) for column in columns]}")
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0


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


def write_csv(path, header: list[str], rows, meta: list[str]) -> None:
    """Write ``meta`` as ``#`` lines, then ``header`` and ``rows``.

    ``rows`` is a :class:`ColumnRows` or a sequence of equal-length rows,
    which is first transposed into one; its width must be the header's.
    Every cell is written as :func:`fmt_cell` writes it.  Each chunk of
    ``CHUNK`` rows is one ``%`` operation: the row format repeated once
    per row, applied to the chunk's cells flattened in row order.
    """
    if not isinstance(rows, ColumnRows):
        rows = ColumnRows(*zip(*rows, strict=True))
    if rows.columns and len(rows.columns) != len(header):
        raise ValueError(f"{path}: {len(header)} header fields for {len(rows.columns)} columns")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for line in meta:
            handle.write(f"# {line}\n")
        handle.write(",".join(header) + "\n")
        for start in range(0, len(rows), CHUNK):
            fields, chunks = zip(*(_column_field(column[start:start + CHUNK]) for column in rows.columns))
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


def _svg_header(title: str) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH:g}" height="{_HEIGHT:g}" viewBox="0 0 {_WIDTH:g} {_HEIGHT:g}">',
        f'<rect width="{_WIDTH:g}" height="{_HEIGHT:g}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{title}</text>',
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
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / x_span * plot_w

    def py(y: float) -> float:
        return _HEIGHT - _MARGIN_B - (y - y_lo) / y_span * plot_h

    parts = _svg_header(title)
    parts.append(
        f'<rect x="{_MARGIN_L:g}" y="{_MARGIN_T:g}" width="{plot_w:g}" height="{plot_h:g}" '
        'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x_val = x_lo + frac * x_span
        y_val = y_lo + frac * y_span
        parts.append(
            f'<text x="{px(x_val):.2f}" y="{_HEIGHT - _MARGIN_B + 16:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{x_val:.4g}</text>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 6:.2f}" y="{py(y_val) + 3:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{y_val:.4g}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.2f}" y="{_HEIGHT - 8:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">{xlabel}</text>'
    )
    for index, (name, xs, ys) in enumerate(series):
        color = _PALETTE[index % len(_PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        if points:
            parts.append(
                f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        parts.append(
            f'<text x="{_WIDTH - _MARGIN_R - 6:.2f}" y="{_MARGIN_T + 14 + 14 * index:.2f}" '
            f'text-anchor="end" font-family="sans-serif" font-size="11" fill="{color}">{name}</text>'
        )
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
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B
    cell_w = plot_w / len(f_values)
    cell_h = plot_h / len(rp_values)
    parts = _svg_header(title)
    for i, f in enumerate(f_values):
        for j, rp in enumerate(rp_values):
            x = _MARGIN_L + i * cell_w
            y = _HEIGHT - _MARGIN_B - (j + 1) * cell_h
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{cell_w:.2f}" height="{cell_h:.2f}" '
                f'fill="{_heat_color(lookup.get((f, rp)))}"/>'
            )
    parts.append(
        f'<rect x="{_MARGIN_L:g}" y="{_MARGIN_T:g}" width="{plot_w:g}" height="{plot_h:g}" '
        'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{_MARGIN_L:.2f}" y="{_HEIGHT - _MARGIN_B + 16:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="10">{float(f_values[0]):.4g}</text>'
    )
    parts.append(
        f'<text x="{_WIDTH - _MARGIN_R:.2f}" y="{_HEIGHT - _MARGIN_B + 16:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="10">{float(f_values[-1]):.4g}</text>'
    )
    parts.append(
        f'<text x="{_MARGIN_L - 6:.2f}" y="{_HEIGHT - _MARGIN_B:.2f}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">{float(rp_values[0]):.4g}</text>'
    )
    parts.append(
        f'<text x="{_MARGIN_L - 6:.2f}" y="{_MARGIN_T + 10:.2f}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">{float(rp_values[-1]):.4g}</text>'
    )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.2f}" y="{_HEIGHT - 8:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">pool multiplier f (x), punishment multiplier r_p (y), '
        'shade = basin of full cooperation</text>'
    )
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
        with open(svg_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(svg)
    except OSError as err:
        raise OSError(f"cannot write {svg_path}: {err}") from err
    return svg_path
