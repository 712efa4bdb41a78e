"""Deterministic CSV and SVG emission.

CSV files are UTF-8 with LF line endings, ``,`` separators and ``.``
decimal points.  Floats are printed with 17 significant digits so the
files are byte-stable and round-trip to the exact double.  A leading
``#`` comment block echoes the configuration and the subcommand options,
making every artifact self-describing; readers skip those lines.

SVG output is a convenience rendering of any emitted CSV (line plot, or
heatmap for the regime-grid schema); numeric results live in the CSV.
"""

from __future__ import annotations

import os

__all__ = [
    "fmt_float",
    "fmt_cell",
    "fmt_quantity",
    "ColumnRows",
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
    """Rows read across equal-length columns, one tuple at a time.

    Lets a long output be written without holding a tuple per row.
    """

    def __init__(self, *columns):
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        return zip(*self.columns)


def write_csv(path, header: list[str], rows, meta: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for line in meta:
            handle.write(f"# {line}\n")
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(fmt_cell(cell) for cell in row) + "\n")


def read_csv(path) -> tuple[list[str], list[str], list[list[str]]]:
    """Read back an emitted CSV: (meta lines, header, string rows)."""
    meta: list[str] = []
    header: list[str] | None = None
    rows: list[list[str]] = []
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
    if header is None:
        raise ValueError(f"{path} contains no header row")
    return meta, header, rows


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
    """Render a previously emitted CSV as a standalone SVG document."""
    meta, header, rows = read_csv(path)
    title = os.path.basename(str(path))
    if header == ["f", "r_p", "regime", "basin"]:
        f_values = sorted({float(row[0]) for row in rows})
        rp_values = sorted({float(row[1]) for row in rows})
        lookup = {
            (float(row[0]), float(row[1])): (float(row[3]) if row[3] != "" else None)
            for row in rows
        }
        return _heatmap_svg(f_values, rp_values, lookup, title)

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
        xs = [float(row[x_index]) for row in rows if row[i] != "" and row[x_index] != ""]
        ys = [float(row[i]) for row in rows if row[i] != "" and row[x_index] != ""]
        series.append((header[i], xs, ys))
    if not series:  # a single numeric column plots against the row index
        ys = [float(row[x_index]) for row in rows if row[x_index] != ""]
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
