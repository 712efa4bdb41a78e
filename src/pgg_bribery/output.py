"""Deterministic CSV and SVG emission.

CSV files are UTF-8 with LF line endings, ``,`` separators and ``.``
decimal points.  A float is printed as ``"%.17g"`` prints it, with 17
significant digits, so the files are byte-stable and round-trip to the
exact double.  A leading ``#`` comment block echoes the configuration and
the subcommand options, making every artifact self-describing; readers
skip those lines.  :func:`write_csv` formats ``CHUNK`` rows at a time.  A
float column chunk is a numpy float array, its masked cells (``numpy.ma``)
empty, formatted in numpy (:func:`_float_cells`): the 17 digits of a
double printed without an exponent come from an exact two-product, and
any other double, or one whose digits are not certain, goes through
``"%.17g"`` itself.  Any other column is written cell by cell with
:func:`fmt_cell`.  Both writers write a missing or regular-file target
whole or not at all, and any other target through (see
:func:`_all_or_nothing`).

SVG output is a convenience rendering of any emitted CSV (line plot, or
heatmap for the regime-grid schema); numeric results live in the CSV.
"""

from __future__ import annotations

import os
import stat
from contextlib import contextmanager, suppress
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
    """Rows held as equal-length columns: lists, tuples, ranges or numpy arrays, masked or not.

    :func:`write_csv` slices them ``CHUNK`` rows at a time, so a numpy
    column becomes text one chunk at a time, never for the whole file at
    once.
    """

    def __init__(self, *columns):
        if len({len(column) for column in columns}) > 1:
            raise ValueError(f"columns of unequal length: {[len(column) for column in columns]}")
        super().__init__(len(columns[0]) if columns else 0, lambda start, stop: [c[start:stop] for c in columns])


CHUNK = 4096  # rows formatted per write

# "%.17g" in numpy.  A nonzero finite double v whose decimal exponent e is in
# [-4, 16] is one "%.17g" prints without an exponent, and its 17 significant
# digits are the integer nearest v * 10**(16 - e).  Every 10**s with s <= 20 is
# a double, so Dekker's two-product gives that product exactly as p + err, p an
# integer-valued double and |err| <= 8: the integer is p + floor(err + 1/2).  A
# tie, which "%.17g" rounds to even, and an integer of other than 17 digits (a
# log10 off by one near a power of ten) leave the lane to "%.17g" itself, as do
# inf, nan and every exponent outside [-4, 16].  A cell is 24 bytes, three
# little-endian uint64 words: its text, its separator, then NUL.
_SPLITTER = 2.0**27 + 1  # Veltkamp's: splits a double into halves of at most 26 significant bits


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    big = _SPLITTER * a
    high = big - (big - a)
    return high, a - high


def _words(rows) -> np.ndarray:
    """Rows of at most 24 bytes, padded with NUL, as rows of three little-endian uint64 words."""
    return np.frombuffer(b"".join(row.ljust(24, b"\0") for row in rows), "<u8").reshape(-1, 3)


def _marks(point: int, end: int, sep: int) -> bytes:
    row = bytearray(24)
    row[end] = sep
    if point:
        row[point] = ord(".")
    return bytes(row)


_POW10 = np.array([float(10**s) for s in range(21)])
_POW10_HIGH, _POW10_LOW = _halves(_POW10)
# the four ASCII digits of 0..9999 as one uint32
_QUAD_TEXT = np.empty((10, 10, 10, 10, 4), np.uint8)
_DIGITS = np.frombuffer(b"0123456789", np.uint8)
_QUAD_TEXT[..., 0], _QUAD_TEXT[..., 1] = _DIGITS[:, None, None, None], _DIGITS[:, None, None]
_QUAD_TEXT[..., 2], _QUAD_TEXT[..., 3] = _DIGITS[:, None], _DIGITS
_QUAD_TEXT = _QUAD_TEXT.reshape(-1, 4).view("<u4")[:, 0]
_DIGIT_TEXT = _DIGITS.astype("<u4")
# by 20 * point + end, where the point (0 for none) and the separator go: the digit bytes
# kept in place, those moved up by one past the point, and the point and separator themselves
_LAYOUTS = [(point, end) for point in range(18) for end in range(20)]
_STAY = _words(b"\xff" * (min(point, end) if point else end) for point, end in _LAYOUTS)
_MOVE = _words(b"\0" * (point + 1) + b"\xff" * (end - point - 1) if point else b"" for point, end in _LAYOUTS)
_MARKS = {sep: _words(_marks(point, end, sep) for point, end in _LAYOUTS) for sep in b",\n"}
# the sign and "0.000" before the digits, by 2 * (e + 4) + (v < 0), and its length in bits
_PREFIXES = [("-" if negative else "") + ("0." + "0" * (-1 - e) if e < 0 else "")
             for e in range(-4, 17) for negative in (False, True)]
_PREFIX = np.frombuffer(b"".join(prefix.encode().ljust(8, b"\0") for prefix in _PREFIXES), "<u8")
_PREFIX_BITS = np.array([[8 * len(prefix)] * 3 for prefix in _PREFIXES], np.uint64)


def _seventeen_digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The decimal exponent e of each of ``values``, its 17 digits as one integer, and where they are certain.

    A lane is certain where it prints without an exponent, its digits are 17 long and it is
    no tie; any other lane has e = 0 and the digits 10**16.
    """
    a = np.abs(values)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    certain = (e >= -4) & (e <= 16)  # False for 0, inf and nan
    a[~certain], e[~certain] = 1.0, 0.0
    e = e.astype(np.intp)
    # a * 10**(16 - e) = product + err exactly, as every product of halves is exact
    scale = 16 - e
    power_high, power_low = np.take(_POW10_HIGH, scale), np.take(_POW10_LOW, scale)
    product = a * np.take(_POW10, scale)
    high, low = _halves(a)
    err = np.subtract(product, high * power_high)
    err -= low * power_high
    err -= high * power_low
    np.subtract(low * power_low, err, out=err)
    # the nearest integer is product + floor(err + 1/2); where err + 1/2 lands on an
    # integer, a tie or within an ulp of one, the lane is left to "%.17g"
    err += 0.5
    whole = np.floor(err)
    certain &= err != whole
    digits = product.astype(np.int64)
    digits += whole.astype(np.int64)
    certain &= (digits >= 10**16) & (digits < 10**17)
    digits[~certain] = 10**16  # so that every lane's groups of four index the digit tables
    return e, digits, certain


def _digit_text(digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 ASCII digits of each of ``digits`` at bytes 0..16 of three words, and how many end it as zeros."""
    first = digits // 10**13
    rest = digits - first * 10**13
    second = rest // 10**9
    rest -= second * 10**9
    third = rest // 10**5
    rest -= third * 10**5
    fourth = rest // 10
    rest -= fourth * 10
    text = np.empty((len(digits), 3), "<u8")
    quads = text.view("<u4")
    for column, quad in enumerate((first, second, third, fourth)):
        quads[:, column] = np.take(_QUAD_TEXT, quad)
    quads[:, 4], quads[:, 5] = np.take(_DIGIT_TEXT, rest), 0
    # the first digit is not 0, so every lane has a last digit that is not
    zeros = (text.view(np.uint8)[:, 16::-1] != ord("0")).argmax(axis=1)
    return text, zeros


def _float_cells(values: np.ndarray, empty, sep: int) -> np.ndarray:
    """``"%.17g" % v`` of each of ``values`` and the byte ``sep``, as ``S24`` (wider if a ``"%.17g"`` needs it).

    A lane in the mask ``empty`` (``numpy.ma.nomask``, False, for none) is ``sep`` alone.  A lane
    that prints with an exponent, is not finite, or whose digits are not certain is ``"%.17g"``'s own text.
    """
    e, digits, certain = _seventeen_digits(values)
    text, zeros = _digit_text(digits)
    # %g drops trailing zeros after the point, then the point if no digit follows it;
    # the digits kept and the point's place (0 for none) pick the lane's layout row
    kept = np.maximum(17 - zeros, e + 1)
    point = np.where((kept > e + 1) & (e >= 0), e + 1, 0)
    layout = 20 * point + kept + (point > 0)
    moved = np.empty_like(text)
    moved.view(np.uint8).reshape(-1)[1:] = text.view(np.uint8).reshape(-1)[:-1]
    text &= np.take(_STAY, layout, axis=0)
    moved &= np.take(_MOVE, layout, axis=0)
    text |= moved
    text |= np.take(_MARKS[sep], layout, axis=0)
    zero = values == 0
    text[zero] = [ord("0") | sep << 8, 0, 0]
    # moved up by the prefix's bytes, with each word's top bytes carried into the next
    code = 2 * (e + 4) + np.signbit(values)
    moved.reshape(-1)[1:] = text.reshape(-1)[:-1]
    bits = np.take(_PREFIX_BITS, code, axis=0)
    text <<= bits
    moved >>= np.subtract(64, bits, out=bits)
    moved[:, 0] = np.take(_PREFIX, code)
    text |= moved
    cells = text.view("S24")[:, 0]
    slow = ~(certain | zero | empty)
    cells[empty] = bytes([sep])
    if slow.any():
        texts = [b"%.17g%c" % (value, sep) for value in values[slow].tolist()]
        cells = cells.astype(f"S{max(24, *map(len, texts))}")  # the widest, "-2.2250738585072014e-308,", has 25
        cells[slow] = texts
    return cells


def _chunk_bytes(columns) -> bytes:
    """A chunk's lines: each row's cells joined by ``,``, each line ended by ``\\n``.

    A float array is formatted by :func:`_float_cells` as the doubles ``float()`` gives its
    cells, its masked cells empty; any other column's cells, ``tolist()``'s for an array
    (a masked cell is None), are written as :func:`fmt_cell` writes them.
    """
    lines = None
    for index, values in enumerate(columns, start=1 - len(columns)):
        sep = ord("\n") if index == 0 else ord(",")
        if isinstance(values, np.ndarray) and values.dtype.kind == "f":
            cells = _float_cells(np.ma.getdata(values).astype(np.float64, copy=False), np.ma.getmask(values), sep)
        else:
            values = values.tolist() if isinstance(values, np.ndarray) else values
            cells = np.array([((value if type(value) is str else fmt_cell(value)) + chr(sep)).encode() for value in values])
        lines = cells if lines is None else np.strings.add(lines, cells)
    lines = tuple(lines.tolist())
    return (b"%s" * len(lines)) % lines  # a join would hold a buffer of 80 bytes per line


@contextmanager
def _all_or_nothing(path):
    """A handle on ``path``, written whole or not at all if ``path`` is missing or a regular file.

    Such a target is written as ``<path>.<pid>.partial``, made anew with a plain ``open``'s mode,
    renamed over ``path`` at the end, and removed on any exception.  Any other target (a symlink,
    a device, a FIFO) is written through, as ``open(path, "wb")`` writes it.
    """
    if os.path.lexists(path) and not stat.S_ISREG(os.lstat(path).st_mode):
        with open(path, "wb") as handle:
            yield handle
        return
    partial = f"{os.fspath(path)}.{os.getpid()}.partial"
    handle = open(partial, "xb")
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
    :func:`fmt_cell` writes it, ``CHUNK`` rows at a time: a column chunk
    that is a float array through :func:`_float_cells`, which gives the
    bytes of ``"%.17g"`` for every float and an empty cell for every
    masked one; any other, cell by cell through :func:`fmt_cell`.
    """
    if not isinstance(rows, LazyRows):
        rows = ColumnRows(*zip(*rows, strict=True))
    with _all_or_nothing(path) as handle:
        for line in meta:
            handle.write(f"# {line}\n".encode())
        handle.write((",".join(header) + "\n").encode())
        for start in range(0, len(rows), CHUNK):
            stop = min(start + CHUNK, len(rows))
            columns = rows.make(start, stop)
            lengths = [len(column) for column in columns]
            if lengths != [stop - start] * len(header):
                raise ValueError(f"{path}: {len(header)} header fields for {len(lengths)} columns "
                                 f"of {lengths} rows, in rows {start} to {stop}")
            handle.write(_chunk_bytes(columns))


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
            handle.write(svg.encode())
    except OSError as err:
        raise OSError(f"cannot write {svg_path}: {err}") from err
    return svg_path
