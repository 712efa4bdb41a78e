"""Command-line interface.

Every subcommand reads a flat key-value configuration (``--config`` file
and/or repeated ``--set key=value`` overrides) and emits deterministic
CSV files into ``--out`` under ``#`` lines that echo the configuration,
then the options as parsed.  Exit codes: 0 success, 1 configuration or
validation failure, 2 verification failure, 3 I/O failure.

The optional environment variable ``PGG_BRIBERY_WORKERS``, an integer
from 1 to :data:`MAX_WORKERS`, sets the worker-pool size for Monte Carlo
subcommands; the pool policy is in :mod:`pgg_bribery.montecarlo`.
Leaving it unset runs everything serially in this process, and no
setting changes any emitted value.

:func:`gradient_rows` builds the ``gradient`` rows, and the ``sweep`` and
``grid`` views of :mod:`pgg_bribery.sweeps` are their own rows.  Each is
a ``LazyRows``, with a ``HEADER``, that ``write_csv`` makes one chunk at a
time, so no array or Python value of the whole file is ever held.  A
job's size is checked before any work starts; a chunk that refuses its
cells leaves no file.
"""

from __future__ import annotations

import argparse
import os
import sys
from math import isfinite

import numpy as np

from .analysis import (
    KNIFE_EDGE,
    KnifeEdgeError,
    RegimeKind,
    _check_turns,
    avg_payoff,
    classify_regime,
    gradient_of_selection,
    q_function,
    thresholds,
)
from .config import ConfigError, RunConfig, config_from_pairs, parse_line, parse_pairs
from .dynamics import basin_of_cooperation, integrate
from .games import ParameterError, _payoff_tables
from .montecarlo import MAX_WORKERS, RngSeed, _avg_request, _estimate_all, _run_tasks
from .output import ColumnRows, LazyRows, fmt_cell, fmt_float, fmt_quantity, write_csv, write_plot
from .sweeps import DEFAULT_STEPS, SWEEP_DEFAULTS, _check_cells, regime_grid, sweep_root
from .verify import run_battery

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VERIFY = 2
EXIT_IO = 3

WORKERS_ENV = "PGG_BRIBERY_WORKERS"
# the options every subcommand shares, which no CSV echoes; an option added to them belongs here
SHARED_OPTIONS = ("command", "config", "overrides", "out")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgg-bribery",
        description="Replicator dynamics of institutional punishment and bribery games",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a flat key=value configuration file")
    common.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override or supply a configuration key (repeatable)",
    )
    common.add_argument("--out", default=".", help="output directory for emitted files")

    sp = sub.add_parser("gradient", help="emit x, Q(x), G(x) over a uniform grid", parents=[common])
    sp.add_argument("--points", type=int, default=1001)

    for name, text in (
        ("payoffs", "emit per-composition payoffs of both strategies"),
        ("thresholds", "print f_min, f_max and the regime"),
        ("roots", "print the interior root or why none exists"),
        ("basins", "print the basin of full cooperation"),
    ):
        sub.add_parser(name, help=text, parents=[common])

    sp = sub.add_parser("sweep", help="classify and locate x* along a parameter sweep", parents=[common])
    sp.add_argument("--param", choices=tuple(SWEEP_DEFAULTS), required=True)
    sp.add_argument("--lo", type=float)
    sp.add_argument("--hi", type=float)
    sp.add_argument("--steps", type=int, default=DEFAULT_STEPS)

    sp = sub.add_parser("grid", help="basin of cooperation over an (f, r_p) grid", parents=[common])
    sp.add_argument("--f-lo", type=float, default=SWEEP_DEFAULTS["f"][0])
    sp.add_argument("--f-hi", type=float, default=SWEEP_DEFAULTS["f"][1])
    sp.add_argument("--rp-lo", type=float, default=SWEEP_DEFAULTS["r_p"][0])
    sp.add_argument("--rp-hi", type=float, default=SWEEP_DEFAULTS["r_p"][1])
    sp.add_argument("--f-steps", type=int, default=41)
    sp.add_argument("--rp-steps", type=int, default=41)

    sp = sub.add_parser("integrate", help="integrate the replicator equation from x0", parents=[common])
    sp.add_argument("--x0", type=float, required=True)

    sp = sub.add_parser("simulate", help="Monte Carlo estimates of the average payoffs", parents=[common])
    sp.add_argument("--x", type=float, default=0.5, help="cooperator fraction")

    sub.add_parser("verify", help="run the oracle-agreement battery", parents=[common])

    sp = sub.add_parser("plot", help="render an emitted CSV as a standalone SVG")
    sp.add_argument("csv_path")
    sp.add_argument("--out-svg", help="output SVG path (default: CSV path with .svg)")
    return parser


def _load_config(args) -> RunConfig:
    pairs = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as err:
            raise OSError(f"cannot read config {args.config}: {err}") from err
        pairs = parse_pairs(text)
    for override in args.overrides:  # a config line each, without its line number; it may replace a file's key
        pair = parse_line(override)
        if pair is None:
            raise ConfigError(f"--set expects KEY=VALUE, got {override!r}")
        pairs[pair[0]] = (pair[1], None)
    config = config_from_pairs(pairs)
    for warning in config.model.validation_warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return config


def _workers() -> int | None:
    raw = os.environ.get(WORKERS_ENV)
    if raw is None:
        return None
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ConfigError(f"{WORKERS_ENV} must be >= 1, got {workers}")
    if workers > MAX_WORKERS:
        raise ConfigError(f"{WORKERS_ENV} must be <= MAX_WORKERS = {MAX_WORKERS}, got {workers}")
    return workers


def _emit(config: RunConfig, args, filename: str, header, rows) -> int:
    """Write ``rows`` to ``--out``/``filename`` under ``#`` lines: the configuration, then the parsed options."""
    meta = [f"pgg-bribery {args.command}", " ".join(f"{key}={value}" for key, value in config.metadata_items())]
    options = [f"{key}={fmt_cell(value)}" for key, value in vars(args).items() if key not in SHARED_OPTIONS]
    if options:
        meta.append(" ".join(options))
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, filename)
    write_csv(path, header, rows, meta)
    print(f"wrote {path}")
    return EXIT_OK


class GradientRows(LazyRows):
    HEADER = ("x", "q", "g")


def gradient_rows(model, points: int) -> GradientRows:
    """Rows (x, Q(x), G(x)) at ``points`` evenly spaced x in [0, 1], made a chunk at a time."""
    if points < 2:
        raise ConfigError(f"--points must be >= 2, got {points}")
    _check_cells("gradient", points)
    _check_turns("gradient", model.n, evaluations_per_point=2, points=points)

    def make(start, stop):
        x = np.arange(start, stop) / (points - 1)
        # finite thresholds do not bound Q: it may overflow, and G(x) = x (1 - x) Q(x) with it
        with np.errstate(over="ignore", invalid="ignore"):
            q, g = q_function(model, x), gradient_of_selection(model, x)
        if not np.isfinite(q).all():
            raise ValueError(f"Q(x) at x = {fmt_float(x[~np.isfinite(q)][0])} overflows double precision")
        return x, q, g

    return GradientRows(points, make)


def _cmd_gradient(config: RunConfig, args) -> int:
    rows = gradient_rows(config.model, args.points)
    return _emit(config, args, "gradient.csv", rows.HEADER, rows)


def _cmd_payoffs(config: RunConfig, args) -> int:
    n = config.model.n
    pay_c, pay_d = _payoff_tables(config.model)
    if not all(map(isfinite, pay_c + pay_d)):
        raise ValueError("the payoffs overflow double precision")
    rows = ColumnRows(range(n), range(n - 1, -1, -1), pay_c, pay_d)
    return _emit(config, args, "payoffs.csv", ["n_c", "n_d", "pi_c", "pi_d"], rows)


def _cmd_thresholds(config: RunConfig, args) -> int:
    th = thresholds(config.model)
    try:
        regime = classify_regime(config.model)
        label = regime.token + (" degenerate=1" if regime.degenerate else "")
    except KnifeEdgeError:
        label = KNIFE_EDGE
    print(f"f_min={fmt_quantity(th.f_min)} f_max={fmt_quantity(th.f_max)} regime={label}")
    return EXIT_OK


def _cmd_roots(config: RunConfig, args) -> int:
    try:
        regime = classify_regime(config.model)
    except KnifeEdgeError as err:
        print(f"no interior root: {err}")
        return EXIT_OK
    if regime.kind is RegimeKind.BISTABLE:
        print(f"x_star={fmt_quantity(regime.x_star)}")
    elif regime.kind is RegimeKind.DEFECTION_DOMINANT:
        print("no interior root: F below f_min")
    else:
        print("no interior root: F above f_max")
    return EXIT_OK


def _cmd_basins(config: RunConfig, args) -> int:
    try:
        print(f"basin={fmt_quantity(basin_of_cooperation(config.model))}")
    except KnifeEdgeError as err:
        print(f"basin undefined: {err}")
    return EXIT_OK


def _cmd_sweep(config: RunConfig, args) -> int:
    lo, hi = SWEEP_DEFAULTS[args.param]
    args.lo = lo if args.lo is None else args.lo
    args.hi = hi if args.hi is None else args.hi
    sweep = sweep_root(config.model, args.param, args.lo, args.hi, args.steps)
    return _emit(config, args, "sweep.csv", sweep.HEADER, sweep)


def _cmd_grid(config: RunConfig, args) -> int:
    grid = regime_grid(config.model, args.f_lo, args.f_hi, args.rp_lo, args.rp_hi, args.f_steps, args.rp_steps)
    return _emit(config, args, "grid.csv", grid.HEADER, grid)


def _cmd_integrate(config: RunConfig, args) -> int:
    trajectory = integrate(
        config.model, args.x0, step=config.step, t_max=config.t_max, conv_tol=config.conv_tol
    )
    rows = ColumnRows(trajectory.times, trajectory.states)
    _emit(config, args, "trajectory.csv", ["t", "x"], rows)
    target = "none" if trajectory.converged_to is None else fmt_quantity(trajectory.converged_to)
    print(f"converged_to={target}")
    return EXIT_OK


def _cmd_simulate(config: RunConfig, args) -> int:
    model = config.model
    strategies = ("C", "D")
    requests = [
        _avg_request(model, args.x, strategy, config.samples, RngSeed(config.seed, stream))
        for stream, strategy in enumerate(strategies)
    ]
    estimates = _estimate_all(requests, _run_tasks([task for request in requests for task in request], _workers()))
    rows = []
    for strategy, estimate in zip(strategies, estimates):
        closed = avg_payoff(model, args.x, strategy)
        rows.append((strategy, args.x, estimate.mean, estimate.std_error, estimate.n_samples, closed))
        print(
            f"{strategy}: mean={fmt_quantity(estimate.mean)} "
            f"std_error={fmt_quantity(estimate.std_error)} closed_form={fmt_quantity(closed)}"
        )
    header = ["strategy", "x", "mean", "std_error", "n_samples", "closed_form"]
    return _emit(config, args, "simulate.csv", header, rows)


def _cmd_verify(config: RunConfig, args) -> int:
    suites = run_battery(samples=config.samples, seed=config.seed, workers=_workers())
    rows = []
    for suite in suites:
        print(f"{'ok  ' if suite.passed else 'FAIL'} {suite.name}: {suite.detail}")
        for row in suite.rows:
            rows.append((suite.name, row.case, row.value, row.bound, "ok" if row.ok else "fail"))
    _emit(config, args, "verify_checks.csv", ["suite", "case", "value", "bound", "status"], rows)
    if all(suite.passed for suite in suites):
        print("verify: PASS")
        return EXIT_OK
    print("verify: FAIL")
    return EXIT_VERIFY


def _is_stdout(path) -> bool:
    """Whether ``path`` is the file this process's stdout writes to, as ``/dev/stdout`` is."""
    try:
        return os.path.samestat(os.stat(path), os.fstat(1))
    except OSError:
        return False


def _cmd_plot(args) -> int:
    path = write_plot(args.csv_path, args.out_svg)
    # a notice on stdout would write over the start of an SVG written there
    print(f"wrote {path}", file=sys.stderr if _is_stdout(path) else sys.stdout)
    return EXIT_OK


_HANDLERS = {
    "gradient": _cmd_gradient,
    "payoffs": _cmd_payoffs,
    "thresholds": _cmd_thresholds,
    "roots": _cmd_roots,
    "basins": _cmd_basins,
    "sweep": _cmd_sweep,
    "grid": _cmd_grid,
    "integrate": _cmd_integrate,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "plot":
            return _cmd_plot(args)
        config = _load_config(args)
        return _HANDLERS[args.command](config, args)
    except (ConfigError, ParameterError, ValueError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
