"""Command-line interface.

Every subcommand reads a flat key-value configuration (``--config`` file
and/or repeated ``--set key=value`` overrides) and emits deterministic
CSV files into ``--out``.  Exit codes: 0 success, 1 configuration or
validation failure, 2 verification failure, 3 I/O failure.

The optional environment variable ``PGG_BRIBERY_WORKERS`` sets the
worker-pool size for Monte Carlo subcommands: one pool, of at most that
many workers and never more than there are sample chunks, serves all the
estimates of ``simulate`` (of both Monte Carlo suites of ``verify``) and
is shut down before the command returns.  Leaving it unset runs them
serially in this process, and no setting changes any emitted value.

:func:`gradient_rows`, :func:`sweep_rows` and :func:`grid_rows` build the
CSV rows of the ``gradient``, ``sweep`` and ``grid`` subcommands; the
figure script writes its artifacts with the same builders.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .analysis import (
    KNIFE_EDGE,
    KnifeEdgeError,
    RegimeKind,
    avg_payoff,
    classify_regime,
    gradient_of_selection,
    q_function,
    thresholds,
)
from .config import ConfigError, RunConfig, config_from_pairs, parse_pairs
from .dynamics import basin_of_cooperation, integrate
from .games import ParameterError, _payoff_tables, core_of
from .montecarlo import RngSeed, _avg_request, _estimate_all
from .output import ColumnRows, fmt_float, fmt_quantity, write_csv, write_plot
from .sweeps import DEFAULT_STEPS, SWEEP_DEFAULTS, RegimeGrid, SweepResult, _check_cells, regime_grid, sweep_root
from .verify import run_battery

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VERIFY = 2
EXIT_IO = 3

WORKERS_ENV = "PGG_BRIBERY_WORKERS"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgg-bribery",
        description="Replicator dynamics of institutional punishment and bribery games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="path to a flat key=value configuration file")
        sp.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override or supply a configuration key (repeatable)",
        )
        sp.add_argument("--out", default=".", help="output directory for emitted files")

    sp = sub.add_parser("gradient", help="emit x, Q(x), G(x) over a uniform grid")
    common(sp)
    sp.add_argument("--points", type=int, default=1001)

    sp = sub.add_parser("payoffs", help="emit per-composition payoffs of both strategies")
    common(sp)

    for name, text in (
        ("thresholds", "print f_min, f_max and the regime"),
        ("roots", "print the interior root or why none exists"),
        ("basins", "print the basin of full cooperation"),
    ):
        sp = sub.add_parser(name, help=text)
        common(sp)

    sp = sub.add_parser("sweep", help="classify and locate x* along a parameter sweep")
    common(sp)
    sp.add_argument("--param", choices=tuple(SWEEP_DEFAULTS), required=True)
    sp.add_argument("--lo", type=float)
    sp.add_argument("--hi", type=float)
    sp.add_argument("--steps", type=int, default=DEFAULT_STEPS)

    sp = sub.add_parser("grid", help="basin of cooperation over an (f, r_p) grid")
    common(sp)
    sp.add_argument("--f-lo", type=float, default=SWEEP_DEFAULTS["f"][0])
    sp.add_argument("--f-hi", type=float, default=SWEEP_DEFAULTS["f"][1])
    sp.add_argument("--rp-lo", type=float, default=SWEEP_DEFAULTS["r_p"][0])
    sp.add_argument("--rp-hi", type=float, default=SWEEP_DEFAULTS["r_p"][1])
    sp.add_argument("--f-steps", type=int, default=41)
    sp.add_argument("--rp-steps", type=int, default=41)

    sp = sub.add_parser("integrate", help="integrate the replicator equation from x0")
    common(sp)
    sp.add_argument("--x0", type=float, required=True)

    sp = sub.add_parser("simulate", help="Monte Carlo estimates of the average payoffs")
    common(sp)
    sp.add_argument("--x", type=float, default=0.5, help="cooperator fraction")

    sp = sub.add_parser("verify", help="run the oracle-agreement battery")
    common(sp)

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
    for override in args.overrides:
        if "=" not in override:
            raise ConfigError(f"--set expects KEY=VALUE, got {override!r}")
        key, value = override.split("=", 1)
        pairs[key.strip().lower()] = (value.strip(), None)
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
    return workers


def _meta(config: RunConfig, command: str, extras: list[tuple[str, str]] = ()) -> list[str]:
    lines = [f"pgg-bribery {command}"]
    lines.append(" ".join(f"{key}={value}" for key, value in config.metadata_items()))
    if extras:
        lines.append(" ".join(f"{key}={value}" for key, value in extras))
    return lines


def _emit(config: RunConfig, args, filename: str, header: list[str], rows, extras=()) -> int:
    """Write ``rows`` to ``--out``/``filename`` under the run's ``#`` header."""
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, filename)
    write_csv(path, header, rows, _meta(config, args.command, extras))
    print(f"wrote {path}")
    return EXIT_OK


def _cells(values: np.ndarray) -> list:
    # NaN marks an undefined value, written as an empty cell
    return [None if value != value else value for value in values.tolist()]


def gradient_rows(model, points: int) -> ColumnRows:
    """Rows (x, Q(x), G(x)) at ``points`` evenly spaced x in [0, 1]."""
    xs = np.arange(points) / (points - 1)
    q = q_function(model, xs)
    g = gradient_of_selection(model, xs)
    return ColumnRows(xs, q, g)


def sweep_rows(result: SweepResult) -> ColumnRows:
    """Rows (value, regime, x_star, basin) of a sweep."""
    return ColumnRows(result.points, result.token, _cells(result.x_star), _cells(result.basin))


def grid_rows(grid: RegimeGrid) -> ColumnRows:
    """Rows (f, r_p, regime, basin) of a grid, f-major."""
    return ColumnRows(
        np.repeat(grid.f_values, len(grid.rp_values)),
        np.tile(grid.rp_values, len(grid.f_values)),
        grid.token.ravel(),
        _cells(grid.basin.ravel()),
    )


def _cmd_gradient(config: RunConfig, args) -> int:
    if args.points < 2:
        raise ConfigError(f"--points must be >= 2, got {args.points}")
    _check_cells("gradient", args.points)
    rows = gradient_rows(config.model, args.points)
    return _emit(config, args, "gradient.csv", ["x", "q", "g"], rows, [("points", str(args.points))])


def _cmd_payoffs(config: RunConfig, args) -> int:
    n = core_of(config.model).n
    rows = ColumnRows(range(n), range(n - 1, -1, -1), *_payoff_tables(config.model))
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
    lo = args.lo if args.lo is not None else lo
    hi = args.hi if args.hi is not None else hi
    rows = sweep_rows(sweep_root(config.model, args.param, lo, hi, args.steps))
    extras = [("param", args.param), ("lo", fmt_float(lo)), ("hi", fmt_float(hi)), ("steps", str(args.steps))]
    return _emit(config, args, "sweep.csv", ["param", "regime", "x_star", "basin"], rows, extras)


def _cmd_grid(config: RunConfig, args) -> int:
    grid = regime_grid(
        config.model, args.f_lo, args.f_hi, args.rp_lo, args.rp_hi,
        args.f_steps, args.rp_steps,
    )
    extras = [
        ("f_lo", fmt_float(args.f_lo)), ("f_hi", fmt_float(args.f_hi)),
        ("rp_lo", fmt_float(args.rp_lo)), ("rp_hi", fmt_float(args.rp_hi)),
        ("f_steps", str(args.f_steps)), ("rp_steps", str(args.rp_steps)),
    ]
    return _emit(config, args, "grid.csv", ["f", "r_p", "regime", "basin"], grid_rows(grid), extras)


def _cmd_integrate(config: RunConfig, args) -> int:
    trajectory = integrate(
        config.model, args.x0, step=config.step, t_max=config.t_max, conv_tol=config.conv_tol
    )
    rows = ColumnRows(trajectory.times, trajectory.states)
    _emit(config, args, "trajectory.csv", ["t", "x"], rows, [("x0", fmt_float(args.x0))])
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
    rows = []
    for strategy, estimate in zip(strategies, _estimate_all(requests, _workers())):
        closed = avg_payoff(model, args.x, strategy)
        rows.append((strategy, args.x, estimate.mean, estimate.std_error, estimate.n_samples, closed))
        print(
            f"{strategy}: mean={fmt_quantity(estimate.mean)} "
            f"std_error={fmt_quantity(estimate.std_error)} closed_form={fmt_quantity(closed)}"
        )
    header = ["strategy", "x", "mean", "std_error", "n_samples", "closed_form"]
    return _emit(config, args, "simulate.csv", header, rows, [("x", fmt_float(args.x))])


def _cmd_verify(config: RunConfig, args) -> int:
    suites = run_battery(samples=config.samples, seed=config.seed, workers=_workers())
    rows = []
    for suite in suites:
        print(f"{'ok  ' if suite.passed else 'FAIL'} {suite.name}: {suite.detail}")
        for row in suite.rows:
            rows.append((row.suite, row.case, row.value, row.bound, "ok" if row.ok else "fail"))
    _emit(config, args, "verify_checks.csv", ["suite", "case", "value", "bound", "status"], rows)
    if all(suite.passed for suite in suites):
        print("verify: PASS")
        return EXIT_OK
    print("verify: FAIL")
    return EXIT_VERIFY


def _cmd_plot(args) -> int:
    print(f"wrote {write_plot(args.csv_path, args.out_svg)}")
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
