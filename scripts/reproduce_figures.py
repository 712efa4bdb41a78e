#!/usr/bin/env python3
"""Regenerate the headline numerical experiments as CSV + SVG artifacts.

Writes into results/ (override with --out):

* gradient_*.csv      selection gradient G(x) for the three regimes of
                      each model variant
* roots_*.csv         interior-root sweeps over the pool multiplier f and
                      the punishment multiplier r_p
* basin_grid_*.csv    basin of full cooperation over an (f, r_p) grid for
                      both bribery scenarios (q > p and p > q)
* summary.txt         thresholds, regimes, roots and the four-corner basin
                      comparison showing the strong-leader sign flip

Every artifact is deterministic; rerunning overwrites byte-identical files.
"""

import argparse
import os
import sys

from pgg_bribery import (
    basin_of_cooperation,
    classify_regime,
    core_of,
    regime_grid,
    sweep_root,
    thresholds,
    with_parameter,
)
from pgg_bribery.cli import gradient_rows, grid_rows, sweep_rows
from pgg_bribery.output import write_csv, write_plot
from pgg_bribery.presets import BG_COOP_BRIBES_BASE, BG_DEFECTOR_BRIBES_BASE, IPGG_BASE, REGIMES


def emit(path, header, rows, note):
    write_csv(path, header, rows, [note])
    print(f"wrote {path}")
    print(f"wrote {write_plot(path)}")


def describe(name, model, lines):
    th = thresholds(model)
    regime = classify_regime(model)
    root = f" x*={regime.x_star:.6f}" if regime.x_star is not None else ""
    lines.append(
        f"{name}: f={core_of(model).f} "
        f"f_min={th.f_min:.6f} f_max={th.f_max:.6f} regime={regime.token}{root}"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    lines = []

    for name, model in REGIMES.items():
        emit(
            os.path.join(args.out, f"gradient_{name}.csv"),
            ["x", "q", "g"],
            gradient_rows(model, 1001),
            f"selection gradient, {name}",
        )
        describe(name, model, lines)

    root_sweeps = [
        ("roots_ipgg_f", IPGG_BASE, "f", 2.25, 7.75),
        ("roots_ipgg_rp", IPGG_BASE, "r_p", 1.1, 5.0),
        ("roots_bg_coop_bribes_f", BG_COOP_BRIBES_BASE, "f", 2.0, 11.0),
        ("roots_bg_coop_bribes_rp", BG_COOP_BRIBES_BASE, "r_p", 2.4, 5.0),
        ("roots_bg_defector_bribes_f", BG_DEFECTOR_BRIBES_BASE, "f", 1.0, 10.0),
        ("roots_bg_defector_bribes_rp", with_parameter(BG_DEFECTOR_BRIBES_BASE, "f", 4.5), "r_p", 0.5, 4.0),
    ]
    for name, model, parameter, lo, hi in root_sweeps:
        result = sweep_root(model, parameter, lo, hi, 200)
        emit(
            os.path.join(args.out, f"{name}.csv"),
            ["param", "regime", "x_star", "basin"],
            sweep_rows(result),
            f"interior root sweep over {parameter}, {name}",
        )

    for name, model in (
        ("basin_grid_coop_bribes", BG_COOP_BRIBES_BASE),
        ("basin_grid_defector_bribes", BG_DEFECTOR_BRIBES_BASE),
    ):
        grid = regime_grid(model, 1.2, 6.0, 0.5, 5.0, 49, 45)
        emit(
            os.path.join(args.out, f"{name}.csv"),
            ["f", "r_p", "regime", "basin"],
            grid_rows(grid),
            f"basin of full cooperation, {name}",
        )

    lines.append("")
    lines.append("strong-leader sign flip (q > p): basin of full cooperation")
    for f in (2.0, 4.0):
        values = []
        for r_p in (2.5, 4.0):
            model = with_parameter(with_parameter(BG_DEFECTOR_BRIBES_BASE, "f", f), "r_p", r_p)
            values.append(basin_of_cooperation(model))
        trend = "stronger leader helps" if values[1] > values[0] else "stronger leader hurts"
        lines.append(f"  f={f}: basin(r_p=2.5)={values[0]:.4f} basin(r_p=4)={values[1]:.4f} -> {trend}")

    summary = os.path.join(args.out, "summary.txt")
    with open(summary, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
    print(f"wrote {summary}")
    print()
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
