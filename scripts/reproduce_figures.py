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
from dataclasses import replace

from pgg_bribery import (
    BriberyParams,
    CoreParams,
    basin_of_cooperation,
    classify_regime,
    regime_grid,
    sweep_root,
    thresholds,
    with_parameter,
)
from pgg_bribery.cli import gradient_rows, grid_rows, sweep_rows
from pgg_bribery.output import render_csv_plot, write_csv

IPGG_REGIMES = {
    "ipgg_weak_pool": CoreParams(n=5, b=12, c=1, tau=1, f=2, alpha=0.5, beta=0.2, r_p=1.4),
    "ipgg_bistable": CoreParams(n=5, b=12, c=1, tau=1, f=3, alpha=0.5, beta=0.2, r_p=2),
    "ipgg_rich_pool": CoreParams(n=5, b=12, c=1, tau=1, f=4.7, alpha=0.15, beta=0.2, r_p=4),
}

BG_REGIMES = {
    "bg_weak_pool": BriberyParams(
        CoreParams(n=5, b=12, c=1, tau=1, f=1.5, alpha=0.6, beta=0.2, r_p=1.4),
        h=1, gamma=0.6, p=0.3, q=0.8,
    ),
    "bg_bistable": BriberyParams(
        CoreParams(n=5, b=12, c=1, tau=1, f=2, alpha=0.6, beta=0.2, r_p=4),
        h=1, gamma=0.6, p=0.6, q=0.5,
    ),
    "bg_rich_pool": BriberyParams(
        CoreParams(n=5, b=12, c=1, tau=1, f=4, alpha=0.15, beta=0.2, r_p=4),
        h=1, gamma=0.6, p=0.3, q=0.8,
    ),
}

# bases for the root sweeps and basin grids
IPGG_BASE = CoreParams(n=5, b=12, c=1, tau=1, f=3, alpha=0.5, beta=0.2, r_p=1.4)
BG_COOP_BRIBES = BriberyParams(  # p > q: cooperators offer more bribes
    CoreParams(n=5, b=12, c=1, tau=1, f=2, alpha=0.6, beta=0.2, r_p=2.5),
    h=1, gamma=0.6, p=0.6, q=0.5,
)
BG_DEFECTOR_BRIBES = replace(BG_COOP_BRIBES, p=0.3, q=0.8)  # q > p


def emit(path, header, rows, note, plot=True):
    write_csv(path, header, rows, [note])
    print(f"wrote {path}")
    if plot:
        svg = render_csv_plot(path)
        svg_path = os.path.splitext(path)[0] + ".svg"
        with open(svg_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(svg)
        print(f"wrote {svg_path}")


def describe(name, model, lines):
    th = thresholds(model)
    regime = classify_regime(model)
    root = f" x*={regime.x_star:.6f}" if regime.x_star is not None else ""
    lines.append(
        f"{name}: f={model.core.f if isinstance(model, BriberyParams) else model.f} "
        f"f_min={th.f_min:.6f} f_max={th.f_max:.6f} regime={regime.token}{root}"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    lines = []

    for name, model in {**IPGG_REGIMES, **BG_REGIMES}.items():
        emit(
            os.path.join(args.out, f"gradient_{name}.csv"),
            ["x", "q", "g"],
            gradient_rows(model, 1001),
            f"selection gradient, {name}",
        )
        describe(name, model, lines)

    root_sweeps = [
        ("roots_ipgg_f", with_parameter(IPGG_BASE, "r_p", 1.4), "f", 2.25, 7.75),
        ("roots_ipgg_rp", with_parameter(IPGG_BASE, "f", 3.0), "r_p", 1.1, 5.0),
        ("roots_bg_coop_bribes_f", with_parameter(BG_COOP_BRIBES, "r_p", 2.5), "f", 2.0, 11.0),
        ("roots_bg_coop_bribes_rp", with_parameter(BG_COOP_BRIBES, "f", 2.0), "r_p", 2.4, 5.0),
        ("roots_bg_defector_bribes_f", with_parameter(BG_DEFECTOR_BRIBES, "r_p", 2.5), "f", 1.0, 10.0),
        ("roots_bg_defector_bribes_rp", with_parameter(BG_DEFECTOR_BRIBES, "f", 4.5), "r_p", 0.5, 4.0),
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
        ("basin_grid_coop_bribes", BG_COOP_BRIBES),
        ("basin_grid_defector_bribes", BG_DEFECTOR_BRIBES),
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
            model = with_parameter(with_parameter(BG_DEFECTOR_BRIBES, "f", f), "r_p", r_p)
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
