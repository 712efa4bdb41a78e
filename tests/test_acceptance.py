"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
report lines.
"""

import os
import subprocess
import sys
import time

import numpy as np

from helpers import draw_bistable_instance

from pgg_bribery import (
    RegimeKind,
    RngSeed,
    avg_payoff,
    basin_of_cooperation,
    binomial_avg_payoff,
    bribery_offset,
    classify_regime,
    core_of,
    estimate_expected_payoff,
    group_payoff,
    integrate,
    interior_root,
    q_function,
    sweep_root,
    thresholds,
    with_parameter,
)
from pgg_bribery.cli import main
from pgg_bribery.montecarlo import generator
from pgg_bribery.presets import (
    BG_COOP_BRIBES_BASE,
    BG_DEFECTOR_BRIBES,
    BG_DEFECTOR_BRIBES_BASE,
    IPGG_BISTABLE,
    IPGG_RICH_POOL,
    IPGG_WEAK_POOL,
)
from pgg_bribery.verify import draw_bribery_params, draw_core_params, mc_battery_cases

BG_RICH_POOL = with_parameter(BG_DEFECTOR_BRIBES_BASE, "f", 4.0)


def report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def strictly_decreasing(values):
    return all(b < a for a, b in zip(values, values[1:]))


def test_criterion_1_threshold_regime_reproduction(capsys):
    started = time.perf_counter()
    th_weak = thresholds(IPGG_WEAK_POOL)
    th_mid = thresholds(IPGG_BISTABLE)
    th_strong = thresholds(IPGG_RICH_POOL)
    x_star = interior_root(IPGG_BISTABLE)
    elapsed = time.perf_counter() - started

    ok = (
        abs(th_weak.f_min - 2.2) < 1e-9
        and abs(th_weak.f_max - 7.8) < 1e-9
        and classify_regime(IPGG_WEAK_POOL).kind is RegimeKind.DEFECTION_DOMINANT
        and abs(th_mid.f_min - 1.0) < 1e-9
        and abs(th_mid.f_max - 9.0) < 1e-9
        and classify_regime(IPGG_BISTABLE).kind is RegimeKind.BISTABLE
        and 0.78 < x_star < 0.79
        and abs(th_strong.f_max - 4.6) < 1e-9
        and classify_regime(IPGG_RICH_POOL).kind is RegimeKind.COOPERATION_DOMINANT
        and elapsed < 1.0
    )
    with capsys.disabled():
        report(
            1,
            ok,
            f"thresholds (2.2, 7.8)/(1.0, 9.0)/f_max 4.6, x*={x_star:.4f} in (0.78, 0.79), "
            f"{elapsed * 1e3:.0f} ms",
        )


def test_criterion_2_bribery_defection_dominance(tmp_path, capsys):
    started = time.perf_counter()
    th = thresholds(BG_DEFECTOR_BRIBES)
    regime = classify_regime(BG_DEFECTOR_BRIBES)
    out = str(tmp_path / "gradient_run")
    argv = ["gradient", "--out", out, "--set", "model=bg"]
    core = BG_DEFECTOR_BRIBES.core
    for key, value in (
        ("n", core.n), ("b", core.b), ("c", core.c), ("tau", core.tau), ("f", core.f),
        ("alpha", core.alpha), ("beta", core.beta), ("r_p", core.r_p),
        ("h", BG_DEFECTOR_BRIBES.h), ("gamma", BG_DEFECTOR_BRIBES.gamma),
        ("p", BG_DEFECTOR_BRIBES.p), ("q", BG_DEFECTOR_BRIBES.q),
    ):
        argv += ["--set", f"{key}={value}"]
    code = main(argv)
    from pgg_bribery.output import read_csv

    _, header, rows = read_csv(os.path.join(out, "gradient.csv"))
    gradients = np.array([float(row[2]) for row in rows])
    elapsed = time.perf_counter() - started

    ok = (
        code == 0
        and abs(th.f_min - 1.84) < 1e-9
        and th.f_min > 1.5
        and regime.kind is RegimeKind.DEFECTION_DOMINANT
        and header == ["x", "q", "g"]
        and len(rows) == 1001
        and float(np.max(gradients)) <= 1e-9
        and elapsed < 1.0
    )
    with capsys.disabled():
        report(
            2,
            ok,
            f"f_min=1.84 > f=1.5, defection dominant, max G over grid = {np.max(gradients):.2e}, "
            f"{elapsed * 1e3:.0f} ms",
        )


def test_criterion_3_root_monotonicity_sweeps(capsys):
    sweeps = [
        ("ipgg f at r_p=1.4", with_parameter(IPGG_WEAK_POOL, "r_p", 1.4), "f", 2.25, 7.75),
        ("ipgg r_p at f=3", IPGG_BISTABLE, "r_p", 1.1, 5.0),
        ("bg f at r_p=2.5 (p>q)", with_parameter(BG_COOP_BRIBES_BASE, "r_p", 2.5), "f", 2.0, 11.0),
        ("bg r_p at f=2 (p>q)", with_parameter(BG_COOP_BRIBES_BASE, "f", 2.0), "r_p", 2.4, 5.0),
    ]
    details = []
    ok = True
    for name, model, parameter, lo, hi in sweeps:
        started = time.perf_counter()
        result = sweep_root(model, parameter, lo, hi, 200)
        elapsed = time.perf_counter() - started
        roots = result.x_star[result.token == "bistable"].tolist()
        sweep_ok = len(roots) == 200 and strictly_decreasing(roots) and elapsed < 5.0
        ok = ok and sweep_ok
        details.append(f"{name}: {'decreasing' if sweep_ok else 'NOT MONOTONE'} ({elapsed:.2f}s)")
    with capsys.disabled():
        report(3, ok, "; ".join(details))


def test_criterion_4_basin_sign_flip(capsys):
    started = time.perf_counter()
    basin = {}
    for f in (2.0, 4.0):
        for r_p in (2.5, 4.0):
            model = with_parameter(with_parameter(BG_DEFECTOR_BRIBES_BASE, "f", f), "r_p", r_p)
            basin[(f, r_p)] = basin_of_cooperation(model)
    elapsed = time.perf_counter() - started
    poor_gain = basin[(2.0, 4.0)] - basin[(2.0, 2.5)]
    rich_loss = basin[(4.0, 2.5)] - basin[(4.0, 4.0)]
    ok = poor_gain > 1e-6 and rich_loss > 1e-6 and elapsed < 1.0
    with capsys.disabled():
        report(
            4,
            ok,
            f"poor pool: stronger leader gains {poor_gain:.4f}; "
            f"rich pool: stronger leader loses {rich_loss:.4f}; {elapsed * 1e3:.0f} ms",
        )


def test_criterion_5_bribery_offset_identity(capsys):
    started = time.perf_counter()
    rng = generator(RngSeed(20240, 5))
    grid = np.linspace(0.0, 1.0, 11)
    worst = 0.0
    for _ in range(1000):
        params = draw_bribery_params(rng)
        expected = bribery_offset(params)
        for x in grid:
            observed = q_function(params, float(x)) - q_function(params.core, float(x))
            worst = max(worst, abs(observed - expected))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-12 and elapsed < 1.0
    with capsys.disabled():
        report(5, ok, f"max offset deviation {worst:.2e} over 1000 sets x 11 points, {elapsed:.2f}s")


def test_criterion_6_closed_form_vs_binomial(capsys):
    started = time.perf_counter()
    rng = generator(RngSeed(20240, 6))
    worst = 0.0
    for index in range(1000):
        model = draw_core_params(rng) if index % 2 == 0 else draw_bribery_params(rng)
        x = float(rng.uniform(0.0, 1.0))
        strategy = "C" if index % 4 < 2 else "D"
        worst = max(worst, abs(avg_payoff(model, x, strategy) - binomial_avg_payoff(model, x, strategy)))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-10 and elapsed < 1.0
    with capsys.disabled():
        report(6, ok, f"max |closed - binomial| = {worst:.2e} over 1000 triples, {elapsed:.2f}s")


def test_criterion_7_monte_carlo_vs_payoffs(capsys):
    started = time.perf_counter()
    worst = 0.0
    ok = True
    for index, (case, model, strategy, comp) in enumerate(mc_battery_cases()):
        estimate = estimate_expected_payoff(model, strategy, comp, 1_000_000, RngSeed(42, 200 + index))
        expected = group_payoff(model, strategy, comp)
        deviation = abs(estimate.mean - expected)
        ok = ok and deviation < 4 * estimate.std_error
        worst = max(worst, deviation / estimate.std_error)
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    with capsys.disabled():
        report(7, ok, f"24 cases x 1e6 samples, worst {worst:.2f} standard errors, {elapsed:.1f}s")


def test_criterion_8_threshold_gap_identity(capsys):
    started = time.perf_counter()
    rng = generator(RngSeed(20240, 8))
    worst = 0.0
    for _ in range(1000):
        for model in (draw_core_params(rng), draw_bribery_params(rng)):
            core = core_of(model)
            th = thresholds(model)
            expected = core.n * (core.n - 1) * core.beta * core.tau * core.r_p / core.c
            worst = max(worst, abs(th.f_max - th.f_min - expected))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-12
    with capsys.disabled():
        report(8, ok, f"max gap deviation {worst:.2e} over 1000 sets per model, {elapsed:.2f}s")


def test_criterion_9_ode_analysis_consistency(capsys):
    started = time.perf_counter()
    rng = generator(RngSeed(20240, 9))
    ok = True
    for index in range(100):
        model, x_star = draw_bistable_instance(rng, bribery=index % 2 == 1)
        for x0, target in ((x_star + 0.01, 1.0), (x_star - 0.01, 0.0)):
            coarse = integrate(model, x0, step=0.05, t_max=2e4)
            fine = integrate(model, x0, step=0.025, t_max=2e4)
            ok = ok and coarse.converged_to == target and fine.converged_to == target
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 30.0
    with capsys.disabled():
        report(9, ok, f"100 bistable instances, both steps, all converged correctly, {elapsed:.1f}s")


def test_criterion_10_verify_is_byte_deterministic(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        "model = ipgg\nn = 5\nb = 12\nc = 1\ntau = 1\nf = 2\n"
        "alpha = 0.5\nbeta = 0.2\nr_p = 1.4\nsamples = 400000\n"
    )
    # the four runs start at once and are then waited on one by one
    runs = []
    for label, workers in (("a", None), ("b", None), ("w1", "1"), ("w2", "2")):
        out = tmp_path / f"out_{label}"
        env = dict(os.environ)
        env.pop("PGG_BRIBERY_WORKERS", None)
        if workers is not None:
            env["PGG_BRIBERY_WORKERS"] = workers
        proc = subprocess.Popen(
            [sys.executable, "-m", "pgg_bribery", "verify", "--config", str(config), "--out", str(out)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        runs.append((proc, out))
    codes = [proc.wait() for proc, _ in runs]
    contents = [(out / "verify_checks.csv").read_bytes() for _, out in runs]
    identical = all(blob == contents[0] for blob in contents)
    ok = identical and codes == [0, 0, 0, 0]
    with capsys.disabled():
        report(
            10,
            ok,
            f"4 verify runs (repeat, workers=1, workers=2) exit {codes}, "
            f"byte-identical CSV: {identical}",
        )
