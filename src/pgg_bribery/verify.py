"""Self-verification battery: every closed form against an independent oracle.

Suites (one summary line each from the CLI):

* closed_form_vs_binomial   avg_payoff against the explicit binomial sum
* reduction_identities      beta = 0 / gamma = 0 / h = 0 / p = q collapses
* bribery_offset            Q_bg - Q_ipgg constant in x
* threshold_gap             f_max - f_min = n (n-1) beta tau r_p / c
* regime_sign_consistency   threshold classification vs the signs of Q(0), Q(1)
* root_bracketing           Q changes sign across the located x*
* mc_event_payoffs          event-level Monte Carlo vs per-group payoffs
* mc_average_payoffs        composition-sampled Monte Carlo vs avg_payoff
* mc_conservation           per-event fine and bribe accounting
* stream_reproducibility    seed determinism and cross-stream independence

Every random draw is seeded, so repeated runs produce byte-identical
reports; Monte Carlo work is chunked by fixed substreams, so worker-pool
size cannot change any value.  The two Monte Carlo suites send all of
their estimates through one chunk map, so one worker pool serves both.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .analysis import (
    KnifeEdgeError,
    RegimeKind,
    avg_payoff,
    binomial_avg_payoff,
    bribery_offset,
    classify_regime,
    interior_root,
    q_callable,
    thresholds,
)
from .games import (
    BriberyParams,
    CoreParams,
    GroupComposition,
    core_of,
    group_payoff,
)
from .montecarlo import (
    RngSeed,
    _avg_request,
    _estimate_all,
    _payoff_request,
    estimate_expected_payoff,
    generator,
    realize_event,
)
from .presets import BG_COOP_BRIBES, BG_DEFECTOR_BRIBES, IPGG_BISTABLE, IPGG_RICH_POOL, IPGG_WEAK_POOL
from .sweeps import with_parameter

__all__ = ["CheckRow", "SuiteResult", "run_battery", "draw_core_params", "draw_bribery_params"]


@dataclass(frozen=True)
class CheckRow:
    suite: str
    case: str
    value: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.value < self.bound


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str
    rows: tuple[CheckRow, ...]


def draw_core_params(rng: np.random.Generator, positive_punishment: bool = False) -> CoreParams:
    """Random parameters at the magnitudes the closed forms are used at."""
    beta = rng.uniform(0.05, 1.0) if positive_punishment else rng.uniform(0.0, 1.0)
    r_p = rng.uniform(0.1, 3.0) if positive_punishment else rng.uniform(0.0, 3.0)
    return CoreParams(
        n=int(rng.integers(2, 9)),
        b=rng.uniform(0.0, 15.0),
        c=rng.uniform(0.5, 2.0),
        tau=rng.uniform(0.1, 1.5),
        f=rng.uniform(0.2, 10.0),
        alpha=rng.uniform(0.0, 1.0),
        beta=beta,
        r_p=r_p,
    )


def draw_bribery_params(rng: np.random.Generator, positive_punishment: bool = False) -> BriberyParams:
    core = draw_core_params(rng, positive_punishment)
    return BriberyParams(
        core,
        h=rng.uniform(0.0, 2.0),
        gamma=rng.uniform(0.0, 1.0 - core.beta),
        p=rng.uniform(0.0, 1.0),
        q=rng.uniform(0.0, 1.0),
    )


def _draw_model(rng, index: int, positive_punishment: bool = False):
    if index % 2 == 0:
        return draw_core_params(rng, positive_punishment)
    return draw_bribery_params(rng, positive_punishment)


def _suite(name: str, rows: list[CheckRow], detail: str) -> SuiteResult:
    return SuiteResult(name, all(row.ok for row in rows), detail, tuple(rows))


def _check_closed_vs_binomial(seed: int, cases: int = 1000) -> SuiteResult:
    rng = generator(RngSeed(seed, 101))
    worst = 0.0
    for i in range(cases):
        model = _draw_model(rng, i)
        x = rng.uniform(0.0, 1.0)
        strategy = "C" if i % 4 < 2 else "D"
        worst = max(worst, abs(avg_payoff(model, x, strategy) - binomial_avg_payoff(model, x, strategy)))
    rows = [CheckRow("closed_form_vs_binomial", "max_abs_diff", worst, 1e-10)]
    return _suite("closed_form_vs_binomial", rows, f"max |closed - binomial| = {worst:.3e} over {cases} cases")


def _check_reductions(seed: int, cases: int = 300) -> SuiteResult:
    rng = generator(RngSeed(seed, 102))
    rows = []
    worst_beta0 = 0.0
    exact_bg = True
    worst_pq = 0.0
    finite = True
    for i in range(cases):
        bg = draw_bribery_params(rng, positive_punishment=True)
        core = bg.core
        n = core.n
        n_c = int(rng.integers(0, n))
        comp = GroupComposition(n_c, n - 1 - n_c)

        quiet = replace(core, beta=0.0)
        expect_c = quiet.b + quiet.f * quiet.c * (n_c + 1) / n - quiet.c - quiet.tau
        expect_d = quiet.b + quiet.f * quiet.c * n_c / n - quiet.tau
        worst_beta0 = max(
            worst_beta0,
            abs(group_payoff(quiet, "C", comp) - expect_c),
            abs(group_payoff(quiet, "D", comp) - expect_d),
        )

        off = replace(bg, gamma=0.0) if i % 2 == 0 else replace(bg, h=0.0)
        exact_bg = exact_bg and (
            group_payoff(off, "C", comp) == group_payoff(core, "C", comp)
            and group_payoff(off, "D", comp) == group_payoff(core, "D", comp)
        )

        symmetric = replace(bg, q=bg.p)
        gap_bg = group_payoff(symmetric, "C", comp) - group_payoff(symmetric, "D", comp)
        gap_core = group_payoff(core, "C", comp) - group_payoff(core, "D", comp)
        worst_pq = max(worst_pq, abs(gap_bg - gap_core))

        corner = GroupComposition(0, n - 1) if i % 2 == 0 else GroupComposition(n - 1, 0)
        for strategy in ("C", "D"):
            finite = finite and np.isfinite(group_payoff(bg, strategy, corner))

    rows.append(CheckRow("reduction_identities", "beta0_closed_form", worst_beta0, 1e-12))
    rows.append(CheckRow("reduction_identities", "bg_gamma0_h0_bit_equal", 0.0 if exact_bg else 1.0, 0.5))
    rows.append(CheckRow("reduction_identities", "p_equals_q_gap", worst_pq, 1e-12))
    rows.append(CheckRow("reduction_identities", "zero_count_finite", 0.0 if finite else 1.0, 0.5))
    return _suite("reduction_identities", rows, f"{cases} random models, worst offsets "
                  f"{worst_beta0:.1e} / {worst_pq:.1e}")


def _check_bribery_offset(seed: int, cases: int = 1000) -> SuiteResult:
    rng = generator(RngSeed(seed, 103))
    grid = np.linspace(0.0, 1.0, 11)
    worst = 0.0
    for _ in range(cases):
        bg = draw_bribery_params(rng)
        expected = bribery_offset(bg)
        q_bg, q_core = q_callable(bg), q_callable(bg.core)
        for x in grid:
            observed = q_bg(float(x)) - q_core(float(x))
            worst = max(worst, abs(observed - expected))
    rows = [CheckRow("bribery_offset", "max_abs_dev", worst, 1e-12)]
    return _suite("bribery_offset", rows, f"max |Q_bg - Q_ipgg - offset| = {worst:.3e} over {cases} x 11 points")


def _check_threshold_gap(seed: int, cases: int = 1000) -> SuiteResult:
    rng = generator(RngSeed(seed, 104))
    worst = 0.0
    for i in range(cases):
        model = _draw_model(rng, i)
        core = core_of(model)
        th = thresholds(model)
        expected = core.n * (core.n - 1) * core.beta * core.tau * core.r_p / core.c
        worst = max(worst, abs(th.f_max - th.f_min - expected))
    rows = [CheckRow("threshold_gap", "max_abs_dev", worst, 1e-12)]
    return _suite("threshold_gap", rows, f"max gap deviation = {worst:.3e} over {cases} cases")


def _check_regime_signs(seed: int, cases: int = 10_000) -> SuiteResult:
    rng = generator(RngSeed(seed, 105))
    disagreements = 0
    classified = 0
    for i in range(cases):
        model = _draw_model(rng, i)
        try:
            regime = classify_regime(model)
        except KnifeEdgeError:
            continue
        classified += 1
        q = q_callable(model)
        q0, q1 = q(0.0), q(1.0)
        if regime.kind is RegimeKind.DEFECTION_DOMINANT:
            agree = q1 < 0.0
        elif regime.kind is RegimeKind.COOPERATION_DOMINANT:
            agree = q0 > 0.0
        else:
            agree = q0 < 0.0 < q1
        disagreements += 0 if agree else 1
    rows = [CheckRow("regime_sign_consistency", "disagreements", float(disagreements), 0.5)]
    return _suite(
        "regime_sign_consistency",
        rows,
        f"{disagreements} disagreements over {classified} classified draws",
    )


def _check_root_bracketing(seed: int, cases: int = 200) -> SuiteResult:
    rng = generator(RngSeed(seed, 106))
    checked = 0
    failures = 0
    while checked < cases:
        model = _draw_model(rng, checked, positive_punishment=True)
        th = thresholds(model)
        f = th.f_min + rng.uniform(0.1, 0.9) * (th.f_max - th.f_min)
        if f <= 0.01:
            continue
        bistable = with_parameter(model, "f", f)
        x_star = interior_root(bistable)
        if not 1e-5 < x_star < 1.0 - 1e-5:
            continue
        checked += 1
        q = q_callable(bistable)
        below, above = q(x_star - 1e-6), q(x_star + 1e-6)
        if not below < 0.0 < above:
            failures += 1
    rows = [CheckRow("root_bracketing", "sign_failures", float(failures), 0.5)]
    return _suite("root_bracketing", rows, f"{failures} bracket failures over {cases} bistable roots")


def mc_battery_cases() -> list[tuple[str, object, str, GroupComposition]]:
    """Fixed 24-case battery: 4 parameter sets x 2 strategies x 3 compositions."""
    sets = [("ipgg_low", IPGG_WEAK_POOL), ("ipgg_high", IPGG_RICH_POOL),
            ("bg_skewed", BG_DEFECTOR_BRIBES), ("bg_balanced", BG_COOP_BRIBES)]
    comps = [GroupComposition(0, 4), GroupComposition(2, 2), GroupComposition(4, 0)]
    return [
        (f"{name}/{strategy}/nc{comp.n_c}", model, strategy, comp)
        for name, model in sets
        for strategy in ("C", "D")
        for comp in comps
    ]


def _check_monte_carlo(seed: int, samples: int, workers) -> list[SuiteResult]:
    """The mc_event_payoffs and mc_average_payoffs suites from one estimate batch."""
    events = [
        (case, _payoff_request(model, strategy, comp, samples, RngSeed(seed, 200 + index)),
         group_payoff(model, strategy, comp))
        for index, (case, model, strategy, comp) in enumerate(mc_battery_cases())
    ]
    sets = [("ipgg", IPGG_BISTABLE, 0.5), ("ipgg", IPGG_BISTABLE, 0.9),
            ("bg", BG_DEFECTOR_BRIBES, 0.3), ("bg", BG_DEFECTOR_BRIBES, 0.5)]
    cases = [(name, model, x, strategy) for name, model, x in sets for strategy in ("C", "D")]
    averages = [
        (f"{name}/x{x}/{strategy}", _avg_request(model, x, strategy, samples, RngSeed(seed, 300 + index)),
         avg_payoff(model, x, strategy))
        for index, (name, model, x, strategy) in enumerate(cases)
    ]
    suites = [("mc_event_payoffs", events), ("mc_average_payoffs", averages)]
    estimates = iter(_estimate_all([request for _, checks in suites for _, request, _ in checks], workers))
    results = []
    for name, checks in suites:
        rows = []
        worst = 0.0
        for case, _, expected in checks:
            estimate = next(estimates)
            sigmas = abs(estimate.mean - expected) / estimate.std_error if estimate.std_error else 0.0
            worst = max(worst, sigmas)
            rows.append(CheckRow(name, case, sigmas, 4.0))
        results.append(_suite(name, rows, f"{len(rows)} cases x {samples} samples, "
                              f"worst deviation {worst:.2f} standard errors"))
    return results


def _check_conservation(seed: int, events: int = 4000) -> SuiteResult:
    rng = generator(RngSeed(seed, 107))
    violations = 0
    for i in range(events):
        model = _draw_model(rng, i, positive_punishment=True)
        core = core_of(model)
        n = core.n
        n_c = int(rng.integers(0, n))
        comp = GroupComposition(n_c, n - 1 - n_c)
        strategy = "C" if i % 2 == 0 else "D"
        outcome = realize_event(model, strategy, comp, generator(RngSeed(seed, 108), i))
        if outcome.action == "punish":
            total_c = n_c + (1 if strategy == "C" else 0)
            nl_c = total_c - (1 if outcome.leader == "cooperator" or
                              (outcome.leader == "focal" and strategy == "C") else 0)
            nl_d = n - 1 - nl_c
            want_c = core.alpha * n * core.tau * core.r_p if nl_c > 0 else 0.0
            want_d = (1.0 - core.alpha) * n * core.tau * core.r_p if nl_d > 0 else 0.0
            if abs(outcome.fines_on_cooperators - want_c) > 1e-12 * max(1.0, want_c):
                violations += 1
            if abs(outcome.fines_on_defectors - want_d) > 1e-12 * max(1.0, want_d):
                violations += 1
        else:
            if outcome.fines_on_cooperators or outcome.fines_on_defectors:
                violations += 1
        if outcome.bribes_paid != outcome.bribes_received:
            violations += 1
        if outcome.action != "accept" and (outcome.bribes_paid or outcome.bribes_received):
            violations += 1
    rows = [CheckRow("mc_conservation", "violations", float(violations), 0.5)]
    return _suite("mc_conservation", rows, f"{violations} accounting violations over {events} events")


def _check_streams(seed: int) -> SuiteResult:
    comp = GroupComposition(2, 2)
    first = estimate_expected_payoff(IPGG_BISTABLE, "C", comp, 10_000, RngSeed(seed, 400))
    second = estimate_expected_payoff(IPGG_BISTABLE, "C", comp, 10_000, RngSeed(seed, 400))
    reproducible = first == second
    a = generator(RngSeed(seed, 401)).random(100_000)
    b = generator(RngSeed(seed, 402)).random(100_000)
    corr = abs(float(np.corrcoef(a, b)[0, 1]))
    rows = [
        CheckRow("stream_reproducibility", "repeat_identical", 0.0 if reproducible else 1.0, 0.5),
        CheckRow("stream_reproducibility", "cross_stream_corr", corr, 0.01),
    ]
    return _suite("stream_reproducibility", rows,
                  f"repeat identical: {reproducible}, |corr| = {corr:.2e}")


def run_battery(samples: int = 1_000_000, seed: int = 42, workers: int | None = None) -> list[SuiteResult]:
    """Run every verification suite; deterministic for a fixed seed."""
    return [
        _check_closed_vs_binomial(seed),
        _check_reductions(seed),
        _check_bribery_offset(seed),
        _check_threshold_gap(seed),
        _check_regime_signs(seed),
        _check_root_bracketing(seed),
        *_check_monte_carlo(seed, samples, workers),
        _check_conservation(seed),
        _check_streams(seed),
    ]
