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
size cannot change any value.  :func:`run_battery` runs the whole
battery as one task list, the suites in report order, under the pool
policy of :mod:`pgg_bribery.montecarlo`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

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
from .games import BriberyParams, CoreParams, GroupComposition, group_payoff
from .montecarlo import (
    RngSeed,
    _avg_request,
    _estimate_all,
    _payoff_request,
    _run_tasks,
    estimate_expected_payoff,
    generator,
    realize_event,
)
from .presets import BG_COOP_BRIBES, BG_DEFECTOR_BRIBES, IPGG_BISTABLE, IPGG_RICH_POOL, IPGG_WEAK_POOL

__all__ = ["CheckRow", "SuiteResult", "run_battery", "draw_core_params", "draw_bribery_params"]

# the fewest samples per estimate at which the 4-SE normal bounds mean what they say:
# at seeds 0-199 the Monte Carlo suites failed for 189 seeds at 10 samples, for 6 at
# 100 (the nominal rate predicts ~0.4) and for none at 1000
MIN_SAMPLES = 1000


@dataclass(frozen=True)
class CheckRow:
    case: str
    value: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.value < self.bound


@dataclass(frozen=True)
class SuiteResult:
    name: str
    detail: str
    rows: tuple[CheckRow, ...]

    @property
    def passed(self) -> bool:
        return all(row.ok for row in self.rows)


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
        **vars(core),
        h=rng.uniform(0.0, 2.0),
        gamma=rng.uniform(0.0, 1.0 - core.beta),
        p=rng.uniform(0.0, 1.0),
        q=rng.uniform(0.0, 1.0),
    )


def _draw_model(rng, index: int, positive_punishment: bool = False):
    if index % 2 == 0:
        return draw_core_params(rng, positive_punishment)
    return draw_bribery_params(rng, positive_punishment)


def _check_closed_vs_binomial(seed: int) -> SuiteResult:
    rng = generator(RngSeed(seed, 101))
    worst = 0.0
    for i in range(1000):
        model = _draw_model(rng, i)
        x = rng.uniform(0.0, 1.0)
        strategy = "C" if i % 4 < 2 else "D"
        worst = max(worst, abs(avg_payoff(model, x, strategy) - binomial_avg_payoff(model, x, strategy)))
    rows = (CheckRow("max_abs_diff", worst, 1e-10),)
    return SuiteResult("closed_form_vs_binomial", f"max |closed - binomial| = {worst:.3e} over 1000 cases", rows)


def _check_reductions(seed: int) -> SuiteResult:
    rng = generator(RngSeed(seed, 102))
    worst_beta0 = 0.0
    exact_bg = True
    worst_pq = 0.0
    finite = True
    for i in range(300):
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

    rows = (
        CheckRow("beta0_closed_form", worst_beta0, 1e-12),
        CheckRow("bg_gamma0_h0_bit_equal", 0.0 if exact_bg else 1.0, 0.5),
        CheckRow("p_equals_q_gap", worst_pq, 1e-12),
        CheckRow("zero_count_finite", 0.0 if finite else 1.0, 0.5),
    )
    return SuiteResult("reduction_identities", f"300 random models, worst offsets "
                       f"{worst_beta0:.1e} / {worst_pq:.1e}", rows)


def _check_bribery_offset(seed: int) -> SuiteResult:
    rng = generator(RngSeed(seed, 103))
    grid = np.linspace(0.0, 1.0, 11)
    worst = 0.0
    for _ in range(1000):
        bg = draw_bribery_params(rng)
        expected = bribery_offset(bg)
        q_bg, q_core = q_callable(bg), q_callable(bg.core)
        for x in grid:
            observed = q_bg(float(x)) - q_core(float(x))
            worst = max(worst, abs(observed - expected))
    rows = (CheckRow("max_abs_dev", worst, 1e-12),)
    return SuiteResult("bribery_offset", f"max |Q_bg - Q_ipgg - offset| = {worst:.3e} over 1000 x 11 points", rows)


def _check_threshold_gap(seed: int) -> SuiteResult:
    rng = generator(RngSeed(seed, 104))
    worst = 0.0
    for i in range(1000):
        model = _draw_model(rng, i)
        th = thresholds(model)
        expected = model.n * (model.n - 1) * model.beta * model.tau * model.r_p / model.c
        worst = max(worst, abs(th.f_max - th.f_min - expected))
    rows = (CheckRow("max_abs_dev", worst, 1e-12),)
    return SuiteResult("threshold_gap", f"max gap deviation = {worst:.3e} over 1000 cases", rows)


def _check_regime_signs(seed: int) -> SuiteResult:
    rng = generator(RngSeed(seed, 105))
    disagreements = 0
    classified = 0
    for i in range(10_000):
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
    rows = (CheckRow("disagreements", float(disagreements), 0.5),)
    return SuiteResult(
        "regime_sign_consistency", f"{disagreements} disagreements over {classified} classified draws", rows
    )


def _check_root_bracketing(seed: int) -> SuiteResult:
    rng = generator(RngSeed(seed, 106))
    checked = 0
    failures = 0
    while checked < 200:
        model = _draw_model(rng, checked, positive_punishment=True)
        th = thresholds(model)
        f = th.f_min + rng.uniform(0.1, 0.9) * (th.f_max - th.f_min)
        if f <= 0.01:
            continue
        bistable = replace(model, f=f)
        x_star = interior_root(bistable)
        if not 1e-5 < x_star < 1.0 - 1e-5:
            continue
        checked += 1
        q = q_callable(bistable)
        below, above = q(x_star - 1e-6), q(x_star + 1e-6)
        if not below < 0.0 < above:
            failures += 1
    rows = (CheckRow("sign_failures", float(failures), 0.5),)
    return SuiteResult("root_bracketing", f"{failures} bracket failures over 200 bistable roots", rows)


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


def _deviation(estimate, expected: float) -> float:
    """``|mean - expected|`` in standard errors; a zero standard error scores 0 only at the exact value."""
    if estimate.std_error:
        return abs(estimate.mean - expected) / estimate.std_error
    return 0.0 if estimate.mean == expected else math.inf


def _monte_carlo_checks(seed: int, samples: int) -> dict[str, list[tuple[str, list, float]]]:
    """The 32 Monte Carlo checks by suite: case, the estimate's chunk tasks and its closed form."""
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
    return {"mc_event_payoffs": events, "mc_average_payoffs": averages}


def _check_monte_carlo(name: str, checks, estimates, samples: int) -> SuiteResult:
    """A Monte Carlo suite: each check's estimate against its closed form."""
    rows = tuple(
        CheckRow(case, _deviation(estimate, expected), 4.0) for (case, _, expected), estimate in zip(checks, estimates)
    )
    worst = max(row.value for row in rows)
    detail = f"{len(rows)} cases x {samples} samples, worst deviation {worst:.2f} standard errors"
    return SuiteResult(name, detail, rows)


def _check_conservation(seed: int) -> SuiteResult:
    rng = generator(RngSeed(seed, 107))
    violations = 0
    for i in range(4000):
        model = _draw_model(rng, i, positive_punishment=True)
        n = model.n
        n_c = int(rng.integers(0, n))
        comp = GroupComposition(n_c, n - 1 - n_c)
        strategy = "C" if i % 2 == 0 else "D"
        outcome = realize_event(model, strategy, comp, generator(RngSeed(seed, 108), i))
        if outcome.action == "punish":
            total_c = n_c + (1 if strategy == "C" else 0)
            nl_c = total_c - (1 if outcome.leader == "cooperator" or
                              (outcome.leader == "focal" and strategy == "C") else 0)
            nl_d = n - 1 - nl_c
            want_c = model.alpha * n * model.tau * model.r_p if nl_c > 0 else 0.0
            want_d = (1.0 - model.alpha) * n * model.tau * model.r_p if nl_d > 0 else 0.0
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
    rows = (CheckRow("violations", float(violations), 0.5),)
    return SuiteResult("mc_conservation", f"{violations} accounting violations over 4000 events", rows)


def _check_streams(seed: int) -> SuiteResult:
    comp = GroupComposition(2, 2)
    first = estimate_expected_payoff(IPGG_BISTABLE, "C", comp, 10_000, RngSeed(seed, 400))
    second = estimate_expected_payoff(IPGG_BISTABLE, "C", comp, 10_000, RngSeed(seed, 400))
    reproducible = first == second
    a = generator(RngSeed(seed, 401)).random(100_000)
    b = generator(RngSeed(seed, 402)).random(100_000)
    corr = abs(float(np.corrcoef(a, b)[0, 1]))
    rows = (
        CheckRow("repeat_identical", 0.0 if reproducible else 1.0, 0.5),
        CheckRow("cross_stream_corr", corr, 0.01),
    )
    return SuiteResult("stream_reproducibility", f"repeat identical: {reproducible}, |corr| = {corr:.2e}", rows)


# the deterministic suites in report order: the Monte Carlo suites come between these two groups
_BEFORE_MONTE_CARLO = (
    _check_closed_vs_binomial,
    _check_reductions,
    _check_bribery_offset,
    _check_threshold_gap,
    _check_regime_signs,
    _check_root_bracketing,
)
_AFTER_MONTE_CARLO = (_check_conservation, _check_streams)


def run_battery(samples: int = 1_000_000, seed: int = 42, workers: int | None = None) -> list[SuiteResult]:
    """Run every verification suite; deterministic for a fixed seed.

    One task list holds the eight deterministic suites, in report order,
    then the chunks of the 32 Monte Carlo estimates; the suites come back
    in the order of the module docstring.  ``samples`` below
    ``MIN_SAMPLES`` is refused with ``ValueError`` before any task is built.
    """
    if samples < MIN_SAMPLES:
        raise ValueError(f"verify needs samples >= MIN_SAMPLES = {MIN_SAMPLES}, got {samples}")
    checks = _monte_carlo_checks(seed, samples)
    requests = [request for cases in checks.values() for _, request, _ in cases]
    deterministic = _BEFORE_MONTE_CARLO + _AFTER_MONTE_CARLO
    tasks = [partial(check, seed) for check in deterministic] + [task for request in requests for task in request]
    results = _run_tasks(tasks, workers)
    estimates = iter(_estimate_all(requests, results[len(deterministic):]))
    monte_carlo = [
        _check_monte_carlo(name, cases, [next(estimates) for _ in cases], samples) for name, cases in checks.items()
    ]
    before = len(_BEFORE_MONTE_CARLO)
    return [*results[:before], *monte_carlo, *results[before:len(deterministic)]]
