"""Seeded event sampling, estimator agreement with the closed forms,
and the finite-population imitation walk."""

import math
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from pgg_bribery import (
    Estimate,
    GroupComposition,
    RngSeed,
    avg_payoff,
    estimate_avg_payoff,
    estimate_expected_payoff,
    evolve_finite_population,
    group_payoff,
    q_function,
    realize_event,
)
from pgg_bribery import cli, config, montecarlo
from pgg_bribery.montecarlo import _avg_request, _estimate_all, _payoff_request, _run_tasks, generator
from pgg_bribery.presets import BG_DEFECTOR_BRIBES, IPGG_BISTABLE, IPGG_WEAK_POOL
from pgg_bribery.verify import (
    _check_monte_carlo,
    _deviation,
    _monte_carlo_checks,
    draw_bribery_params,
    run_battery,
)

SAMPLES = 200_000


class TestReproducibility:
    def test_identical_seeds_reproduce_estimates(self):
        comp = GroupComposition(2, 2)
        first = estimate_expected_payoff(IPGG_WEAK_POOL, "C", comp, 5000, RngSeed(7, 3))
        second = estimate_expected_payoff(IPGG_WEAK_POOL, "C", comp, 5000, RngSeed(7, 3))
        assert first == second

    def test_distinct_streams_differ(self):
        comp = GroupComposition(2, 2)
        first = estimate_expected_payoff(IPGG_WEAK_POOL, "C", comp, 5000, RngSeed(7, 3))
        other = estimate_expected_payoff(IPGG_WEAK_POOL, "C", comp, 5000, RngSeed(7, 4))
        assert first.mean != other.mean

    def test_single_event_is_seed_deterministic(self):
        comp = GroupComposition(1, 3)
        values = {
            realize_event(BG_DEFECTOR_BRIBES, "D", comp, generator(RngSeed(11, 2))).focal_payoff for _ in range(5)
        }
        assert len(values) == 1

    def test_streams_pass_an_independence_sanity_check(self):
        a = generator(RngSeed(123, 0)).random(100_000)
        b = generator(RngSeed(123, 1)).random(100_000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.01

    @pytest.mark.parametrize("args", [(1.5,), (True,), ("7",), (7, 0.5), (7, False)])
    def test_non_integer_seeds_are_refused(self, args):
        with pytest.raises(ValueError, match="must be an integer"):
            RngSeed(*args)

    def test_whole_float_seeds_address_the_int_streams(self):
        assert generator(RngSeed(7.0, 3.0)).random() == generator(RngSeed(7, 3)).random()

    def test_worker_pool_size_never_changes_values(self):
        comp = GroupComposition(2, 2)
        serial = estimate_expected_payoff(IPGG_WEAK_POOL, "C", comp, 600_000, RngSeed(5))
        pooled = estimate_expected_payoff(IPGG_WEAK_POOL, "C", comp, 600_000, RngSeed(5), workers=2)
        assert serial == pooled

    @pytest.mark.parametrize("model", [IPGG_BISTABLE, BG_DEFECTOR_BRIBES], ids=["ipgg", "bg"])
    def test_threads_at_once_reproduce_the_serial_estimates(self, model):
        # numpy releases the GIL in its loops, so each thread needs its own chunk buffers
        n = 3 * montecarlo.CHUNK_SAMPLES
        calls = [
            partial(estimate_avg_payoff, model, 0.37, "C", n, RngSeed(5)),
            partial(estimate_expected_payoff, model, "D", GroupComposition(2, model.n - 3), n, RngSeed(6)),
        ]
        serial = [call() for call in calls]
        start = threading.Barrier(len(calls))

        def run(call):
            start.wait()
            return [call() for _ in range(2)]

        with ThreadPoolExecutor(len(calls)) as threads:
            results = [future.result() for future in [threads.submit(run, call) for call in calls]]
        assert results == [[estimate] * 2 for estimate in serial]


class TestBatchedEstimates:
    """All the tasks of a command go through one task list; no value may move."""

    # fixed and mixed compositions, IPGG and BG, one and two chunks per request
    REQUESTS = [
        ("fixed", IPGG_WEAK_POOL, "C", GroupComposition(2, 2), 300_000, RngSeed(9, 1)),
        ("fixed", BG_DEFECTOR_BRIBES, "D", GroupComposition(1, 3), 40_000, RngSeed(9, 2)),
        ("mixed", IPGG_BISTABLE, "D", 0.7, 40_000, RngSeed(9, 3)),
        ("mixed", BG_DEFECTOR_BRIBES, "C", 0.4, 300_000, RngSeed(9, 4)),
    ]

    @staticmethod
    def _one_at_a_time(kind, model, strategy, where, n, seed):
        if kind == "fixed":
            return estimate_expected_payoff(model, strategy, where, n, seed)
        return estimate_avg_payoff(model, where, strategy, n, seed)

    @staticmethod
    def _request(kind, model, strategy, where, n, seed):
        if kind == "fixed":
            return _payoff_request(model, strategy, where, n, seed)
        return _avg_request(model, where, strategy, n, seed)

    @pytest.fixture(scope="class")
    def separate(self):
        return [self._one_at_a_time(*request) for request in self.REQUESTS]

    @pytest.mark.parametrize("workers", [None, 1, 2])
    def test_batch_equals_one_estimate_at_a_time(self, separate, workers):
        requests = [self._request(*request) for request in self.REQUESTS]
        results = _run_tasks([task for request in requests for task in request], workers)
        assert _estimate_all(requests, results) == separate

    @pytest.fixture
    def pool_tasks(self):
        """Every task handed to a pool, in order, by its function's name."""
        return []

    @pytest.fixture
    def pool_sizes(self, monkeypatch, pool_tasks):
        """The ``max_workers`` of every pool started, each run in process.

        The pool has no ``map``: ``submit`` is the one way in.
        """
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn):
                pool_tasks.append(fn.func.__name__)
                future = Future()
                future.set_result(fn())
                return future

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", InProcessPool)
        return sizes

    def test_a_short_request_fails_before_any_pool_starts(self, pool_sizes):
        comp = GroupComposition(2, 2)
        for n in (1, 0, -5):
            with pytest.raises(ValueError, match="n >= 2"):
                _payoff_request(IPGG_WEAK_POOL, "C", comp, n, RngSeed(0))
            with pytest.raises(ValueError, match="n >= 2"):
                _avg_request(IPGG_BISTABLE, 0.5, "D", n, RngSeed(0))
            with pytest.raises(ValueError, match="n >= 2"):
                estimate_expected_payoff(IPGG_WEAK_POOL, "C", comp, n, RngSeed(0), workers=2)
            with pytest.raises(ValueError, match="n >= 2"):
                estimate_avg_payoff(IPGG_BISTABLE, 0.5, "D", n, RngSeed(0), workers=2)
        assert pool_sizes == []

    def test_workers_below_one_are_refused_before_any_pool_starts(self, pool_sizes):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            estimate_expected_payoff(IPGG_WEAK_POOL, "C", GroupComposition(2, 2), 600_000, RngSeed(5), workers=0)
        assert pool_sizes == []

    def test_pool_never_outnumbers_the_chunks(self, pool_sizes, pool_tasks):
        comp = GroupComposition(2, 2)
        three_chunks = estimate_expected_payoff(
            IPGG_WEAK_POOL, "C", comp, 600_000, RngSeed(5), workers=montecarlo.MAX_WORKERS
        )
        assert pool_sizes == [3] and pool_tasks == ["_chunk_task"] * 3
        assert three_chunks == estimate_expected_payoff(IPGG_WEAK_POOL, "C", comp, 600_000, RngSeed(5))
        estimate_expected_payoff(IPGG_WEAK_POOL, "C", comp, 600_000, RngSeed(5), workers=2)
        assert pool_sizes == [3, 2]

    def test_verify_refuses_fewer_than_min_samples_before_any_pool_starts(self, pool_sizes, pool_tasks):
        from pgg_bribery.verify import MIN_SAMPLES  # imported here: a tree without the floor fails at once

        for samples in (MIN_SAMPLES - 1, 10, 2):
            with pytest.raises(ValueError, match=f"samples >= MIN_SAMPLES = {MIN_SAMPLES}, got {samples}"):
                run_battery(samples=samples, workers=2)
        assert pool_sizes == [] and pool_tasks == []

    def test_verify_runs_its_whole_battery_in_one_pool(self, pool_sizes, pool_tasks):
        from pgg_bribery.verify import MIN_SAMPLES

        suites = {suite.name: suite for suite in run_battery(samples=MIN_SAMPLES, workers=2)}
        assert all(suite.passed for suite in suites.values())  # the floor itself is accepted
        assert pool_sizes == [2]
        assert len(suites["mc_event_payoffs"].rows) == 24 and len(suites["mc_average_payoffs"].rows) == 8
        # the deterministic suites go in ahead of every chunk, in report order
        assert pool_tasks == [
            "_check_closed_vs_binomial",
            "_check_reductions",
            "_check_bribery_offset",
            "_check_threshold_gap",
            "_check_regime_signs",
            "_check_root_bracketing",
            "_check_conservation",
            "_check_streams",
        ] + ["_chunk_task"] * 32

    @staticmethod
    def _no_work(*args, **kwargs):
        raise AssertionError("the work started instead of being refused")

    def test_workers_above_max_workers_are_refused_before_any_pool_starts(self, monkeypatch):
        from pgg_bribery.montecarlo import MAX_WORKERS  # imported here: a tree without the cap fails at once
        from pgg_bribery.verify import MIN_SAMPLES

        assert cli.MAX_WORKERS == MAX_WORKERS
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", self._no_work)
        comp = GroupComposition(2, 2)
        for workers in (MAX_WORKERS + 1, 10**4):
            match = f"<= MAX_WORKERS = {MAX_WORKERS}, got {workers}"
            with pytest.raises(ValueError, match=match):
                estimate_expected_payoff(IPGG_WEAK_POOL, "C", comp, 600_000, RngSeed(5), workers=workers)
            with pytest.raises(ValueError, match=match):
                estimate_avg_payoff(IPGG_BISTABLE, 0.5, "D", 600_000, RngSeed(5), workers=workers)
            with pytest.raises(ValueError, match=match):
                run_battery(samples=MIN_SAMPLES, workers=workers)

    def test_more_than_max_samples_are_refused_before_any_task_is_built(self, monkeypatch):
        from pgg_bribery.montecarlo import MAX_SAMPLES  # imported here: a tree without the cap fails at once

        assert config.MAX_SAMPLES == MAX_SAMPLES
        comp = GroupComposition(2, 2)
        # the cap itself is accepted: its tasks are listed, none is run
        assert len(_payoff_request(IPGG_WEAK_POOL, "C", comp, MAX_SAMPLES, RngSeed(0))) == 4000
        monkeypatch.setattr(montecarlo, "_chunk_sizes", self._no_work)
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", self._no_work)
        for n in (MAX_SAMPLES + 1, 10**12):
            match = f"n <= MAX_SAMPLES = {MAX_SAMPLES} samples, got {n}"
            with pytest.raises(ValueError, match=match):
                estimate_expected_payoff(IPGG_WEAK_POOL, "C", comp, n, RngSeed(0), workers=2)
            with pytest.raises(ValueError, match=match):
                estimate_avg_payoff(IPGG_BISTABLE, 0.5, "D", n, RngSeed(0), workers=10**4)
            with pytest.raises(ValueError, match=match):
                run_battery(samples=n, workers=2)

    def test_tasks_come_back_in_order(self, pool_sizes, pool_tasks):
        comp = GroupComposition(2, 2)
        calls = [partial(math.sqrt, 4.0), partial(math.floor, 2.5)]
        request = _payoff_request(IPGG_WEAK_POOL, "C", comp, 600_000, RngSeed(5))
        results = _run_tasks(calls + request, 50)
        assert results[:2] == [2.0, 2]
        assert _estimate_all([request], results[2:]) == [
            estimate_expected_payoff(IPGG_WEAK_POOL, "C", comp, 600_000, RngSeed(5))
        ]
        assert pool_sizes == [5] and pool_tasks == ["sqrt", "floor"] + ["_chunk_task"] * 3
        assert _run_tasks(calls + request, None) == results
        assert pool_sizes == [5]

    def test_a_real_pool_runs_the_battery_as_this_process_does(self):
        assert run_battery(samples=20_000, workers=2) == run_battery(samples=20_000)


class TestMonteCarloSuites:
    """verify scores an estimate by its distance from the closed form in standard errors."""

    def test_a_zero_standard_error_scores_zero_only_at_the_closed_form(self):
        assert _deviation(Estimate(2.5, 0.0, 2), 2.5) == 0.0
        assert _deviation(Estimate(2.5, 0.0, 2), 2.25) == math.inf
        assert _deviation(Estimate(2.5, 0.5, 2), 2.25) == 0.5

    def test_two_samples_do_not_pass(self):
        # two equal samples have a zero standard error, whatever their mean
        suites = []
        for name, checks in _monte_carlo_checks(42, 2).items():
            requests = [request for _, request, _ in checks]
            results = _run_tasks([task for request in requests for task in request], None)
            suites.append(_check_monte_carlo(name, checks, _estimate_all(requests, results), 2))
        assert not any(suite.passed for suite in suites)
        rows = [row for suite in suites for row in suite.rows]
        assert len(rows) == 32 and not any(row.value == 0.0 for row in rows)
        assert sum(row.value == math.inf for row in rows) == 15


class TestPinnedStreams:
    """Exact estimates over two 250k chunks; any change to the draws or their order fails."""

    PINNED = {
        ("ipgg", "C"): (Estimate(11.467508333333337, 0.0014259661344466757, 300_000),
                        Estimate(11.12287688888889, 0.002442704716733949, 300_000)),
        ("ipgg", "D"): (Estimate(11.86767222222222, 0.0014252951848807525, 300_000),
                        Estimate(11.634443555555555, 0.0017300921757678349, 300_000)),
        ("bg", "C"): (Estimate(10.739670333333336, 0.002077325427831145, 300_000),
                      Estimate(10.555982666666667, 0.0026143841272025467, 300_000)),
        ("bg", "D"): (Estimate(11.292706444444441, 0.0019860671917374517, 300_000),
                      Estimate(11.200950444444445, 0.002140324184985678, 300_000)),
    }
    MODELS = {"ipgg": IPGG_BISTABLE, "bg": BG_DEFECTOR_BRIBES}

    @pytest.mark.parametrize("name,strategy", sorted(PINNED))
    def test_fixed_and_mixed_estimates_are_pinned(self, name, strategy):
        fixed, mixed = self.PINNED[name, strategy]
        model = self.MODELS[name]
        comp = GroupComposition(2, 2)
        assert estimate_expected_payoff(model, strategy, comp, 300_000, RngSeed(42, 50)) == fixed
        assert estimate_avg_payoff(model, 0.4, strategy, 300_000, RngSeed(42, 60)) == mixed

    def test_pooled_estimates_are_pinned(self):
        fixed, mixed = self.PINNED["bg", "D"]
        comp = GroupComposition(2, 2)
        pooled = estimate_expected_payoff(BG_DEFECTOR_BRIBES, "D", comp, 300_000, RngSeed(42, 50), workers=2)
        assert pooled == fixed
        pooled = estimate_avg_payoff(BG_DEFECTOR_BRIBES, 0.4, "D", 300_000, RngSeed(42, 60), workers=2)
        assert pooled == mixed


class TestEventOracle:
    def test_no_punishment_events_are_deterministic(self):
        quiet = replace(IPGG_WEAK_POOL, beta=0.0)
        comp = GroupComposition(4, 0)
        expected = quiet.b + quiet.f * quiet.c * (4 + 1) / 5 - quiet.c - quiet.tau
        for s in range(5):
            payoff = realize_event(quiet, "C", comp, generator(RngSeed(s))).focal_payoff
            assert payoff == pytest.approx(expected, abs=1e-12)
        estimate = estimate_expected_payoff(quiet, "C", comp, 10_000, RngSeed(0))
        assert estimate.std_error == 0.0
        assert estimate.mean == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "model,focal,comp",
        [
            (IPGG_WEAK_POOL, "C", GroupComposition(2, 2)),
            (IPGG_WEAK_POOL, "D", GroupComposition(4, 0)),
            (IPGG_WEAK_POOL, "D", GroupComposition(0, 4)),
            (BG_DEFECTOR_BRIBES, "C", GroupComposition(2, 2)),
            (BG_DEFECTOR_BRIBES, "D", GroupComposition(2, 2)),
            (BG_DEFECTOR_BRIBES, "C", GroupComposition(0, 4)),
        ],
    )
    def test_sample_means_match_closed_forms(self, model, focal, comp):
        estimate = estimate_expected_payoff(model, focal, comp, SAMPLES, RngSeed(42, 17))
        expected = group_payoff(model, focal, comp)
        assert abs(estimate.mean - expected) < 4 * estimate.std_error

    @pytest.mark.parametrize("n", [1000.5, "1000", True])
    def test_a_non_integer_sample_count_is_refused(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            estimate_expected_payoff(IPGG_WEAK_POOL, "C", GroupComposition(2, 2), n, RngSeed(0))
        with pytest.raises(ValueError, match="n must be an integer"):
            estimate_avg_payoff(IPGG_WEAK_POOL, 0.5, "C", n, RngSeed(0))

    def test_a_whole_float_sample_count_is_the_int(self):
        comp = GroupComposition(2, 2)
        whole = estimate_expected_payoff(IPGG_WEAK_POOL, "C", comp, 1000.0, RngSeed(0))
        assert whole == estimate_expected_payoff(IPGG_WEAK_POOL, "C", comp, 1000, RngSeed(0))

    def test_estimate_needs_two_samples(self):
        with pytest.raises(ValueError):
            estimate_expected_payoff(IPGG_WEAK_POOL, "C", GroupComposition(2, 2), 1, RngSeed(0))
        with pytest.raises(ValueError):
            Estimate(mean=0.0, std_error=-1.0, n_samples=10)


class TestAverageOracle:
    def test_degenerate_population_fraction(self):
        quiet = replace(IPGG_WEAK_POOL, beta=0.0)
        estimate = estimate_avg_payoff(quiet, 0.0, "C", 5000, RngSeed(3))
        expected = group_payoff(quiet, "C", GroupComposition(0, 4))
        assert estimate.mean == pytest.approx(expected, abs=1e-12)
        assert estimate.std_error == 0.0

    @pytest.mark.parametrize("strategy", ["C", "D"])
    def test_matches_closed_form_average(self, strategy):
        estimate = estimate_avg_payoff(IPGG_BISTABLE, 0.5, strategy, SAMPLES, RngSeed(42, 23))
        expected = avg_payoff(IPGG_BISTABLE, 0.5, strategy)
        assert abs(estimate.mean - expected) < 4 * estimate.std_error

    def test_drift_direction_matches_the_selection_polynomial(self):
        est_c = estimate_avg_payoff(BG_DEFECTOR_BRIBES, 0.3, "C", SAMPLES, RngSeed(42, 31))
        est_d = estimate_avg_payoff(BG_DEFECTOR_BRIBES, 0.3, "D", SAMPLES, RngSeed(42, 32))
        combined_se = np.hypot(est_c.std_error, est_d.std_error)
        q = q_function(BG_DEFECTOR_BRIBES, 0.3)
        assert abs(q) > 4 * combined_se
        assert np.sign(est_c.mean - est_d.mean) == np.sign(q)


class TestConservation:
    def test_every_transfer_is_accounted(self):
        rng = generator(RngSeed(2718, 0))
        for case in range(500):
            model = draw_bribery_params(rng, positive_punishment=True)
            n = model.n
            n_c = int(rng.integers(0, n))
            comp = GroupComposition(n_c, n - 1 - n_c)
            focal = "C" if case % 2 == 0 else "D"
            outcome = realize_event(model, focal, comp, generator(RngSeed(2718, 1), case))

            assert outcome.bribes_paid == outcome.bribes_received
            if outcome.action != "accept":
                assert outcome.bribes_paid == 0.0
            if outcome.action == "punish":
                total_c = n_c + (focal == "C")
                leader_is_c = outcome.leader == "cooperator" or (
                    outcome.leader == "focal" and focal == "C"
                )
                nl_c = total_c - leader_is_c
                nl_d = n - 1 - nl_c
                budget = n * model.tau * model.r_p
                want_c = model.alpha * budget if nl_c > 0 else 0.0
                want_d = (1 - model.alpha) * budget if nl_d > 0 else 0.0
                assert outcome.fines_on_cooperators == pytest.approx(want_c, rel=1e-12)
                assert outcome.fines_on_defectors == pytest.approx(want_d, rel=1e-12)
            else:
                assert outcome.fines_on_cooperators == 0.0
                assert outcome.fines_on_defectors == 0.0


class TestImitationWalk:
    def test_empty_population_is_absorbed_forever(self):
        trajectory = evolve_finite_population(IPGG_BISTABLE, 50, 0.0, 5000, seed=RngSeed(1))
        assert np.all(trajectory.states == 0.0)
        assert trajectory.converged_to == 0.0

    def test_runs_are_seed_deterministic(self):
        a = evolve_finite_population(IPGG_BISTABLE, 100, 0.6, 2000, seed=RngSeed(5))
        b = evolve_finite_population(IPGG_BISTABLE, 100, 0.6, 2000, seed=RngSeed(5))
        assert np.array_equal(a.states, b.states)

    def test_majority_of_runs_follow_the_replicator_basins(self):
        # interior equilibrium sits near 0.786: start above and below it
        up = down = 0
        runs = 9
        for s in range(runs):
            high = evolve_finite_population(IPGG_BISTABLE, 400, 0.95, 40_000, seed=RngSeed(100 + s))
            up += high.final_state > 0.95
            low = evolve_finite_population(IPGG_BISTABLE, 400, 0.30, 40_000, seed=RngSeed(200 + s))
            down += low.final_state < 0.05
        assert up >= 7
        assert down >= 7

    def test_large_population_tracks_the_deterministic_flow(self):
        high = evolve_finite_population(IPGG_BISTABLE, 10_000, 0.95, 200_000, seed=RngSeed(7))
        assert high.final_state > 0.99
        low = evolve_finite_population(IPGG_BISTABLE, 10_000, 0.30, 200_000, seed=RngSeed(8))
        assert low.final_state < 0.01

    def test_population_must_cover_two_groups(self):
        with pytest.raises(ValueError):
            evolve_finite_population(IPGG_BISTABLE, 9, 0.5, 100, seed=RngSeed(0))

    @pytest.mark.parametrize("size, rounds, name", [
        (100.5, 100, "population_size"), (100, 10.5, "rounds"), (100, True, "rounds"),
    ])
    def test_non_integer_sizes_are_refused(self, size, rounds, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            evolve_finite_population(IPGG_BISTABLE, size, 0.5, rounds, seed=RngSeed(0))

    def test_whole_float_sizes_walk_as_ints(self):
        a = evolve_finite_population(IPGG_BISTABLE, 100.0, 0.6, 2000.0, seed=RngSeed(5))
        b = evolve_finite_population(IPGG_BISTABLE, 100, 0.6, 2000, seed=RngSeed(5))
        assert np.array_equal(a.times, b.times) and np.array_equal(a.states, b.states)

    @pytest.mark.parametrize("strength", [1000.0, -1000.0])
    def test_extreme_selection_strength_does_not_overflow(self, strength):
        trajectory = evolve_finite_population(IPGG_BISTABLE, 100, 0.5, 2000, strength, RngSeed(0))
        assert ((trajectory.states >= 0) & (trajectory.states <= 1)).all()
        if strength > 0:  # near-deterministic imitation follows the basin of x0 < x*
            assert trajectory.converged_to == 0.0

    @pytest.mark.parametrize("strength", [math.inf, -math.inf, math.nan])
    def test_non_finite_selection_strength_is_refused(self, strength):
        with pytest.raises(ValueError, match="imitation_strength must be finite"):
            evolve_finite_population(IPGG_BISTABLE, 100, 0.5, 2000, strength, RngSeed(0))

    # 30k-round walks (z=1000, x0=0.5) by (seed, imitation strength): the absorbing
    # state, the last recorded round, and the cooperator counts at every 100th
    # record, summed over all records and summed weighted by record index.
    # s=0.01 is near neutral, so it pins the draw order; s=1 also pins the payoffs.
    PINNED_WALKS = {
        (1, 0.01): (None, 30000.0, [500, 497, 541, 548, 566, 553, 562, 591, 545, 519, 492], 537476, 271680141),
        (2, 0.01): (None, 30000.0, [500, 494, 505, 541, 538, 542, 484, 485, 493, 492, 516], 505400, 252265975),
        (3, 1.0): (0.0, 18089.0, [500, 353, 228, 109, 30, 7, 1], 97106, 13279129),
    }

    @pytest.mark.parametrize("seed,strength", sorted(PINNED_WALKS))
    def test_walk_stream_is_pinned(self, seed, strength):
        trajectory = evolve_finite_population(IPGG_BISTABLE, 1000, 0.5, 30_000, strength, RngSeed(seed))
        converged_to, last_round, every_100th, total, weighted = self.PINNED_WALKS[seed, strength]
        counts = np.rint(trajectory.states * 1000).astype(int)
        assert trajectory.converged_to == converged_to
        assert trajectory.times.tolist() == [30.0 * i for i in range(len(counts) - 1)] + [last_round]
        assert (counts / 1000 == trajectory.states).all()
        assert counts[::100].tolist() == every_100th
        assert int(counts.sum()) == total
        assert int(counts @ np.arange(len(counts))) == weighted
