"""The table-driven event kernel against the per-sample body it replaced
and against :func:`realize_event`, its payoff table against the
closed-form group payoff, its binomial draws against numpy's, and the
working memory of one chunk."""

import math
import tracemalloc
from dataclasses import replace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from conftest import model_strategy

from pgg_bribery import (
    BriberyParams,
    CoreParams,
    GroupComposition,
    RngSeed,
    group_payoff,
    realize_event,
)
from pgg_bribery import montecarlo
from pgg_bribery.montecarlo import (
    INVERSION_MAX_N,
    _binomial,
    _chunk_task,
    _cut_row,
    _event_payoffs,
    _payoff_table,
    _summarize,
    generator,
)
from pgg_bribery.presets import BG_DEFECTOR_BRIBES, IPGG_BISTABLE, REGIMES


def reference_event_payoffs(model, focal_c, n_c, rng, size) -> np.ndarray:
    """The per-sample event body: every term computed for every sample, then selected."""
    n = model.n
    n_d = n - 1 - n_c
    is_bg = isinstance(model, BriberyParams)

    lead = rng.integers(0, n, size)
    u_action = rng.random(size)
    if is_bg:
        u_offer = rng.random(size)
        recv_c = rng.binomial(n_c, model.p, size)
        recv_d = rng.binomial(n_d, model.q, size)

    total_c = n_c + (1 if focal_c else 0)
    payoff = model.b + model.f * model.c * total_c / n - model.tau - (model.c if focal_c else 0.0)

    punished = (u_action < model.beta) & (lead != 0)
    if focal_c:
        budget = model.alpha * n * model.tau * model.r_p
        n_own = n_c
        own_leads = lead <= n_c  # a cooperator co-player leads (lead >= 1 here)
    else:
        budget = (1.0 - model.alpha) * n * model.tau * model.r_p
        n_own = n_d
        own_leads = lead > n_c
    own_share = np.where(n_own > 0, budget / np.maximum(n_own, 1), 0.0)
    other_share = budget / (n_own + 1)
    payoff = payoff - np.where(punished & own_leads, own_share, 0.0)
    payoff -= np.where(punished & ~own_leads, other_share, 0.0)

    if is_bg:
        accepts = (u_action >= model.beta) & (u_action < model.beta + model.gamma)
        offer_prob = model.p if focal_c else model.q
        payoff -= model.h * ((lead != 0) & accepts & (u_offer < offer_prob))
        payoff += model.h * np.where((lead == 0) & accepts, recv_c + recv_d, 0)
    return payoff


SIZES = (1, 7, 4097)


def _payoffs(kernel, model, focal_c, where, size, index):
    """One chunk as the estimators draw it: ``where`` is a fixed n_c, or x for compositions drawn first.

    The kernel's compositions are drawn as :func:`_chunk_task` draws them,
    with :func:`_binomial`, and the reference's with ``rng.binomial``.
    """
    rng = generator(RngSeed(2024), index)
    if isinstance(where, int):
        n_c = where
    elif kernel is reference_event_payoffs:
        n_c = rng.binomial(model.n - 1, where, size)
    else:
        n_c = _binomial(rng, model.n - 1, where, size)
    return kernel(model, focal_c, n_c, rng, size)


def assert_kernel_matches_reference(model, x_random):
    """Both strategies, every fixed n_c and drawn compositions at x in {0, 1, x_random}, at every size."""
    places = list(range(model.n)) + [0.0, 1.0, x_random]
    index = 0
    for focal_c in (True, False):
        for size in SIZES:
            for where in places:
                got = _payoffs(_event_payoffs, model, focal_c, where, size, index)
                want = _payoffs(reference_event_payoffs, model, focal_c, where, size, index)
                assert got.dtype == want.dtype == np.float64
                assert got.tobytes() == want.tobytes(), (focal_c, size, where)
                index += 1


_BG = BG_DEFECTOR_BRIBES
EDGE_MODELS = {
    "ipgg": IPGG_BISTABLE,
    "ipgg_beta=0": replace(IPGG_BISTABLE, beta=0.0),
    "ipgg_beta=1": replace(IPGG_BISTABLE, beta=1.0),
    "ipgg_alpha=0": replace(IPGG_BISTABLE, alpha=0.0),
    "ipgg_alpha=1": replace(IPGG_BISTABLE, alpha=1.0),
    "ipgg_n=2": replace(IPGG_BISTABLE, n=2, f=1.5),
    "bg": _BG,
    "bg_beta=0": replace(_BG, beta=0.0),
    "bg_beta+gamma=1": replace(_BG, gamma=1.0 - _BG.beta),
    "bg_beta=0_gamma=1": replace(_BG, beta=0.0, gamma=1.0),
    "bg_gamma=0": replace(_BG, gamma=0.0),
    "bg_h=0": replace(_BG, h=0.0),
    "bg_alpha=0": replace(_BG, alpha=0.0),
    "bg_alpha=1": replace(_BG, alpha=1.0),
    "bg_p=0_q=0": replace(_BG, p=0.0, q=0.0),
    "bg_p=1_q=1": replace(_BG, p=1.0, q=1.0),
    "bg_p=0_q=1": replace(_BG, p=0.0, q=1.0),
    "bg_p=1_q=0": replace(_BG, p=1.0, q=0.0),
    "bg_n=2": replace(_BG, n=2, f=1.5),
    # an int h: h * count is taken in int64, as the reference takes it, not in the counts' int8
    "bg_h=200": replace(_BG, h=200),
    "bg_h=10_n=41": replace(_BG, n=INVERSION_MAX_N + 1, f=2.0, h=10),
    # signed zeros: a payoff of +0.0 must stay +0.0 where no bribe income is added
    "ipgg_b=-0_tau=-0": replace(IPGG_BISTABLE, b=-0.0, tau=-0.0),
    "bg_b=-0": replace(_BG, b=-0.0),
    "bg_tau=-0": replace(_BG, tau=-0.0),
    "bg_b=-0_tau=-0": replace(_BG, b=-0.0, tau=-0.0),
    "bg_b=-0_tau=-0_h=-0": replace(_BG, b=-0.0, tau=-0.0, h=-0.0),
}


class TestReferenceKernel:
    """Same draws, same bytes: the table lookup equals the per-sample body."""

    @pytest.mark.parametrize("name", sorted(EDGE_MODELS))
    def test_edge_models_match_the_reference(self, name):
        assert_kernel_matches_reference(EDGE_MODELS[name], 0.37)

    @settings(deadline=None)
    @given(model_strategy(), st.floats(0.0, 1.0))
    def test_random_models_match_the_reference(self, model, x):
        assert_kernel_matches_reference(model, x)

    @pytest.mark.parametrize("boundary", ["beta", "beta+gamma", "offer"])
    def test_a_draw_on_a_probability_boundary_matches_the_reference(self, boundary):
        # the model's probability equals one sample's uniform, so "<" and "<=" differ there
        size, index, n_c = 64, 7, 2
        rng = generator(RngSeed(2024), index)
        lead = rng.integers(0, _BG.n, size)
        u_action, u_offer = rng.random(size), rng.random(size)
        j = int(np.argmax(lead != 0))
        models = {
            "beta": [replace(IPGG_BISTABLE, beta=u_action[j]),
                     replace(_BG, beta=u_action[j], gamma=1.0 - u_action[j])],
            "beta+gamma": [replace(_BG, beta=0.0, gamma=u_action[j])],
            "offer": [replace(_BG, beta=0.0, gamma=1.0, p=u_offer[j], q=u_offer[j])],
        }[boundary]
        for model in models:
            for focal_c in (True, False):
                got = _payoffs(_event_payoffs, model, focal_c, n_c, size, index)
                want = _payoffs(reference_event_payoffs, model, focal_c, n_c, size, index)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["ipgg", "bg"])
    def test_a_full_chunk_matches_the_reference(self, name):
        model = EDGE_MODELS[name]
        index = 0
        for focal_c in (True, False):
            for where in (2, 0.37):  # a fixed composition, then drawn ones
                got = _payoffs(_event_payoffs, model, focal_c, where, montecarlo.CHUNK_SAMPLES, index)
                want = _payoffs(reference_event_payoffs, model, focal_c, where, montecarlo.CHUNK_SAMPLES, index)
                assert got.tobytes() == want.tobytes(), (focal_c, where)
                index += 1

    def test_the_largest_group_read_from_cut_tables_matches_the_reference(self):
        # n - 1 = INVERSION_MAX_N: the drawn int8 counts pass 31, so their table index passes 127
        for base in (IPGG_BISTABLE, _BG):
            model = replace(base, n=INVERSION_MAX_N + 1, f=2.0)
            for focal_c in (True, False):
                for index, x in enumerate((0.37, 0.9)):
                    got = _payoffs(_event_payoffs, model, focal_c, x, 4097, index)
                    want = _payoffs(reference_event_payoffs, model, focal_c, x, 4097, index)
                    assert got.tobytes() == want.tobytes(), (focal_c, x)

    def test_a_large_group_keeps_the_table_linear_in_n(self):
        model = replace(_BG, n=3000, f=2.0)
        assert _payoff_table(model, True).shape == _payoff_table(model, False).shape == (3000, 4)
        for focal_c in (True, False):
            for index, where in enumerate((1234, 0.4)):
                got = _payoffs(_event_payoffs, model, focal_c, where, 4097, index)
                want = _payoffs(reference_event_payoffs, model, focal_c, where, 4097, index)
                assert got.tobytes() == want.tobytes()


def assert_binomial_is_numpys(n, p, size, lanes, seed, dtype=np.int8):
    """``_binomial`` returns numpy's values, as ``dtype``, and leaves the generator where numpy's call does.

    ``dtype`` is ``int8`` where the counts are read from the cut tables and
    numpy's ``int64`` where numpy's own call is returned, so it also pins
    which path ran.  ``seed`` is an int, or the grid of a
    :func:`generator_at`.  The values are the same whether the uniforms are
    drawn into a new array or into a spent buffer.
    """
    def fresh():
        return generator_at(seed) if isinstance(seed, list) else np.random.default_rng(seed)

    for spent in (None, np.full(size + 3, np.nan)):
        ours, numpys = fresh(), fresh()
        got = _binomial(ours, n, p, size, lanes, spent)
        want = numpys.binomial(n, p, size)
        if lanes is not None:
            want = want[lanes]
        assert want.dtype == np.int64
        assert got.dtype == dtype and got.shape == want.shape, (n, p, size, got.dtype)
        assert got.tolist() == want.tolist() and np.array_equal(got, want), (n, p, size)
        assert state_of(ours) == state_of(numpys), (n, p, size)


def state_of(rng: np.random.Generator) -> dict:
    """The generator's state, with an MT19937 key as a list, so that two states compare with ``==``."""
    state = rng.bit_generator.state
    if "key" in state["state"]:
        state["state"]["key"] = state["state"]["key"].tolist()
    return state


def _untemper(y: int) -> int:
    """The MT19937 state word whose tempered output is ``y``."""
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC60000
    x = y
    for _ in range(4):
        x = y ^ ((x << 7) & 0x9D2C5680)
    x &= 0xFFFFFFFF
    y = x
    for _ in range(2):
        x = y ^ (x >> 11)
    return x


def generator_at(grid: list[int]) -> np.random.Generator:
    """A generator whose next uniforms are ``m / 2**53`` for each m of ``grid``, then 0.0."""
    words = np.zeros(624, np.uint32)
    for i, m in enumerate(grid):  # MT19937 makes a double of 27 + 26 bits from two words
        words[2 * i] = _untemper((m >> 26) << 5)
        words[2 * i + 1] = _untemper((m & (2**26 - 1)) << 6)
    bitgen = np.random.MT19937(0)
    bitgen.state = {"bit_generator": "MT19937", "state": {"key": words, "pos": 0}}
    return np.random.Generator(bitgen)


PROBABILITIES = [0.0, 1e-12, 0.3, 0.5, math.nextafter(0.5, 1.0), 0.8, 1.0 - 1e-12, 1.0]


def refuse_cut_tables(*args):
    raise AssertionError("read from cut points")


class TestBinomialDraws:
    """numpy's binomial draws, read from cut points: the same values and the same generator state."""

    def test_uniforms_can_be_placed(self):
        grid = [0, 1, 2**52, 2**53 - 1, 123456789]
        assert generator_at(grid).random(len(grid)).tolist() == [m / 2**53 for m in grid]

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("p", PROBABILITIES)
    def test_values_and_state_are_numpys(self, p, size):
        cases = np.random.default_rng(size)
        for n_max in (0, 1, 4, 17, INVERSION_MAX_N):
            counts = cases.integers(0, n_max + 1, size)
            counts[0] = 0  # a lane that draws nothing
            masks = (None, cases.random(size) < 0.3, np.flatnonzero(cases.random(size) < 0.3))
            for n in (n_max, counts):
                for lanes in masks:
                    assert_binomial_is_numpys(n, p, size, lanes, seed=n_max)

    @pytest.mark.parametrize("n, p", [
        (1, 0.3), (4, 0.3), (4, 0.8), (17, 0.5), (INVERSION_MAX_N, 0.45), (INVERSION_MAX_N, 1e-12), (3, 1.0 - 1e-12),
    ])
    def test_every_cut_is_where_numpys_draw_steps(self, n, p):
        # the uniform at each cut and one grid step below it; after a rejection numpy draws the 0.0 next
        for cut in _cut_row(n, 1.0 - p if p > 0.5 else p):
            for m in (cut - 1, cut):
                if m < 2**53:
                    ours, numpys = generator_at([m]), generator_at([m])
                    assert _binomial(ours, n, p, 1).tolist() == numpys.binomial(n, p, 1).tolist(), (m, cut)
                    assert ours.bit_generator.state["state"]["pos"] == numpys.bit_generator.state["state"]["pos"]

    def test_n_above_the_constant_is_numpys_own_call(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_cut_table", refuse_cut_tables)
        big = INVERSION_MAX_N + 1
        for n in (big, np.arange(big + 1)):
            assert_binomial_is_numpys(n, 0.2, big + 1, None, seed=3, dtype=np.int64)

    def test_btpe_is_numpys_own_call(self, monkeypatch):
        # with room for larger n, n * min(p, 1 - p) > 30 still goes to numpy, which draws by BTPE there
        monkeypatch.setattr(montecarlo, "INVERSION_MAX_N", 100)
        for n, p in ((61, 0.5), (80, 0.45), (80, 0.55)):
            assert_binomial_is_numpys(n, p, 4097, None, seed=4, dtype=np.int64)
            assert_binomial_is_numpys(np.full(7, n), p, 7, None, seed=4, dtype=np.int64)

    def test_a_rejected_uniform_rewinds_to_numpys_own_call(self, monkeypatch):
        # with the reject cut at 0.5, about half the uniforms reach it; a table of zero cuts
        # would count every cut at every lane, so only numpy's own call can match
        cut_table = montecarlo._cut_table
        monkeypatch.setattr(montecarlo, "_cut_table", lambda n_max, p: (0.0 * cut_table(n_max, p)[0], 0.5))
        counts = np.random.default_rng(5).integers(0, 5, 4097)
        for p in (0.3, 0.8):
            for n in (4, counts):
                assert_binomial_is_numpys(n, p, 4097, None, seed=5, dtype=np.int64)
                assert_binomial_is_numpys(n, p, 4097, counts > 2, seed=5, dtype=np.int64)

    @pytest.mark.parametrize("n, p", [(-1, 0.3), (np.array([1, -1]), 0.3), (3, 1.5), (3, -0.1), (3, math.nan)])
    def test_numpys_refusals_are_kept(self, n, p):
        with pytest.raises(ValueError):
            _binomial(np.random.default_rng(0), n, p, 2)

    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    @pytest.mark.parametrize("p", [0.3, 0.8])
    @pytest.mark.parametrize("zero", ["first", "last", "runs", "all_but_first", "all_but_middle", "all_but_last"])
    def test_lanes_next_to_zero_counts_take_numpys_uniform(self, zero, p, dtype):
        # a lane's uniform is found from the zero-count lanes before it
        size = 97
        every = np.arange(size)
        counts = np.random.default_rng(6).integers(1, 5, size)
        counts[{
            "first": [0],
            "last": [size - 1],
            "runs": [0, 1, 2, 30, 31, 32, 33, 60, 62, 94, 95, 96],
            "all_but_first": every[1:],
            "all_but_middle": np.delete(every, size // 2),
            "all_but_last": every[:-1],
        }[zero]] = 0
        counts = counts.astype(dtype)
        some = np.random.default_rng(7).random(size) < 0.4
        for lanes in (None, some, np.flatnonzero(some), counts == 0, np.flatnonzero(counts == 0),
                      np.ones(size, bool), every, np.zeros(size, bool), np.array([], np.intp)):
            assert_binomial_is_numpys(counts, p, size, lanes, seed=8)

    @pytest.mark.parametrize("p", [0.45, 0.55])
    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    def test_a_uniform_at_the_rejection_cut_takes_numpys_own_call(self, p, dtype):
        # Binomial(40, 0.45) rejects uniforms at and above a cut below 1; the
        # uniform one grid step below the table's lowest such cut is read from
        # the table, the one at it goes to numpy's call
        counts = np.array([0, 40, 0, 0, 17, 40, 3, 0], dtype)
        reject = round(montecarlo._cut_table(INVERSION_MAX_N, min(p, 1.0 - p))[1] * 2**53)
        assert reject < 2**53
        lanes = (None, counts > 3, np.flatnonzero(counts > 3))
        for m, path in ((reject - 1, np.int8), (reject, np.int64)):
            for at in range(np.count_nonzero(counts)):  # the place among the drawing lanes
                grid = [2**51 + 12345 * i for i in range(np.count_nonzero(counts))]
                grid[at] = m
                for chosen in lanes:
                    assert_binomial_is_numpys(counts, p, len(counts), chosen, seed=grid, dtype=path)
                assert_binomial_is_numpys(INVERSION_MAX_N, p, 5, None, seed=grid[:5], dtype=path)

    @pytest.mark.parametrize("name", sorted(REGIMES))
    def test_chunk_summaries_are_those_of_numpys_draws(self, name):
        model = REGIMES[name]
        for focal_c in (True, False):
            for index, where in enumerate((1, 0.37)):  # a fixed composition, then drawn ones
                n_c, x = (where, None) if isinstance(where, int) else (None, where)
                got = _chunk_task(model, focal_c, n_c, x, RngSeed(2024), index, 4097)
                want = _summarize(_payoffs(reference_event_payoffs, model, focal_c, where, 4097, index))
                assert [float(v).hex() for v in got] == [float(v).hex() for v in want], (focal_c, where)


def assert_event_is_the_kernel_sample(model, strategy, n_c, index):
    """``realize_event`` and a one-sample chunk on the same generator give the same focal payoff bits."""
    comp = GroupComposition(n_c, model.n - 1 - n_c)
    event = realize_event(model, strategy, comp, generator(RngSeed(2024), index))
    sample = _event_payoffs(model, strategy == "C", n_c, generator(RngSeed(2024), index), 1)
    assert event.focal_payoff.hex() == float(sample[0]).hex(), (strategy, n_c, index)


def assert_events_are_kernel_samples(model, events=20):
    """Both strategies, every co-player composition, ``events`` generators each."""
    index = 0
    for strategy in ("C", "D"):
        for n_c in range(model.n):
            for _ in range(events):
                assert_event_is_the_kernel_sample(model, strategy, n_c, index)
                index += 1


class TestOneEventProcess:
    """An event is one estimator sample: the same draws give the same focal payoff."""

    @pytest.mark.parametrize("name", sorted(REGIMES))
    def test_presets(self, name):
        assert_events_are_kernel_samples(REGIMES[name])

    @pytest.mark.parametrize("name", sorted(EDGE_MODELS))
    def test_edge_models(self, name):
        assert_events_are_kernel_samples(EDGE_MODELS[name])

    @settings(deadline=None)
    @given(model_strategy())
    def test_random_models(self, model):
        assert_events_are_kernel_samples(model, events=10)

    @pytest.mark.parametrize("boundary", ["beta", "beta+gamma", "offer"])
    def test_a_draw_on_a_probability_boundary(self, boundary):
        # the model's probability equals the event's uniform, so "<" and "<=" differ there
        for index in range(100):  # the first event led by a co-player
            rng = generator(RngSeed(2024), index)
            if rng.integers(0, _BG.n) != 0:
                break
        u_action, u_offer = rng.random(), rng.random()
        models = {
            "beta": [replace(IPGG_BISTABLE, beta=u_action),
                     replace(_BG, beta=u_action, gamma=1.0 - u_action)],
            "beta+gamma": [replace(_BG, beta=0.0, gamma=u_action)],
            "offer": [replace(_BG, beta=0.0, gamma=1.0, p=u_offer, q=u_offer)],
        }[boundary]
        for model in models:
            for strategy in ("C", "D"):
                for n_c in range(model.n):
                    assert_event_is_the_kernel_sample(model, strategy, n_c, index)

    def test_certain_bribes_count_every_non_leader_once(self):
        # with p = q = 1 and gamma = 1 each of the n - 1 non-leaders offers, whoever leads
        model = replace(_BG, beta=0.0, gamma=1.0, p=1.0, q=1.0)
        n = model.n
        leaders = set()
        for strategy in ("C", "D"):
            for n_c in range(n):
                comp = GroupComposition(n_c, n - 1 - n_c)
                for i in range(40):
                    event = realize_event(model, strategy, comp, generator(RngSeed(31), n_c, i))
                    assert event.action == "accept"
                    assert event.bribes_paid == event.bribes_received == model.h * (n - 1), event
                    leaders.add(event.leader)
        assert leaders == {"focal", "cooperator", "defector"}


def assert_table_expectation_is_the_group_payoff(model):
    """Outcome odds times table entries, plus expected bribe income, against ``group_payoff``.

    A co-player of the own type leads with odds n_own/n and one of the other
    type with n_other/n; the leader punishes with probability beta and
    accepts with gamma; a non-leading focal player offers with p (C) or q
    (D), and a leading one receives p*n_c + q*n_d bribes on average.
    """
    n = model.n
    is_bg = isinstance(model, BriberyParams)
    gamma, h = (model.gamma, model.h) if is_bg else (0.0, 0.0)
    for strategy in ("C", "D"):
        focal_c = strategy == "C"
        table = _payoff_table(model, focal_c)
        for n_c in range(n):
            n_d = n - 1 - n_c
            n_own, n_other = (n_c, n_d) if focal_c else (n_d, n_c)
            fined_own = model.beta * n_own / n
            fined_other = model.beta * n_other / n
            pays = gamma * (n - 1) / n * ((model.p if focal_c else model.q) if is_bg else 0.0)
            odds = [1.0 - fined_own - fined_other - pays, fined_own, fined_other, pays]
            income = h * gamma / n * ((model.p * n_c + model.q * n_d) if is_bg else 0.0)
            expected = sum(w * v for w, v in zip(odds, table[n_c])) + income
            closed = group_payoff(model, strategy, GroupComposition(n_c, n_d))
            scale = max(1.0, float(np.abs(table[n_c]).max()), income)
            assert abs(expected - closed) <= 1e-12 * scale, (strategy, n_c, expected, closed)


class TestTableExpectation:
    """The table ties to the closed form with no random numbers involved."""

    @pytest.mark.parametrize("name", sorted(EDGE_MODELS))
    def test_edge_models(self, name):
        assert_table_expectation_is_the_group_payoff(EDGE_MODELS[name])

    @settings(deadline=None, max_examples=200)
    @given(model_strategy())
    def test_random_models(self, model):
        assert_table_expectation_is_the_group_payoff(model)

    def test_a_large_group(self):
        model = CoreParams(n=3000, b=12, c=1, tau=1, f=2.0, alpha=0.6, beta=0.2, r_p=2.5)
        assert_table_expectation_is_the_group_payoff(BriberyParams(**vars(model), h=1, gamma=0.6, p=0.3, q=0.8))


@pytest.mark.parametrize("size", [1, 7, montecarlo.CHUNK_SAMPLES])
def test_int32_leader_draws_are_numpys_int64_draws(size):
    """The kernel draws its leaders as ``int32``: the values and the generator state of the ``int64`` draw."""
    for n in range(1, INVERSION_MAX_N + 2):
        ours, numpys = generator(RngSeed(2024), n), generator(RngSeed(2024), n)
        got, want = ours.integers(0, n, size, dtype=np.int32), numpys.integers(0, n, size)
        assert want.dtype == np.int64 and np.array_equal(got, want), n
        assert ours.bit_generator.state == numpys.bit_generator.state, n


# a full chunk's int32 leader draws are 0.95 MiB, and every other full-length
# array is in the thread's workspace, which the warm-up chunk allocates: a
# warm chunk peaked at 1.02 (IPGG, fixed), 1.26 (IPGG, drawn), 1.19 (BG, fixed)
# and 1.64 MiB (BG, drawn).  With fresh full-length arrays per chunk it peaked
# at 5.0, 5.3, 6.0 and 6.4 MiB
CHUNK_PEAK_MIB = {("ipgg", 2): 2.0, ("ipgg", 0.37): 2.0, ("bg", 2): 2.0, ("bg", 0.37): 2.0}


@pytest.mark.parametrize("name, where", sorted(CHUNK_PEAK_MIB))
def test_a_full_chunk_keeps_a_bounded_working_set(name, where):
    model = EDGE_MODELS[name]
    n_c, x = (where, None) if isinstance(where, int) else (None, where)
    for focal_c in (True, False):
        _chunk_task(model, focal_c, n_c, x, RngSeed(2024), 0, montecarlo.CHUNK_SAMPLES)  # builds the cut tables
        tracemalloc.start()
        try:
            _chunk_task(model, focal_c, n_c, x, RngSeed(2024), 1, montecarlo.CHUNK_SAMPLES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= CHUNK_PEAK_MIB[name, where] * 2**20, (focal_c, peak / 2**20)
