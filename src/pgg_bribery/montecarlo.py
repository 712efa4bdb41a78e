"""Event-level stochastic realization of the games and seeded estimators.

One group interaction is realized as:

1. a leader is drawn uniformly from the n group members;
2. the leader punishes with probability beta, accepts bribes with
   probability gamma (bribery game only), otherwise does nothing;
3. every non-leader independently offers a bribe h (cooperators with
   probability p, defectors with probability q); money moves only when
   the leader's sampled action is "accept";
4. under "punish" the cooperator budget alpha*n*tau*r_p is split equally
   among the non-leader cooperators and the defector budget
   (1-alpha)*n*tau*r_p among the non-leader defectors; a budget with no
   eligible target is not levied;
5. endowment, contribution, group share and tax apply unconditionally.

Sample means of these events are the independent oracle for the
closed-form payoffs in :mod:`pgg_bribery.games` and, composition-sampled,
for the population averages in :mod:`pgg_bribery.analysis`.

Reproducibility: every estimator takes an :class:`RngSeed`; identical
(master_seed, stream_id) pairs reproduce identical results regardless of
scheduling, and distinct stream ids yield independent streams (numpy
SeedSequence spawn keys).  Estimates are computed in fixed 250k-sample
chunks, one substream per chunk, merged in chunk order, so the values do
not depend on how many worker processes execute the chunks, nor on which
other estimates share the same batch.

Worker pool: with ``workers`` > 1, the chunks of all the estimates one
caller batches (both ``simulate`` strategies, each Monte Carlo suite of
``verify``) go through a single process pool, started for that call with
at most one worker per chunk and shut down, its workers joined, before
the call returns.  No pool outlives the call that started it.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory
from .games import BriberyParams, GroupComposition, Model, core_of, group_payoff, is_cooperator
from .games import _check_group

__all__ = [
    "RngSeed",
    "Estimate",
    "EventOutcome",
    "realize_event",
    "estimate_expected_payoff",
    "estimate_avg_payoff",
    "evolve_finite_population",
]

CHUNK_SAMPLES = 250_000


@dataclass(frozen=True)
class RngSeed:
    """Addressable random stream: a master seed plus a substream id."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        if self.master_seed < 0 or self.stream_id < 0:
            raise ValueError("master_seed and stream_id must be >= 0")


def generator(seed: RngSeed, *path: int) -> np.random.Generator:
    """Generator for the (master_seed, stream_id, *path) substream."""
    ss = np.random.SeedSequence(entropy=seed.master_seed, spawn_key=(seed.stream_id, *path))
    return np.random.default_rng(ss)


@dataclass(frozen=True)
class Estimate:
    """Sample mean with its standard error."""

    mean: float
    std_error: float
    n_samples: int

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("an estimate needs at least one sample")
        if self.std_error < 0:
            raise ValueError("std_error must be >= 0")


@dataclass(frozen=True)
class EventOutcome:
    """Full accounting of a single realized group interaction."""

    focal_payoff: float
    leader: str  # "focal" | "cooperator" | "defector"
    action: str  # "punish" | "accept" | "none"
    fines_on_cooperators: float
    fines_on_defectors: float
    bribes_paid: float
    bribes_received: float


def realize_event(
    model: Model, focal: str, comp: GroupComposition, rng: np.random.Generator
) -> EventOutcome:
    """Realize one group interaction and account for every transfer.

    Group members are indexed 0..n-1 with the focal player at 0, the
    cooperator co-players next and the defector co-players last.
    """
    focal_c = is_cooperator(focal)
    core = core_of(model)
    _check_group(core, comp)
    n, n_c, n_d = core.n, comp.n_c, comp.n_d
    is_bg = isinstance(model, BriberyParams)

    lead = int(rng.integers(0, n))
    u_action = rng.random()
    if u_action < core.beta:
        action = "punish"
    elif is_bg and u_action < core.beta + model.gamma:
        action = "accept"
    else:
        action = "none"

    if lead == 0:
        leader = "focal"
        leader_c = focal_c
    elif lead <= n_c:
        leader = "cooperator"
        leader_c = True
    else:
        leader = "defector"
        leader_c = False

    total_c = n_c + (1 if focal_c else 0)
    payoff = core.b + core.f * core.c * total_c / n - core.tau
    if focal_c:
        payoff -= core.c

    fines_c = fines_d = 0.0
    if action == "punish":
        # the n-1 non-leaders partition into the two classes
        nl_c = total_c - (1 if leader_c else 0)
        nl_d = n - 1 - nl_c
        budget_c = core.alpha * n * core.tau * core.r_p
        budget_d = (1.0 - core.alpha) * n * core.tau * core.r_p
        if nl_c > 0:
            fines_c = budget_c
            if lead != 0 and focal_c:
                payoff -= budget_c / nl_c
        if nl_d > 0:
            fines_d = budget_d
            if lead != 0 and not focal_c:
                payoff -= budget_d / nl_d

    paid = received = 0.0
    if is_bg and action == "accept":
        offers = 0
        # focal first, then cooperator co-players, then defector co-players
        if lead != 0:
            if rng.random() < (model.p if focal_c else model.q):
                offers += 1
                payoff -= model.h
        for member in range(1, n):
            if member == lead:
                continue
            prob = model.p if member <= n_c else model.q
            if rng.random() < prob:
                offers += 1
        paid = received = model.h * offers
        if lead == 0:
            payoff += received

    return EventOutcome(payoff, leader, action, fines_c, fines_d, paid, received)


# ---------------------------------------------------------------------------
# vectorized chunk evaluation for the estimators


def _chunk_sizes(n: int) -> list[int]:
    sizes = [CHUNK_SAMPLES] * (n // CHUNK_SAMPLES)
    if n % CHUNK_SAMPLES:
        sizes.append(n % CHUNK_SAMPLES)
    return sizes


def _summarize(samples: np.ndarray) -> tuple[int, float, float]:
    first = samples[0]
    if np.all(samples == first):
        return len(samples), float(first), 0.0
    mean = float(samples.mean())
    m2 = float(np.sum((samples - mean) ** 2))
    return len(samples), mean, m2


def _merge(parts) -> Estimate:
    n_tot, mean, m2 = 0, 0.0, 0.0
    for part_n, part_mean, part_m2 in parts:
        if n_tot == 0:
            n_tot, mean, m2 = part_n, part_mean, part_m2
            continue
        total = n_tot + part_n
        delta = part_mean - mean
        mean += delta * part_n / total
        m2 += part_m2 + delta * delta * n_tot * part_n / total
        n_tot = total
    std_error = math.sqrt(m2 / (n_tot - 1) / n_tot) if n_tot > 1 and m2 > 0.0 else 0.0
    return Estimate(mean, std_error, n_tot)


def _event_payoffs(model, focal_c, n_c, rng, size) -> np.ndarray:
    """Vectorized focal payoffs against ``n_c`` cooperator co-players.

    ``n_c`` is an int for a fixed composition, or an array of ``size``
    sampled co-player counts; a scalar keeps the composition terms scalar.
    """
    core = core_of(model)
    n = core.n
    n_d = n - 1 - n_c
    is_bg = isinstance(model, BriberyParams)

    lead = rng.integers(0, n, size)
    u_action = rng.random(size)
    if is_bg:
        u_offer = rng.random(size)
        recv_c = rng.binomial(n_c, model.p, size)
        recv_d = rng.binomial(n_d, model.q, size)

    total_c = n_c + (1 if focal_c else 0)
    payoff = core.b + core.f * core.c * total_c / n - core.tau - (core.c if focal_c else 0.0)

    punished = (u_action < core.beta) & (lead != 0)
    if focal_c:
        budget = core.alpha * n * core.tau * core.r_p
        n_own = n_c
        own_leads = lead <= n_c  # a cooperator co-player leads (lead >= 1 here)
    else:
        budget = (1.0 - core.alpha) * n * core.tau * core.r_p
        n_own = n_d
        own_leads = lead > n_c
    own_share = np.where(n_own > 0, budget / np.maximum(n_own, 1), 0.0)
    other_share = budget / (n_own + 1)
    payoff = payoff - np.where(punished & own_leads, own_share, 0.0)
    payoff -= np.where(punished & ~own_leads, other_share, 0.0)

    if is_bg:
        accepts = (u_action >= core.beta) & (u_action < core.beta + model.gamma)
        offer_prob = model.p if focal_c else model.q
        payoff -= model.h * ((lead != 0) & accepts & (u_offer < offer_prob))
        payoff += model.h * np.where((lead == 0) & accepts, recv_c + recv_d, 0)
    return payoff


def _chunk_task(args) -> tuple[int, float, float]:
    # n_c is None for Binomial(n-1, x) compositions, drawn first from the chunk's stream
    model, focal_c, n_c, x, seed, index, size = args
    rng = generator(seed, index)
    if n_c is None:
        n_c = rng.binomial(core_of(model).n - 1, x, size)
    return _summarize(_event_payoffs(model, focal_c, n_c, rng, size))


def _map_chunks(task, arglist, workers):
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers is None or workers == 1 or len(arglist) <= 1:
        return [task(args) for args in arglist]
    # a fork-context pool starts all of its workers at once: never more than there are chunks
    with ProcessPoolExecutor(max_workers=min(workers, len(arglist))) as pool:
        return list(pool.map(task, arglist))


@dataclass(frozen=True)
class _Request:
    """One estimate: ``n`` focal payoffs drawn from the ``seed`` substreams.

    ``n_c`` is the fixed cooperator co-player count, or None for
    compositions drawn Binomial(n-1, x).
    """

    model: Model
    focal_c: bool
    n_c: int | None
    x: float | None
    n: int
    seed: RngSeed


def _payoff_request(model: Model, focal: str, comp: GroupComposition, n: int, seed: RngSeed) -> _Request:
    """Request for :func:`estimate_expected_payoff`; checks the strategy and the composition."""
    focal_c = is_cooperator(focal)
    _check_group(core_of(model), comp)
    return _Request(model, focal_c, comp.n_c, None, n, seed)


def _avg_request(model: Model, x: float, strategy: str, n: int, seed: RngSeed) -> _Request:
    """Request for :func:`estimate_avg_payoff`; checks the strategy and ``x``."""
    focal_c = is_cooperator(strategy)
    if not 0 <= x <= 1:
        raise ValueError(f"x must be in [0, 1], got {x}")
    return _Request(model, focal_c, None, x, n, seed)


def _estimate_all(requests: list[_Request], workers: int | None) -> list[Estimate]:
    """Every request's estimate, all chunks through one :func:`_map_chunks` call.

    Each request is merged from its own chunk slice in chunk order, so the
    values equal those of one call per request, at any ``workers``.
    """
    args, slices = [], []
    for req in requests:
        if req.n < 2:
            raise ValueError(f"need n >= 2 samples, got {req.n}")
        start = len(args)
        args += [
            (req.model, req.focal_c, req.n_c, req.x, req.seed, i, size)
            for i, size in enumerate(_chunk_sizes(req.n))
        ]
        slices.append(slice(start, len(args)))
    parts = _map_chunks(_chunk_task, args, workers)
    return [_merge(parts[part]) for part in slices]


def estimate_expected_payoff(
    model: Model,
    focal: str,
    comp: GroupComposition,
    n: int,
    seed: RngSeed,
    workers: int | None = None,
) -> Estimate:
    """Mean and standard error of ``n`` event payoffs at a fixed composition."""
    return _estimate_all([_payoff_request(model, focal, comp, n, seed)], workers)[0]


def estimate_avg_payoff(
    model: Model,
    x: float,
    strategy: str,
    n: int,
    seed: RngSeed,
    workers: int | None = None,
) -> Estimate:
    """Monte Carlo estimate of the population-average payoff at fraction x."""
    return _estimate_all([_avg_request(model, x, strategy, n, seed)], workers)[0]


# ---------------------------------------------------------------------------
# finite-population imitation dynamics


UNIFORM_BLOCK = 8192  # uniforms the walk draws per refill of its buffer


def _payoff_tables(model: Model) -> tuple[list[float], list[float]]:
    """Expected payoff of each strategy for every co-player composition."""
    n = core_of(model).n
    comps = [GroupComposition(k, n - 1 - k) for k in range(n)]
    pay_c = [group_payoff(model, "C", comp) for comp in comps]
    pay_d = [group_payoff(model, "D", comp) for comp in comps]
    return pay_c, pay_d


def _fermi(strength: float, pay_f: float, pay_p: float) -> float:
    """Probability that a player earning ``pay_f`` adopts the strategy of one earning ``pay_p``."""
    gap = strength * (pay_p - pay_f)
    # capped below exp's overflow; draws are multiples of 2**-53 and a
    # capped probability stays in (0, 2**-53), so no comparison changes
    return 1.0 / (1.0 + math.exp(min(-gap, 709.0)))


def _draw_co_players(u: list[float], i: int, pool: int, coops: int, k: int) -> tuple[int, int]:
    """Sample k members without replacement with the uniforms ``u[i:i+k]``.

    Returns the number of cooperators drawn and the next unused index.
    """
    n_c = 0
    end = i + k
    for draw in u[i:end]:
        if draw * pool < coops:
            coops -= 1
            n_c += 1
        pool -= 1
    return n_c, end


def evolve_finite_population(
    model: Model,
    population_size: int,
    x0: float,
    rounds: int,
    imitation_strength: float = 1.0,
    seed: RngSeed = RngSeed(0),
) -> Trajectory:
    """Pairwise-comparison imitation dynamics in a finite population.

    Each round two distinct individuals are drawn; each estimates their
    payoff from a freshly sampled group (the expected payoff of their
    strategy against the sampled co-player composition), and the first
    adopts the other's strategy with the Fermi probability
    1 / (1 + exp(-s * payoff_gap)) where s is ``imitation_strength``.
    The recorded time axis counts rounds.  The walk is absorbed at the
    monomorphic states (no mutation).

    The uniforms come from the ``seed`` stream in blocks of
    :data:`UNIFORM_BLOCK`, as Python floats, consumed in order.
    """
    core = core_of(model)
    if population_size < 2 * core.n:
        raise ValueError(
            f"population_size must be >= 2n = {2 * core.n}, got {population_size}"
        )
    if not 0 <= x0 <= 1:
        raise ValueError(f"x0 must be in [0, 1], got {x0}")
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    if not math.isfinite(imitation_strength):
        raise ValueError(f"imitation_strength must be finite, got {imitation_strength}")

    z = population_size
    k = min(z, max(0, int(round(x0 * z))))
    n = core.n
    pay = _payoff_tables(model)[::-1]  # indexed by "is a cooperator"
    # per focal strategy, Fermi probabilities keyed by the focal and partner
    # co-player cooperator counts (focal * n + partner), computed on first use
    adoption: tuple[dict[int, float], dict[int, float]] = ({}, {})
    rng = generator(seed)
    u = rng.random(UNIFORM_BLOCK).tolist()
    i = 0
    per_round = 2 * n + 1  # the most uniforms one round uses
    every = max(1, rounds // 1000)

    times = [0.0]
    states = [k / z]
    for step in range(1, rounds + 1):
        if k == 0 or k == z:
            break
        while len(u) - i < per_round:
            u = u[i:] + rng.random(UNIFORM_BLOCK).tolist()
            i = 0
        focal_c = u[i] < k / z
        partner_c = u[i + 1] * (z - 1) < (k - 1 if focal_c else k)
        i += 2
        if partner_c != focal_c:
            comp_f, i = _draw_co_players(u, i, z - 1, k - focal_c, n - 1)
            comp_p, i = _draw_co_players(u, i, z - 1, k - partner_c, n - 1)
            table, key = adoption[focal_c], comp_f * n + comp_p
            prob = table.get(key)
            if prob is None:
                prob = table[key] = _fermi(imitation_strength, pay[focal_c][comp_f], pay[partner_c][comp_p])
            if u[i] < prob:
                k += 1 if partner_c else -1
            i += 1
        if step % every == 0 or step == rounds or k == 0 or k == z:
            times.append(float(step))
            states.append(k / z)

    converged_to = float(k == z) if (k == 0 or k == z) else None
    return Trajectory(times, states, converged_to, 1.0)
