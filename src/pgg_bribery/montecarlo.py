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
not depend on how many worker processes execute the chunks.
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
    if workers is None or workers == 1 or len(arglist) == 1:
        return [task(args) for args in arglist]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, arglist))


def _estimate(model, focal_c, n_c, x, n, seed, workers) -> Estimate:
    if n < 2:
        raise ValueError(f"need n >= 2 samples, got {n}")
    args = [
        (model, focal_c, n_c, x, seed, i, size)
        for i, size in enumerate(_chunk_sizes(n))
    ]
    return _merge(_map_chunks(_chunk_task, args, workers))


def estimate_expected_payoff(
    model: Model,
    focal: str,
    comp: GroupComposition,
    n: int,
    seed: RngSeed,
    workers: int | None = None,
) -> Estimate:
    """Mean and standard error of ``n`` event payoffs at a fixed composition."""
    focal_c = is_cooperator(focal)
    _check_group(core_of(model), comp)
    return _estimate(model, focal_c, comp.n_c, None, n, seed, workers)


def estimate_avg_payoff(
    model: Model,
    x: float,
    strategy: str,
    n: int,
    seed: RngSeed,
    workers: int | None = None,
) -> Estimate:
    """Monte Carlo estimate of the population-average payoff at fraction x."""
    focal_c = is_cooperator(strategy)
    if not 0 <= x <= 1:
        raise ValueError(f"x must be in [0, 1], got {x}")
    return _estimate(model, focal_c, None, x, n, seed, workers)


# ---------------------------------------------------------------------------
# finite-population imitation dynamics


class _Uniforms:
    """Buffered scalar uniforms from a Generator (fast sequential draws)."""

    def __init__(self, rng: np.random.Generator, block: int = 8192):
        self._rng = rng
        self._block = block
        self._buf = rng.random(block)
        self._next = 0

    def __call__(self) -> float:
        i = self._next
        if i == self._block:
            self._buf = self._rng.random(self._block)
            i = 0
        self._next = i + 1
        return self._buf[i]


def _payoff_tables(model: Model) -> tuple[list[float], list[float]]:
    """Expected payoff of each strategy for every co-player composition."""
    n = core_of(model).n
    comps = [GroupComposition(k, n - 1 - k) for k in range(n)]
    pay_c = [group_payoff(model, "C", comp) for comp in comps]
    pay_d = [group_payoff(model, "D", comp) for comp in comps]
    return pay_c, pay_d


def _draw_co_players(draw, pool: int, coops: int, k: int) -> int:
    """Sample k members without replacement; count the cooperators."""
    n_c = 0
    for _ in range(k):
        if draw() * pool < coops:
            coops -= 1
            n_c += 1
        pool -= 1
    return n_c


def evolve_finite_population(
    model: Model,
    population_size: int,
    x0: float,
    rounds: int,
    imitation_strength: float = 1.0,
    seed: RngSeed = RngSeed(0),
    record_every: int | None = None,
) -> Trajectory:
    """Pairwise-comparison imitation dynamics in a finite population.

    Each round two distinct individuals are drawn; each estimates their
    payoff from a freshly sampled group (the expected payoff of their
    strategy against the sampled co-player composition), and the first
    adopts the other's strategy with the Fermi probability
    1 / (1 + exp(-s * payoff_gap)) where s is ``imitation_strength``.
    The recorded time axis counts rounds.  The walk is absorbed at the
    monomorphic states (no mutation).
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
    pay_c, pay_d = _payoff_tables(model)
    draw = _Uniforms(generator(seed))
    every = record_every if record_every is not None else max(1, rounds // 1000)

    times = [0.0]
    states = [k / z]
    for step in range(1, rounds + 1):
        if k == 0 or k == z:
            break
        focal_c = draw() < k / z
        partner_c = draw() * (z - 1) < (k - 1 if focal_c else k)
        if partner_c != focal_c:
            comp_f = _draw_co_players(draw, z - 1, k - focal_c, core.n - 1)
            comp_p = _draw_co_players(draw, z - 1, k - partner_c, core.n - 1)
            pay_f = pay_c[comp_f] if focal_c else pay_d[comp_f]
            pay_p = pay_c[comp_p] if partner_c else pay_d[comp_p]
            gap = imitation_strength * (pay_p - pay_f)
            # capped below exp's overflow; draws are multiples of 2**-53 and a
            # capped probability stays in (0, 2**-53), so no comparison changes
            if draw() < 1.0 / (1.0 + math.exp(min(-gap, 709.0))):
                k += 1 if partner_c else -1
        if step % every == 0 or step == rounds or k == 0 or k == z:
            times.append(float(step))
            states.append(k / z)

    converged_to = float(k == z) if (k == 0 or k == z) else None
    return Trajectory(times, states, converged_to, 1.0)
