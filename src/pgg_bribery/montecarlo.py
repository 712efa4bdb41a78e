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

An event makes the draws of one estimator sample, in its order: the
leader, the action uniform and, in the bribery game, the focal offer
uniform and the bribe counts of the cooperator and defector co-players
(the non-leading ones when a co-player leads; those counts never enter
the focal payoff).  :func:`realize_event` is that event written out, and
on the same generator its focal payoff equals the estimators' sample bit
for bit.

The estimators evaluate a chunk of events at once, each sample with the
draws above.  The arithmetic is a table lookup: the focal payoff of
every (co-player cooperator count, outcome) pair is computed once per
chunk into an ``(n, 4)`` table (untouched, fined by an own-type leader,
fined by an other-type leader, pays a bribe), each sample gathers its
entry, and a leading focal player's bribe income is added after the
lookup.  The entries use the operations of one realized event in their
order, so the payoffs are bit-identical to evaluating every term per
sample.

The draws are numpy's, value for value and state for state.  The
binomial counts are read from cut points where numpy draws by inversion
(:func:`_binomial`), with numpy's own call as the fallback, and the bribe
counts are looked up only where a focal leader accepts, the only samples
that receive them.

Working memory: each thread keeps five :data:`CHUNK_SAMPLES`-lane
buffers, allocated on its first chunk and reused by the later ones, so
their pages are faulted in once per thread, not once per chunk; numpy
releases the GIL in its loops, so threads never share them.  The
``float64`` one holds the uniforms and, last, the gathered payoffs, the
``int64`` one the table index, two ``bool`` ones who leads, is fined,
accepts, pays and takes, and the ``int8`` one the outcome codes.  Only
the leaders are drawn into a fresh array, as ``int32``: numpy's
``int64`` draw, value for value and state for state.  Counts read from
the cut tables stay ``int8``, drawn compositions included, and bribe
income is added only at the samples that receive it.  A warm 250k-sample
chunk peaks at 1.0-1.4 MiB traced.

Reproducibility: every estimator takes an :class:`RngSeed`; identical
(master_seed, stream_id) pairs reproduce identical results regardless of
scheduling, and distinct stream ids yield independent streams (numpy
SeedSequence spawn keys).  Estimates are computed in fixed 250k-sample
chunks, one substream per chunk, merged in chunk order, so the values do
not depend on how many worker processes execute the chunks, nor on which
other estimates share the same batch.

Worker pool: an estimate is the list of its zero-argument chunk tasks,
and each command hands all of its tasks to one :func:`_run_tasks` call:
``simulate`` the chunks of both strategies' estimates, ``verify`` its
eight deterministic suites, in report order, then the chunks of its 32
estimates.  With ``workers`` > 1 the tasks go into one process pool in
that order, through one submission path; the pool has at most as many
workers as there are tasks, and it is shut down, its workers joined,
before the call returns.  Without ``workers`` the tasks run in the
calling process.  So each command starts at most one pool, and no pool
outlives it.  ``workers`` above :data:`MAX_WORKERS` is refused with
``ValueError`` before any pool starts, and an estimate of more than
:data:`MAX_SAMPLES` samples before its task list is built.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import islice

import numpy as np

from .dynamics import Trajectory
from .games import BriberyParams, GroupComposition, Model, is_cooperator
from .games import _as_int, _check_group, _payoff_tables

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
# the most samples per estimate (~4,000 chunk tasks) and the most pool
# workers: a fork-context pool starts all of its workers at once
MAX_SAMPLES = 10**9
MAX_WORKERS = 64
_WORKSPACE = threading.local()  # each thread's chunk buffers: see _workspace


@dataclass(frozen=True)
class RngSeed:
    """Addressable random stream: a master seed plus a substream id."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
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
    cooperator co-players next and the defector co-players last.  The
    event makes the draws of one estimator sample, so on the same
    generator its ``focal_payoff`` equals that sample's payoff bit for bit.
    """
    focal_c = is_cooperator(focal)
    _check_group(model, comp)
    n, n_c, n_d = model.n, comp.n_c, comp.n_d
    is_bg = isinstance(model, BriberyParams)

    lead = int(rng.integers(0, n))
    u_action = rng.random()
    if u_action < model.beta:
        action = "punish"
    elif is_bg and u_action < model.beta + model.gamma:
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
    payoff = model.b + model.f * model.c * total_c / n - model.tau
    if focal_c:
        payoff -= model.c

    fines_c = fines_d = 0.0
    if action == "punish":
        # the n-1 non-leaders partition into the two classes
        nl_c = total_c - (1 if leader_c else 0)
        nl_d = n - 1 - nl_c
        budget_c = model.alpha * n * model.tau * model.r_p
        budget_d = (1.0 - model.alpha) * n * model.tau * model.r_p
        if nl_c > 0:
            fines_c = budget_c
            if lead != 0 and focal_c:
                payoff -= budget_c / nl_c
        if nl_d > 0:
            fines_d = budget_d
            if lead != 0 and not focal_c:
                payoff -= budget_d / nl_d

    paid = received = 0.0
    if is_bg:
        # an estimator sample's draws: the focal offer uniform, then the
        # offer counts of the non-leading cooperator and defector co-players
        u_offer = rng.random()
        offers = rng.binomial(n_c - (leader == "cooperator"), model.p)
        offers += rng.binomial(n_d - (leader == "defector"), model.q)
        if action == "accept":
            if lead != 0 and u_offer < (model.p if focal_c else model.q):
                offers += 1
                payoff -= model.h
            paid = received = model.h * offers
            if lead == 0:
                payoff += received

    return EventOutcome(payoff, leader, action, fines_c, fines_d, paid, received)


# ---------------------------------------------------------------------------
# numpy's binomial draws, read from cut points

# numpy draws Binomial(n, p) by inversion when n * min(p, 1 - p) <= 30;
# up to this n those draws are read from cut tables (see _binomial), and
# the table of every n up to it builds in a few milliseconds
INVERSION_MAX_N = 40
_GRID = 2.0**53  # a uniform of next_double is a multiple of 1 / _GRID in [0, 1)
_NEVER = 1 << 53  # a cut that no uniform reaches


def _inversion_count(u: float, px: list[float]) -> int:
    """numpy's inversion loop on the uniform ``u``: its X, or ``len(px)`` where it rejects ``u``."""
    x = 0
    while x < len(px) and u > px[x]:
        u -= px[x]
        x += 1
    return x


def _cut(px: list[float], k: int) -> int:
    """The lowest grid index m at which the inversion loop on m / 2**53 reaches X = k, or ``_NEVER``."""
    # the loop's count never falls as its uniform rises (each rounded step
    # is monotone in u), so the cut is a bisection over the grid
    return bisect_left(range(_NEVER), k, key=lambda m: _inversion_count(m / _GRID, px))


@lru_cache(maxsize=1024)
def _cut_row(n: int, p: float) -> tuple[int, ...]:
    """Cuts of numpy's inversion for Binomial(n, p), p <= 0.5: where X reaches 1, ..., bound + 1.

    The set-up is numpy's, in its order and on the same doubles; the last
    cut is where the loop passes ``bound`` and numpy redraws.
    """
    q = 1.0 - p
    qn = math.exp(n * math.log1p(-p))
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    px = [qn]
    for x in range(1, bound + 1):
        px.append((n - x + 1) * p * px[-1] / (x * q))
    return tuple(_cut(px, k) for k in range(1, bound + 2))


@lru_cache(maxsize=256)
def _cut_table(n_max: int, p: float) -> tuple[np.ndarray, float]:
    """The cuts of every n <= ``n_max`` as uniforms, one row per n, and the lowest rejection cut.

    Row n holds the reachable cuts of :func:`_cut_row` padded with 1.0,
    which no uniform reaches; row 0 has none.  A draw at n is the number
    of row n's entries at or below its uniform.
    """
    rows = [_cut_row(n, p) for n in range(1, n_max + 1)]
    cuts = [[m / _GRID for m in row[:-1] if m < _NEVER] for row in rows]
    table = np.ones((n_max + 1, max(map(len, cuts))))
    for n, row in enumerate(cuts, 1):
        table[n, : len(row)] = row
    table.flags.writeable = False  # the cache hands the same table to every caller
    return table, min(row[-1] for row in rows) / _GRID


def _at(values: np.ndarray, lanes: np.ndarray | None) -> np.ndarray:
    return values if lanes is None else values[lanes]


def _binomial(
    rng: np.random.Generator, n, p: float, size: int, lanes: np.ndarray | None = None, spent: np.ndarray | None = None
) -> np.ndarray:
    """``rng.binomial(n, p, size)``, or its ``[lanes]``, leaving ``rng`` as that call would.

    ``n`` is an int or an int array of ``size`` counts, ``lanes`` a mask
    or an array of non-negative indices over the ``size`` lanes, and
    ``spent`` a float64 array of at least ``size`` values no longer needed,
    which the uniforms may overwrite.  Where numpy draws by inversion, each
    lane with n > 0 takes one uniform, in lane order, the same
    ``next_double`` that ``rng.random`` returns, and its value is the
    number of cuts of :func:`_cut_row` at or below that uniform (n minus
    it for p > 0.5, numpy's flip), returned as ``int8``.  Every lane's
    uniform is drawn, but only the ``lanes`` are looked up.  Lane i's
    uniform is the one at i - z, where z counts the lanes with n = 0 at or
    before it: those lanes are few, so z is a ``searchsorted`` over them,
    not a rank of every lane.  A lane with n = 0 thus takes the uniform
    before it (the last one if there is none), which its row, without
    cuts, ignores.  If a uniform may reach numpy's rejection branch, the
    generator is rewound and numpy's own call is returned, as numpy's
    ``int64``, as it is for BTPE, for n above :data:`INVERSION_MAX_N` and
    for a p or an n that numpy refuses.
    """
    n_arr = np.asarray(n)
    p_inv = 1.0 - p if p > 0.5 else p
    if not (
        0.0 <= p <= 1.0
        and n_arr.dtype.kind == "i"
        and n_arr.shape in ((), (size,))
        and n_arr.min(initial=0) >= 0
        and (n_max := int(n_arr.max(initial=0))) <= INVERSION_MAX_N
        and p_inv * n_max <= 30.0
    ):
        return _at(rng.binomial(n, p, size), lanes)
    if p == 0.0 or n_max == 0:  # numpy draws nothing
        return _at(np.zeros(size, np.int8), lanes)

    state = rng.bit_generator.state
    table, reject = _cut_table(n_max, p_inv)
    zeros = None if n_arr.ndim == 0 else np.flatnonzero(n_arr == 0)
    drawn = size if zeros is None else size - len(zeros)
    u = rng.random(drawn) if spent is None else rng.random(out=spent[:drawn])
    if u.max(initial=0.0) >= reject:  # a uniform may reach numpy's rejection branch
        rng.bit_generator.state = state
        return _at(rng.binomial(n, p, size), lanes)
    if zeros is None:
        rows = n_max
        if lanes is not None:
            u = u[lanes]
    else:
        at = np.arange(size) if lanes is None else np.flatnonzero(lanes) if lanes.dtype == bool else lanes
        rows = n_arr[at]
        u = u[at - np.searchsorted(zeros, at, side="right")]
    x = np.zeros(len(u), np.int8)  # n <= INVERSION_MAX_N fits
    for column in table.T:
        x += u >= column[rows]
    return np.subtract(rows, x, out=x) if p > 0.5 else x


# ---------------------------------------------------------------------------
# vectorized chunk evaluation for the estimators


def _chunk_sizes(n: int) -> list[int]:
    sizes = [CHUNK_SAMPLES] * (n // CHUNK_SAMPLES)
    if n % CHUNK_SAMPLES:
        sizes.append(n % CHUNK_SAMPLES)
    return sizes


def _summarize(samples: np.ndarray) -> tuple[int, float, float]:
    """A chunk's size, mean and sum of squared deviations; ``samples`` is overwritten."""
    first = samples[0]
    if np.all(samples == first):
        return len(samples), float(first), 0.0
    mean = float(samples.mean())
    samples -= mean
    samples *= samples
    return len(samples), mean, float(samples.sum())


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


def _payoff_table(model: Model, focal_c: bool) -> np.ndarray:
    """Focal payoffs by co-player cooperator count (row) and event outcome (column).

    Row ``n_c`` of the ``(n, 4)`` table holds the payoff of a focal player
    with ``n_c`` cooperator co-players who is untouched, fined by an
    own-type leader, fined by an other-type leader, or pays an accepted
    bribe.  Each entry is ``((base - own share) - other share) - h * paid``
    with 0.0 for the terms that do not apply: the operations a realized
    event applies, in their order.  Bribe income is not in the table, as
    it depends on the bribes offered, not on the row alone.
    """
    n = model.n
    n_c = np.arange(n)
    n_own = n_c if focal_c else n - 1 - n_c
    total_c = n_c + (1 if focal_c else 0)
    base = model.b + model.f * model.c * total_c / n - model.tau - (model.c if focal_c else 0.0)
    budget = (model.alpha if focal_c else 1.0 - model.alpha) * n * model.tau * model.r_p
    own_share = np.where(n_own > 0, budget / np.maximum(n_own, 1), 0.0)
    other_share = budget / (n_own + 1)
    zero = np.zeros(n)
    own_fine = np.stack([zero, own_share, zero, zero], axis=1)
    other_fine = np.stack([zero, zero, other_share, zero], axis=1)
    paid = np.array([0.0, 0.0, 0.0, model.h if isinstance(model, BriberyParams) else 0.0])
    return base[:, None] - own_fine - other_fine - paid


def _workspace(size: int) -> tuple[np.ndarray, ...]:
    """The first ``size`` lanes of this thread's chunk buffers (see "Working memory" above)."""
    buffers = getattr(_WORKSPACE, "buffers", None)
    if buffers is None:
        kinds = (np.float64, np.int64, np.bool_, np.bool_, np.int8)
        buffers = _WORKSPACE.buffers = tuple(np.empty(CHUNK_SAMPLES, kind) for kind in kinds)
    return tuple(buffer[:size] for buffer in buffers)


def _event_payoffs(model, focal_c, n_c, rng, size) -> np.ndarray:
    """Vectorized focal payoffs against ``n_c`` cooperator co-players.

    ``n_c`` is an int for a fixed composition, or an array of ``size``
    sampled co-player counts; ``size`` is at most :data:`CHUNK_SAMPLES`.
    Each sample's outcome indexes one entry of :func:`_payoff_table`; a
    leading focal player's bribe income is added after the lookup, at the
    samples that receive it.  The payoffs are a view of this thread's
    :func:`_workspace`, valid only until the thread's next chunk.
    """
    n = model.n
    is_bg = isinstance(model, BriberyParams)
    u, index, led, fined, outcome = _workspace(size)

    lead = rng.integers(0, n, size, dtype=np.int32)  # the values and generator state of the int64 draw
    rng.random(out=u)  # the action uniforms
    # outcome: 0 untouched, 1 fined by an own-type leader, 2 fined by an other-type leader, 3 pays a bribe
    np.not_equal(lead, 0, out=led)  # a co-player leads
    np.less(u, model.beta, out=fined)
    fined &= led
    (np.greater if focal_c else np.less_equal)(lead, n_c, out=outcome)  # 1 where an other-type co-player leads
    outcome &= fined
    outcome += fined
    if is_bg:
        # fined is in the outcome and led is recomputed, so their buffers hold who accepts, pays and takes
        accepts = np.greater_equal(u, model.beta, out=fined)
        accepts &= np.less(u, model.beta + model.gamma, out=led)
        pays = np.logical_and(accepts, np.not_equal(lead, 0, out=led), out=led)  # a co-player leads and accepts
        takes = np.flatnonzero(np.not_equal(accepts, pays, out=accepts))  # accepts, no co-player leads: the focal one
        del lead  # spent: its megabyte is free for the temporaries of the bribe draws
        rng.random(out=u)  # the offer uniforms
        pays &= np.less(u, model.p if focal_c else model.q, out=accepts)
        outcome += np.int8(3) * pays  # an accepting leader fines no one, so these outcomes were 0
        # the bribe counts are drawn at every lane, their uniforms into the spent
        # offer uniforms, but only a focal leader who accepts receives them
        offers = _binomial(rng, n_c, model.p, size, takes, u) + _binomial(rng, n - 1 - n_c, model.q, size, takes, u)
    np.multiply(n_c, 4, out=index, dtype=np.int64)  # an int8 n_c times 4 may pass 127
    index += outcome
    # every index is in range (n_c < n, outcome < 4); "clip" writes into
    # ``out`` directly, where the default "raise" goes through a new buffer
    payoff = _payoff_table(model, focal_c).ravel().take(index, out=u, mode="clip")
    if is_bg:
        # every other sample would add h * 0 = ±0.0, which leaves any payoff
        # but -0.0 as it is, and no table entry is -0.0: each starts from
        # b + f*c*total_c/n, whose second term is +0.0 or positive (f, c > 0),
        # so the sum is not -0.0 whatever b is, and each later difference has
        # a left side that is not -0.0, so it is not -0.0 either.  The counts
        # widen to int64 first, where h * count is exact for an int h as well:
        # an int h times int8 counts would wrap
        payoff[takes] += model.h * offers.astype(np.int64)
    return payoff


def _chunk_task(model, focal_c, n_c, x, seed, index, size) -> tuple[int, float, float]:
    """Size, mean and squared deviations of chunk ``index`` of an estimate: ``size`` focal payoffs."""
    # n_c is None for Binomial(n-1, x) compositions, drawn first from the chunk's stream
    rng = generator(seed, index)
    # a valid model's payoffs, or their squared deviations, may still overflow
    with np.errstate(over="raise", invalid="raise"):
        try:
            if n_c is None:
                n_c = _binomial(rng, model.n - 1, x, size, spent=_workspace(size)[0])
            return _summarize(_event_payoffs(model, focal_c, n_c, rng, size))
        except FloatingPointError as err:
            raise ValueError(f"the sampled payoffs overflow double precision ({err})") from None


def _chunk_tasks(model, focal_c, n_c, x, n: int, seed: RngSeed) -> list[partial]:
    """One estimate as its zero-argument chunk tasks: ``n`` focal payoffs from the ``seed`` substreams."""
    n = _as_int(n, "n")
    if n < 2:
        raise ValueError(f"need n >= 2 samples, got {n}")
    if n > MAX_SAMPLES:
        raise ValueError(f"need n <= MAX_SAMPLES = {MAX_SAMPLES} samples, got {n}")
    return [partial(_chunk_task, model, focal_c, n_c, x, seed, i, size) for i, size in enumerate(_chunk_sizes(n))]


def _payoff_request(model: Model, focal: str, comp: GroupComposition, n: int, seed: RngSeed) -> list[partial]:
    """Chunk tasks of :func:`estimate_expected_payoff`; checks the strategy, the composition and ``n``."""
    focal_c = is_cooperator(focal)
    _check_group(model, comp)
    return _chunk_tasks(model, focal_c, comp.n_c, None, n, seed)


def _avg_request(model: Model, x: float, strategy: str, n: int, seed: RngSeed) -> list[partial]:
    """Chunk tasks of :func:`estimate_avg_payoff`; checks the strategy, ``x`` and ``n``."""
    focal_c = is_cooperator(strategy)
    if not 0 <= x <= 1:
        raise ValueError(f"x must be in [0, 1], got {x}")
    return _chunk_tasks(model, focal_c, None, x, n, seed)


def _run_tasks(tasks: list, workers: int | None) -> list:
    """The result of every zero-argument picklable task, in order.

    With ``workers`` > 1 and more than one task they go into one pool, in
    order, under the pool policy of the module docstring; otherwise they
    run in this process.
    """
    if workers is not None and not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must be >= 1 and <= MAX_WORKERS = {MAX_WORKERS}, got {workers}")
    if workers is None or workers == 1 or len(tasks) <= 1:
        return [task() for task in tasks]
    # a fork-context pool starts all of its workers at once: never more than there are tasks
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        futures = [pool.submit(task) for task in tasks]
        return [future.result() for future in futures]


def _estimate_all(requests: list[list], results) -> list[Estimate]:
    """Every request's estimate, merged in chunk order from its slice of ``results``.

    ``results`` are those of the requests' chunk tasks, request after
    request, so the values equal those of one call per request.
    """
    results = iter(results)
    return [_merge(islice(results, len(tasks))) for tasks in requests]


def estimate_expected_payoff(
    model: Model,
    focal: str,
    comp: GroupComposition,
    n: int,
    seed: RngSeed,
    workers: int | None = None,
) -> Estimate:
    """Mean and standard error of ``n`` event payoffs at a fixed composition."""
    return _merge(_run_tasks(_payoff_request(model, focal, comp, n, seed), workers))


def estimate_avg_payoff(
    model: Model,
    x: float,
    strategy: str,
    n: int,
    seed: RngSeed,
    workers: int | None = None,
) -> Estimate:
    """Monte Carlo estimate of the population-average payoff at fraction x."""
    return _merge(_run_tasks(_avg_request(model, x, strategy, n, seed), workers))


# ---------------------------------------------------------------------------
# finite-population imitation dynamics


UNIFORM_BLOCK = 8192  # uniforms the walk draws per refill of its buffer


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
    population_size = _as_int(population_size, "population_size")
    rounds = _as_int(rounds, "rounds")
    if population_size < 2 * model.n:
        raise ValueError(
            f"population_size must be >= 2n = {2 * model.n}, got {population_size}"
        )
    if not 0 <= x0 <= 1:
        raise ValueError(f"x0 must be in [0, 1], got {x0}")
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    if not math.isfinite(imitation_strength):
        raise ValueError(f"imitation_strength must be finite, got {imitation_strength}")

    z = population_size
    k = min(z, max(0, int(round(x0 * z))))
    n = model.n
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
