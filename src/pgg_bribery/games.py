"""Institutional-punishment public goods games, with and without bribery.

Two N-player games played by cooperators (C) and defectors (D):

* IPGG: every player pays a tax ``tau`` funding a punishment institution,
  then decides whether to contribute ``c`` to a common pool that is
  multiplied by ``f`` and shared equally.  One group member is drawn
  uniformly as leader; with probability ``beta`` the leader spends the
  tax pool ``n * tau``, scaled by the punishment multiplier ``r_p``, on
  fines.  A fraction ``alpha`` of that budget fines the non-leader
  cooperators, the remainder fines the non-leader defectors, split
  equally within each class.
* BG: the bribery extension.  Every non-leader may offer a bribe ``h``
  (cooperators with probability ``p``, defectors with probability ``q``)
  and the leader accepts all offered bribes with probability ``gamma``
  instead of punishing.  Punishing, accepting and doing nothing are
  mutually exclusive leader actions, so ``beta + gamma <= 1``.

One flat record holds a model.  :class:`CoreParams` holds the IPGG's
fields (``CORE_FIELDS``); :class:`BriberyParams` is a ``CoreParams`` with
four more (``BRIBERY_FIELDS``), so every module reads ``n``, ``f`` or
``beta`` off either model the same way, and ``isinstance(model,
BriberyParams)`` tells the games apart.  ``bg.core`` is the IPGG
restriction of a BG, built from its core fields.

The per-group entry point is ``group_payoff(model, strategy, comp)``: the
conditional expectation, over the leader draw and the leader's action, of
a C or D player's payoff for a fixed co-player composition.  A bribe
is only paid when it is both offered and accepted, and a fine budget with
no eligible target is simply not levied (a leader of an absent type can
never be drawn).  Averaging over compositions lives in
:mod:`pgg_bribery.analysis`; event-level sampling in
:mod:`pgg_bribery.montecarlo`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import isfinite

__all__ = [
    "ParameterError",
    "CoreParams",
    "BriberyParams",
    "GroupComposition",
    "Model",
    "is_cooperator",
    "group_payoff",
]


class ParameterError(ValueError):
    """A parameter record or group composition violates an invariant."""


# the largest group size: the closed forms sum O(n) terms per evaluation, so
# a command's time grows with n times its size (at n = MAX_N an RK4 step takes
# ~2.8 ms and a 4,096-point Q and G chunk ~0.2 s on a 2-vCPU VM), and
# analysis.MAX_TURNS bounds that product
MAX_N = 10**4


def _as_int(value, name: str) -> int:
    try:
        whole = int(value)
    except (OverflowError, ValueError):  # inf, nan, non-numeric text
        whole = None
    if isinstance(value, bool) or value != whole:
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    return whole


def _check_finite(record, names: tuple[str, ...]) -> None:
    for name in names:
        value = getattr(record, name)
        if not isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class CoreParams:
    """Constants of the institutional-punishment public goods game.

    n      group size, at least 2 and at most ``MAX_N``
    b      initial endowment per player
    c      cost of contributing to the common pool
    tau    per-player tax funding the punishment institution
    f      pool multiplier applied to the total contribution
    alpha  fraction of the punishment budget aimed at cooperators
    beta   probability that the leader punishes
    r_p    punishment multiplier scaling the leader's budget

    Every value must be finite.  Any ``f > 0`` is accepted; values outside
    the classical dilemma range ``(1, n)`` are legal but reported by
    ``validation_warnings``.
    """

    n: int
    b: float
    c: float
    tau: float
    f: float
    alpha: float
    beta: float
    r_p: float

    def __post_init__(self):
        object.__setattr__(self, "n", _as_int(self.n, "n"))
        if self.n < 2:
            raise ParameterError(f"group size n must be >= 2, got {self.n}")
        if self.n > MAX_N:
            raise ParameterError(f"group size n must be <= MAX_N = {MAX_N}, got {self.n}")
        _check_finite(self, ("b", "c", "tau", "f", "r_p"))
        if not self.c > 0:
            raise ParameterError(f"contribution cost c must be > 0, got {self.c}")
        if not self.b >= 0:
            raise ParameterError(f"endowment b must be >= 0, got {self.b}")
        if not self.tau >= 0:
            raise ParameterError(f"tax tau must be >= 0, got {self.tau}")
        if not self.r_p >= 0:
            raise ParameterError(f"punishment multiplier r_p must be >= 0, got {self.r_p}")
        if not 0 <= self.alpha <= 1:
            raise ParameterError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0 <= self.beta <= 1:
            raise ParameterError(f"beta must be in [0, 1], got {self.beta}")
        if not self.f > 0:
            raise ParameterError(f"pool multiplier f must be > 0, got {self.f}")

    @property
    def validation_warnings(self) -> tuple[str, ...]:
        """Legal but unusual values: a pool multiplier outside (1, n)."""
        if 1 < self.f < self.n:
            return ()
        return (f"pool multiplier f={self.f} lies outside the dilemma range (1, {self.n})",)


CORE_FIELDS = tuple(field.name for field in fields(CoreParams))


@dataclass(frozen=True)
class BriberyParams(CoreParams):
    """IPGG constants plus the bribery-game extension.

    h      bribe amount offered to the leader
    gamma  probability that the leader accepts bribes
    p      probability that a non-leader cooperator offers a bribe
    q      probability that a non-leader defector offers a bribe

    ``BriberyParams(**vars(ipgg), h=..., gamma=..., p=..., q=...)`` extends
    an IPGG record; the IPGG checks run first.
    """

    h: float
    gamma: float
    p: float
    q: float

    def __post_init__(self):
        super().__post_init__()
        _check_finite(self, ("h",))
        if not self.h >= 0:
            raise ParameterError(f"bribe h must be >= 0, got {self.h}")
        for name in ("gamma", "p", "q"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ParameterError(f"{name} must be in [0, 1], got {value}")
        if self.beta + self.gamma > 1:
            raise ParameterError(
                f"beta + gamma must be <= 1 (the leader's idle action has "
                f"probability 1 - beta - gamma), got {self.beta + self.gamma}"
            )

    @property
    def core(self) -> CoreParams:
        """The IPGG restriction: the same constants without bribery."""
        return CoreParams(**{name: getattr(self, name) for name in CORE_FIELDS})


BRIBERY_FIELDS = tuple(field.name for field in fields(BriberyParams))[len(CORE_FIELDS):]

# every model is a CoreParams; a BriberyParams adds the bribery constants
Model = CoreParams


@dataclass(frozen=True)
class GroupComposition:
    """Co-player composition seen by a focal player: n_c cooperators and
    n_d defectors among the other n - 1 group members."""

    n_c: int
    n_d: int

    def __post_init__(self):
        object.__setattr__(self, "n_c", _as_int(self.n_c, "n_c"))
        object.__setattr__(self, "n_d", _as_int(self.n_d, "n_d"))
        if self.n_c < 0 or self.n_d < 0:
            raise ParameterError(f"composition counts must be >= 0, got {self}")


def _check_group(params: CoreParams, comp: GroupComposition) -> None:
    if comp.n_c + comp.n_d != params.n - 1:
        raise ParameterError(
            f"composition {comp} does not describe {params.n - 1} co-players"
        )


def is_cooperator(strategy: str) -> bool:
    """True for "C", False for "D"; any other strategy is refused."""
    if strategy not in ("C", "D"):
        raise ValueError(f"strategy must be 'C' or 'D', got {strategy!r}")
    return strategy == "C"


def group_payoff(model: Model, strategy: str, comp: GroupComposition) -> float:
    """Expected payoff of a ``strategy`` ("C" or "D") player whose co-players are ``comp``.

    The expectation runs over the uniform leader draw and the leader's
    action; endowment, contribution, group share and tax are
    deterministic given the composition.  With bribery switched off
    (gamma = 0 or h = 0) the BG value equals the IPGG value bit for bit.
    """
    cooperator = is_cooperator(strategy)
    _check_group(model, comp)
    n = model.n
    n_own, n_other = (comp.n_c, comp.n_d) if cooperator else (comp.n_d, comp.n_c)
    budget = model.beta * (model.alpha if cooperator else 1.0 - model.alpha) * n * model.tau * model.r_p
    # An own-type co-player can lead only if one exists; the n_own/(n-1)
    # draw odds then cancel against the n_own own-type non-leaders
    # sharing the budget.
    own_type_leads = budget / (n - 1) if n_own > 0 else 0.0
    other_type_leads = (n_other / (n - 1)) * budget / (n_own + 1)
    fine = (1.0 - 1.0 / n) * (own_type_leads + other_type_leads)
    share = model.f * model.c * (comp.n_c + cooperator) / n
    value = model.b + share - (model.c if cooperator else 0.0) - model.tau - fine
    if isinstance(model, BriberyParams):
        # bribe income when leading, expected bribe payment when not
        accepted_bribe = model.gamma * model.h
        income = (model.p * comp.n_c + model.q * comp.n_d) * accepted_bribe / n
        payment = (1.0 - 1.0 / n) * (model.p if cooperator else model.q) * accepted_bribe
        return value + income - payment
    return value


def _payoff_tables(model: Model) -> tuple[list[float], list[float]]:
    """:func:`group_payoff` of each strategy against 0..n-1 cooperator co-players."""
    n = model.n
    comps = [GroupComposition(k, n - 1 - k) for k in range(n)]
    pay_c = [group_payoff(model, "C", comp) for comp in comps]
    pay_d = [group_payoff(model, "D", comp) for comp in comps]
    return pay_c, pay_d
