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

The payoff functions below are conditional expectations over the leader
draw and the leader's action for a fixed co-player composition.  A bribe
is only paid when it is both offered and accepted, and a fine budget with
no eligible target is simply not levied (a leader of an absent type can
never be drawn).  Averaging over compositions lives in
:mod:`pgg_bribery.analysis`; event-level sampling in
:mod:`pgg_bribery.montecarlo`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from typing import Union

__all__ = [
    "ParameterError",
    "CoreParams",
    "BriberyParams",
    "GroupComposition",
    "Model",
    "core_of",
    "payoff_c_ipgg",
    "payoff_d_ipgg",
    "payoff_c_bg",
    "payoff_d_bg",
    "group_payoff",
]


class ParameterError(ValueError):
    """A parameter record or group composition violates an invariant."""


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

    n      group size, at least 2
    b      initial endowment per player
    c      cost of contributing to the common pool
    tau    per-player tax funding the punishment institution
    f      pool multiplier applied to the total contribution
    alpha  fraction of the punishment budget aimed at cooperators
    beta   probability that the leader punishes
    r_p    punishment multiplier scaling the leader's budget

    Every value must be finite.  Any ``f > 0`` is accepted; values outside
    the classical dilemma range ``(1, n)`` are legal but recorded in
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
    validation_warnings: tuple[str, ...] = field(
        init=False, default=(), compare=False, repr=False
    )

    def __post_init__(self):
        object.__setattr__(self, "n", _as_int(self.n, "n"))
        if self.n < 2:
            raise ParameterError(f"group size n must be >= 2, got {self.n}")
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
        if not 1 < self.f < self.n:
            object.__setattr__(
                self,
                "validation_warnings",
                (f"pool multiplier f={self.f} lies outside the dilemma range (1, {self.n})",),
            )


@dataclass(frozen=True)
class BriberyParams:
    """IPGG constants plus the bribery-game extension.

    h      bribe amount offered to the leader
    gamma  probability that the leader accepts bribes
    p      probability that a non-leader cooperator offers a bribe
    q      probability that a non-leader defector offers a bribe
    """

    core: CoreParams
    h: float
    gamma: float
    p: float
    q: float

    def __post_init__(self):
        _check_finite(self, ("h",))
        if not self.h >= 0:
            raise ParameterError(f"bribe h must be >= 0, got {self.h}")
        for name in ("gamma", "p", "q"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ParameterError(f"{name} must be in [0, 1], got {value}")
        if self.core.beta + self.gamma > 1:
            raise ParameterError(
                f"beta + gamma must be <= 1 (the leader's idle action has "
                f"probability 1 - beta - gamma), got {self.core.beta + self.gamma}"
            )

    @property
    def validation_warnings(self) -> tuple[str, ...]:
        return self.core.validation_warnings


Model = Union[CoreParams, BriberyParams]


def core_of(model: Model) -> CoreParams:
    """The IPGG constants shared by both model variants."""
    return model.core if isinstance(model, BriberyParams) else model


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


def payoff_c_ipgg(params: CoreParams, comp: GroupComposition) -> float:
    """Expected payoff of a cooperator whose co-players are ``comp``.

    The expectation runs over the uniform leader draw and the leader's
    punish/no-op decision; endowment, contribution, group share and tax
    are deterministic given the composition.
    """
    _check_group(params, comp)
    n, n_c, n_d = params.n, comp.n_c, comp.n_d
    budget = params.beta * params.alpha * n * params.tau * params.r_p
    # A cooperator co-player can lead only if one exists; the n_c/(n-1)
    # draw odds then cancel against the n_c non-leader cooperators
    # sharing the budget.
    own_type_leads = budget / (n - 1) if n_c > 0 else 0.0
    other_type_leads = (n_d / (n - 1)) * budget / (n_c + 1)
    fine = (1.0 - 1.0 / n) * (own_type_leads + other_type_leads)
    share = params.f * params.c * (n_c + 1) / n
    return params.b + share - params.c - params.tau - fine


def payoff_d_ipgg(params: CoreParams, comp: GroupComposition) -> float:
    """Expected payoff of a defector whose co-players are ``comp``."""
    _check_group(params, comp)
    n, n_c, n_d = params.n, comp.n_c, comp.n_d
    budget = params.beta * (1.0 - params.alpha) * n * params.tau * params.r_p
    own_type_leads = budget / (n - 1) if n_d > 0 else 0.0
    other_type_leads = (n_c / (n - 1)) * budget / (n_d + 1)
    fine = (1.0 - 1.0 / n) * (own_type_leads + other_type_leads)
    share = params.f * params.c * n_c / n
    return params.b + share - params.tau - fine


def _bribe_terms(params: BriberyParams, comp: GroupComposition, offer_prob: float):
    """Expected bribe income when leading and expected bribe payment when not."""
    n = params.core.n
    accepted_bribe = params.gamma * params.h
    income = (params.p * comp.n_c + params.q * comp.n_d) * accepted_bribe / n
    payment = (1.0 - 1.0 / n) * offer_prob * accepted_bribe
    return income, payment


def payoff_c_bg(params: BriberyParams, comp: GroupComposition) -> float:
    """Expected cooperator payoff in the bribery game.

    Reduces bit-for-bit to the IPGG payoff when gamma = 0 or h = 0.
    """
    income, payment = _bribe_terms(params, comp, params.p)
    return payoff_c_ipgg(params.core, comp) + income - payment


def payoff_d_bg(params: BriberyParams, comp: GroupComposition) -> float:
    """Expected defector payoff in the bribery game."""
    income, payment = _bribe_terms(params, comp, params.q)
    return payoff_d_ipgg(params.core, comp) + income - payment


def group_payoff(model: Model, strategy: str, comp: GroupComposition) -> float:
    """Dispatch to the per-group payoff of ``strategy`` ("C" or "D")."""
    if isinstance(model, BriberyParams):
        if strategy == "C":
            return payoff_c_bg(model, comp)
        if strategy == "D":
            return payoff_d_bg(model, comp)
    else:
        if strategy == "C":
            return payoff_c_ipgg(model, comp)
        if strategy == "D":
            return payoff_d_ipgg(model, comp)
    raise ValueError(f"strategy must be 'C' or 'D', got {strategy!r}")
