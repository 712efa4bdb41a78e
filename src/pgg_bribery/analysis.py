"""Population-level analysis of the replicator dynamics.

For a well-mixed infinite population with cooperator fraction ``x`` the
dynamics are ``dx/dt = G(x) = x (1 - x) Q(x)``, driven by the selection
polynomial ``Q``.  Writing ``S(y) = y + y^2 + ... + y^(n-1)``,

    Q(x) = f*c/n - c + bribery_offset + beta*tau*r_p
           - 2*A - A*S(1 - x) + B*S(x)

with cooperator-fine scale ``A = beta*alpha*tau*r_p`` and defector-fine
scale ``B = beta*(1 - alpha)*tau*r_p``.  Q is strictly increasing on
(0, 1) whenever ``beta*tau*r_p > 0``, so the phase line is a trichotomy
controlled by the pool multiplier: defection dominant below ``f_min``
(where Q(1) = 0), bistable with a unique unstable interior equilibrium
between ``f_min`` and ``f_max``, cooperation dominant above ``f_max``
(where Q(0) = 0).

``avg_payoff`` is the exact binomial average of the per-group payoffs
and is the quantity estimated by the Monte Carlo oracles.  Its
cooperator/defector difference equals Q plus the two boundary-mass
terms ``A*(1-x)^(n-1) - B*x^(n-1)``: Q keeps the count-cancelled fine
shares even on the compositions where the focal player has no same-type
co-player, which is what makes it a polynomial with fixed sign structure.
All threshold, root and stability computations use Q.

:func:`coefficients` is the one definition of Q's coefficients and of the
thresholds, for one model or for numpy arrays of ``f`` and ``r_p``, and
the one place where such overrides are checked, by the model's record.
:func:`classify_regime` classifies one model on Python floats and
:func:`classify_regimes` arrays of cells.  Both locate x* with one
bisection body of ``BISECTION_STEPS`` halvings, so every cell equals
the lone model bit for bit.  ``tests/test_exact_regimes.py`` checks the
regimes and roots against exact rational arithmetic.
"""

from __future__ import annotations

import enum
import sys
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import lru_cache
from math import ceil, comb, exp, isfinite, lgamma, log, log1p, log2, prod
from typing import Callable, NamedTuple

import numpy as np

from .games import BriberyParams, GroupComposition, Model, ParameterError, group_payoff, is_cooperator

__all__ = [
    "KnifeEdgeError",
    "RegimeKind",
    "Regime",
    "Thresholds",
    "Coefficients",
    "Regimes",
    "KNIFE_EDGE",
    "KNIFE_EDGE_TOL",
    "EQUILIBRIUM_TOL",
    "ROOT_TOL",
    "bribery_offset",
    "avg_payoff",
    "binomial_avg_payoff",
    "coefficients",
    "q_function",
    "q_text",
    "gradient_of_selection",
    "thresholds",
    "classify_regime",
    "classify_regimes",
    "interior_root",
    "stability_at",
]

KNIFE_EDGE = "knife_edge"  # token of a cell that classify_regime refuses
KNIFE_EDGE_TOL = 1e-9
EQUILIBRIUM_TOL = 1e-12
ROOT_TOL = 1e-12


class KnifeEdgeError(ValueError):
    """The pool multiplier sits on a classification boundary.

    Raised instead of silently binning a model whose ``f`` is within
    ``KNIFE_EDGE_TOL`` of ``f_min`` or ``f_max``; :func:`classify_regimes`
    marks such a cell ``knife_edge`` instead.
    """

    def __init__(self, f: float, threshold: float, name: str):
        self.f = f
        self.threshold = threshold
        self.threshold_name = name
        super().__init__(
            f"f={f} is within {KNIFE_EDGE_TOL} of {name}={threshold}; "
            "the regime is not classified on the boundary"
        )


class RegimeKind(enum.Enum):
    DEFECTION_DOMINANT = "defection_dominant"
    BISTABLE = "bistable"
    COOPERATION_DOMINANT = "cooperation_dominant"


@dataclass(frozen=True)
class Regime:
    """Phase-line classification with boundary stability labels.

    ``x_star`` is present exactly for the bistable kind.  ``degenerate``
    flags models with ``beta*tau*r_p = 0`` where Q is constant in x and
    only the two-way classification by its sign is meaningful.
    """

    kind: RegimeKind
    x_star: float | None = None
    degenerate: bool = False

    def __post_init__(self):
        if (self.kind is RegimeKind.BISTABLE) != (self.x_star is not None):
            raise ValueError("x_star is carried by the bistable regime only")
        if self.x_star is not None and not 0 < self.x_star < 1:
            raise ValueError(f"interior equilibrium must lie in (0, 1), got {self.x_star}")

    @property
    def stable_at_zero(self) -> bool:
        return self.kind is not RegimeKind.COOPERATION_DOMINANT

    @property
    def stable_at_one(self) -> bool:
        return self.kind is not RegimeKind.DEFECTION_DOMINANT

    @property
    def token(self) -> str:
        return self.kind.value

    @property
    def basin(self) -> float:
        """Share of initial states attracted to full cooperation: 1 - x*, or 1 if x = 1 is stable and 0 if not."""
        return 1.0 - self.x_star if self.x_star is not None else float(self.stable_at_one)


# for arrays, a cell's integer code indexes its token and, off the bistable lanes, its basin
_DEFECTION, _BISTABLE, _COOPERATION, _KNIFE = range(4)
_TOKENS = np.array([kind.value for kind in RegimeKind] + [KNIFE_EDGE], dtype=object)
_BASINS = np.array([0.0, np.nan, 1.0, np.nan])


@dataclass(frozen=True)
class Thresholds:
    """Pool-multiplier pair bracketing the bistable window.

    ``f_max - f_min = n (n - 1) beta tau r_p / c`` in both model
    variants, so the pair collapses exactly when punishment is inert.
    """

    f_min: float
    f_max: float


def _check_x(x) -> None:
    # 1.0 and 0.0 lie in [0, 1], so as initial values they change no verdict, and give an empty array one
    lo, hi = (x.min(initial=1.0), x.max(initial=0.0)) if isinstance(x, np.ndarray) else (x, x)
    if not (0 <= lo and hi <= 1):
        raise ValueError(f"cooperator fraction x must be in [0, 1], got {x}")


def _geom_sum(y, terms: int):
    # sum_{k=1..terms} y**k in Horner form; exact at y = 0 and y = 1
    s = 0.0
    for _ in range(terms):
        s = y * (1.0 + s)
    return s


def _geom_sum_derivative(y: float, terms: int) -> float:
    # d/dy sum_{k=1..terms} y**k = sum_{k=1..terms} k y**(k-1)
    s = 0.0
    for k in range(terms, 0, -1):
        s = s * y + k
    return s


def bribery_offset(model: Model) -> float:
    """Constant added to Q by bribery: (n-1) gamma h (q - p) / n, else 0."""
    if isinstance(model, BriberyParams):
        n = model.n
        return (n - 1) * model.gamma * model.h * (model.q - model.p) / n
    return 0.0


class Coefficients(NamedTuple):
    """Q(x) = constant - fine_c*S(1 - x) + fine_d*S(x) and its thresholds.

    Every field but ``n`` is a float, or an array when ``f`` or ``r_p``
    was given as one; ``pressure`` is ``beta*tau*r_p``.
    """

    n: int
    f: float | np.ndarray
    pressure: float | np.ndarray
    constant: float | np.ndarray
    fine_c: float | np.ndarray
    fine_d: float | np.ndarray
    f_min: float | np.ndarray
    f_max: float | np.ndarray


def _refusal(model: Model, name: str, *cells) -> ParameterError | None:
    """The record's error for the first of ``cells`` it refuses as ``name``, or None."""
    try:
        for cell in cells:
            replace(model, **{name: float(cell)})
    except ParameterError as err:
        return err
    return None


def coefficients(model: Model, f=None, r_p=None) -> Coefficients:
    """The one definition of the Q coefficients and the thresholds.

    ``f`` and ``r_p`` replace the model's values when given; they may be
    numpy arrays, and the fields then broadcast elementwise with the same
    floating-point operations, in the same order, as for scalars.  The
    model's record checks them: the first cell, in ``np.ravel`` order, that
    it refuses raises its ``ParameterError`` with the cell's index.  One
    model's fields change with ``dataclasses.replace``.
    """
    for name, values in (("f", f), ("r_p", r_p)):
        flat = () if values is None else np.ravel(values)
        # the record accepts an interval of each field, so a refused cell, NaN
        # included, is refused as the min or the max of every prefix that holds it
        if len(flat) and _refusal(model, name, flat.min(), flat.max()):
            lows, highs = np.minimum.accumulate(flat), np.maximum.accumulate(flat)
            index = bisect_left(range(flat.size), True, key=lambda i: bool(_refusal(model, name, lows[i], highs[i])))
            raise ParameterError(f"{_refusal(model, name, flat[index])} (index {index} of {name})")
    n = model.n
    # a list becomes an array; a float stays as it is, so the scalar path keeps its bits
    f = model.f if f is None else f if isinstance(f, float) else np.asarray(f)
    r_p = model.r_p if r_p is None else r_p if isinstance(r_p, float) else np.asarray(r_p)
    offset = bribery_offset(model)
    pressure = model.beta * model.tau * r_p
    fine_c = model.alpha * pressure
    fine_d = (1.0 - model.alpha) * pressure
    constant = f * model.c / n - model.c + offset + pressure - 2.0 * fine_c
    base = model.c - offset - pressure
    f_min = n * (base + 2.0 * fine_c - fine_d * (n - 1)) / model.c
    f_max = n * (base + fine_c * (n + 1)) / model.c
    return Coefficients(n, f, pressure, constant, fine_c, fine_d, f_min, f_max)


_NEST = 90  # Horner turns per expression: CPython refuses 200 nested parentheses


def q_text(n: int, x: str = "x") -> tuple[list[str], str]:
    """Q at the point named ``x`` as straight-line source: (statements, expression).

    The one text of Q's Horner sums.  Each is its first term ``v`` wrapped
    in n - 2 turns ``v * (1.0 + ...)``, the operations of :func:`_geom_sum`
    in its order, chained through ``s_c`` or ``s_d`` every ``_NEST`` turns.
    The statements bind those and ``y = 1.0 - x``; the expression also reads
    ``constant``, ``fine_c`` and ``fine_d``.  The only literal is ``1.0``.
    """
    lines, sums = [f"y = 1.0 - {x}"], []
    for name, v in (("s_c", "y"), ("s_d", x)):
        inner, turns = v, n - 2
        while turns > _NEST:
            lines.append(f"{name} = " + f"{v} * (1.0 + " * _NEST + inner + ")" * _NEST)
            inner, turns = name, turns - _NEST
        sums.append(f"{v} * (1.0 + " * turns + inner + ")" * turns)
    return lines, f"constant - fine_c * ({sums[0]}) + fine_d * ({sums[1]})"


@lru_cache(maxsize=16)
def _q_factory(n: int) -> Callable:
    lines, expr = q_text(n)
    namespace: dict = {}
    exec("def factory(constant, fine_c, fine_d):\n    def q(x):\n"
         f"        {'; '.join(lines)}\n        return {expr}\n    return q", namespace)
    return namespace["factory"]


def _q_of(co: Coefficients) -> Callable:
    """The one body of Q: :func:`q_text` compiled once per n, over ``co``'s coefficients as closure variables.

    A float and an array element get the same bits.  :func:`gradient_of_selection` forms G as
    ``x * (1.0 - x) * q(x)``, and ``dynamics.integrate`` compiles its RK4 loop from the same text.
    """
    return _q_factory(co.n)(co.constant, co.fine_c, co.fine_d)


def _finite_coefficients(model: Model) -> Coefficients:
    co = coefficients(model)
    if not (isfinite(co.f_min) and isfinite(co.f_max)):
        raise _non_finite(co.f_min, co.f_max)
    return co


def q_callable(model: Model) -> Callable[[float], float]:
    """Fast closure evaluating Q; ``ValueError`` when a threshold is not finite."""
    return _q_of(_finite_coefficients(model))


def q_function(model: Model, x):
    """Selection polynomial Q(x), the payoff advantage of cooperation.

    ``x`` may be a numpy array; Q is then evaluated elementwise.
    """
    _check_x(x)
    return q_callable(model)(x)


def gradient_of_selection(model: Model, x):
    """G(x) = x (1 - x) Q(x), the replicator right-hand side (``x`` may be an array)."""
    _check_x(x)
    return x * (1.0 - x) * q_callable(model)(x)


def avg_payoff(model: Model, x: float, strategy: str) -> float:
    """Exact population-average payoff of a strategy at fraction ``x``.

    Closed form of the binomial mixture of the per-group payoffs over
    co-player compositions, finite at x = 0 and x = 1.
    """
    _check_x(x)
    cooperator = is_cooperator(strategy)
    n = model.n
    co = coefficients(model)
    if cooperator:
        # own-type leader share requires a cooperator co-player to exist,
        # hence the missing (1-x)^(n-1) mass
        fines = co.fine_c * (1.0 - (1.0 - x) ** (n - 1) + _geom_sum(1.0 - x, n - 1))
        value = (
            model.b
            + model.f * model.c * ((n - 1) * x + 1.0) / n
            - model.c
            - model.tau
            - fines
        )
    else:
        fines = co.fine_d * (1.0 - x ** (n - 1) + _geom_sum(x, n - 1))
        value = model.b + model.f * model.c * (n - 1) * x / n - model.tau - fines
    if isinstance(model, BriberyParams):
        accepted = model.gamma * model.h
        income = (n - 1) * accepted * (model.p * x + model.q * (1.0 - x)) / n
        offer_prob = model.p if cooperator else model.q
        value += income - (1.0 - 1.0 / n) * offer_prob * accepted
    return value


def _log_space_weight(k: int, j: int, x: float) -> float:
    """P(Binomial(k, x) = j) through lgamma, for coefficients too large for a float."""
    if x == 0.0 or x == 1.0:
        return float(j == (0 if x == 0.0 else k))
    return exp(lgamma(k + 1) - lgamma(j + 1) - lgamma(k - j + 1) + j * log(x) + (k - j) * log1p(-x))


# a log binomial coefficient above this exceeds a float, whatever lgamma's rounding
_LOG_COMB_OVERFLOWS = log(sys.float_info.max) + 1.0


def _weight(k: int, j: int, x: float) -> float:
    """P(Binomial(k, x) = j): the exact coefficient times the powers, or in log space past a float."""
    if lgamma(k + 1) - lgamma(j + 1) - lgamma(k - j + 1) > _LOG_COMB_OVERFLOWS:
        return _log_space_weight(k, j, x)  # comb would raise, after building a huge integer
    try:
        return comb(k, j) * x**j * (1.0 - x) ** (k - j)
    except OverflowError:  # the binomial coefficient exceeds a float
        return _log_space_weight(k, j, x)


def binomial_avg_payoff(model: Model, x: float, strategy: str) -> float:
    """Average payoff as an explicit binomial sum over compositions.

    Independent oracle for :func:`avg_payoff`: n_c among the n - 1
    co-players is Binomial(n - 1, x).
    """
    _check_x(x)
    n = model.n
    total = 0.0
    for n_c in range(n):
        weight = _weight(n - 1, n_c, x)
        total += weight * group_payoff(model, strategy, GroupComposition(n_c, n - 1 - n_c))
    return total


def thresholds(model: Model) -> Thresholds:
    """Pool-multiplier values where Q(1) and Q(0) change sign."""
    co = coefficients(model)
    return Thresholds(co.f_min, co.f_max)


def _non_finite(f_min, f_max) -> ValueError:
    return ValueError(
        f"thresholds f_min={f_min}, f_max={f_max} are not finite: "
        "the parameters overflow double precision"
    )


BRACKET = (1e-15, 1.0 - 1e-15)
# halvings that take the bracket below ROOT_TOL: 40, as rounding moves a
# width by under 1e-15 and the widths after 39 and 40 steps are
# ~1.82e-12 and ~9.09e-13, so every cell stops after the same count
BISECTION_STEPS = ceil(log2((BRACKET[1] - BRACKET[0]) / ROOT_TOL))

# the most work one command may ask for, in Horner turns of an array lane, a
# turn being one step of both of Q's sums at one x, n - 1 per evaluation: a
# grid or sweep runs (n - 1) * cells * BISECTION_STEPS turns and a gradient
# 2 * (n - 1) * points, refused before they start.  An integrate step runs
# 4 * (n - 1) turns on Python floats, each costing about SCALAR_TURN lane
# turns (at n = 10^4 on a 2-vCPU VM, ~0.06 against ~0.0024 us, the scalar
# turns compiled straight-line); as most runs converge long before t_max, it
# is charged for the steps it runs and stops with an error once they reach
# the budget unconverged.  Every job within the other caps at n = 5 fits, the
# largest being integrate at MAX_STEPS (4e9 turns, ~14 s there); at n = 10^4
# the largest admitted jobs take ~11-14 s, integrate's 5,000 steps ~12 s
MAX_TURNS = 5 * 10**9
SCALAR_TURN = 25


def _check_turns(what: str, n: int, **factors: int) -> None:
    """Refuse a job of (n - 1) times ``factors`` Horner turns above :data:`MAX_TURNS`, before it starts."""
    turns = (n - 1) * prod(factors.values())
    if turns > MAX_TURNS:
        named = ", ".join(f"{name} = {value}" for name, value in {"n - 1": n - 1, **factors}.items())
        raise ValueError(f"{what} asks for {turns} Horner turns ({named}), above the work budget of {MAX_TURNS}")


def _either(below: bool, if_below: float, otherwise: float) -> float:
    return if_below if below else otherwise


def _bisect(co: Coefficients):
    """Unique zero of the strictly increasing Q on (0, 1) by bisection.

    One body for one model on Python floats and for arrays of cells: the
    select is ``np.where`` when the coefficients are arrays, so every cell
    takes the same midpoints and the same test as a lone model.
    """
    q = _q_of(co)
    select = np.where if isinstance(co.constant, np.ndarray) else _either
    lo, hi = BRACKET
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        below = q(mid) < 0.0
        lo = select(below, mid, lo)
        hi = select(below, hi, mid)
    return 0.5 * (lo + hi)


def _on_threshold(f, threshold):
    return abs(f - threshold) <= KNIFE_EDGE_TOL  # floats, or arrays elementwise


def classify_regime(model: Model) -> Regime:
    """Three-way phase-line classification of the model.

    Raises :class:`KnifeEdgeError` when ``f`` is within ``KNIFE_EDGE_TOL``
    of either threshold, and ``ValueError`` when a threshold is not
    finite.  When ``beta*tau*r_p = 0`` the thresholds coincide, Q is
    constant, and the result carries ``degenerate=True``.
    """
    co = _finite_coefficients(model)
    f, f_min, f_max = co.f, co.f_min, co.f_max
    for threshold, name in ((f_min, "f_min"), (f_max, "f_max")):
        if _on_threshold(f, threshold):
            raise KnifeEdgeError(f, threshold, name)
    degenerate = co.pressure == 0.0
    if f < f_min:
        return Regime(RegimeKind.DEFECTION_DOMINANT, degenerate=degenerate)
    if f > f_max:
        return Regime(RegimeKind.COOPERATION_DOMINANT, degenerate=degenerate)
    return Regime(RegimeKind.BISTABLE, x_star=_bisect(co))


class Regimes(NamedTuple):
    """Classification of many (f, r_p) cells, as arrays of one shape.

    ``token`` is an object array of references to the four token strings:
    the regime token, or ``KNIFE_EDGE`` where :func:`classify_regime`
    raises :class:`KnifeEdgeError`.  ``x_star`` is NaN unless bistable and
    ``basin`` is NaN on a knife edge.
    """

    token: np.ndarray
    x_star: np.ndarray
    basin: np.ndarray


def _by_code(table: np.ndarray, code: np.ndarray) -> np.ndarray:
    # through ravel, as a 0-d index array would pick a scalar, not a 0-d array
    return table[code.ravel()].reshape(code.shape)


def classify_regimes(model: Model, f=None, r_p=None) -> Regimes:
    """:func:`classify_regime` and the basin over arrays of ``f`` and ``r_p``.

    ``f`` and ``r_p`` replace the model's values and broadcast against
    each other (pass ``f[:, None]`` and ``r_p[None, :]`` for a grid).
    Every cell equals the scalar result bit for bit.  Raises the record's
    ``ParameterError`` at the first cell it refuses (:func:`coefficients`
    asks it), and ``ValueError`` when any threshold is not finite.  Its
    working arrays are a few times the cells' size: the ``grid`` and
    ``sweep`` rows pass it one ``output.CHUNK`` of cells at a time.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        co = coefficients(model, f, r_p)
    f, f_min, f_max = np.broadcast_arrays(co.f, co.f_min, co.f_max)
    finite = np.isfinite(f_min) & np.isfinite(f_max)
    if not finite.all():
        index = np.argmin(finite)
        raise _non_finite(f_min.flat[index], f_max.flat[index])
    code = np.full(f.shape, _BISTABLE, dtype=np.int8)
    code[f > f_max] = _COOPERATION
    code[f < f_min] = _DEFECTION
    code[_on_threshold(f, f_min) | _on_threshold(f, f_max)] = _KNIFE
    x_star = np.full(code.shape, np.nan)
    basin = _by_code(_BASINS, code)
    # only bistable cells have a root: bisect those lanes, each independent of the others
    lanes = code == _BISTABLE
    constant, fine_c, fine_d = (
        np.broadcast_to(values, code.shape)[lanes] for values in (co.constant, co.fine_c, co.fine_d)
    )
    root = _bisect(co._replace(constant=constant, fine_c=fine_c, fine_d=fine_d))
    x_star[lanes] = root
    basin[lanes] = 1.0 - root
    return Regimes(_by_code(_TOKENS, code), x_star, basin)


def interior_root(model: Model) -> float:
    """The unstable interior equilibrium x* of a bistable model."""
    regime = classify_regime(model)
    if regime.kind is not RegimeKind.BISTABLE:
        raise ValueError(
            f"interior root requires the bistable regime, model is {regime.token}"
        )
    return regime.x_star


def stability_at(model: Model, point: float) -> bool:
    """True when the equilibrium ``point`` is stable (dG/dx < 0 there).

    ``point`` must satisfy G(point) = 0 within ``EQUILIBRIUM_TOL`` plus
    ``|dG/dx| * ROOT_TOL``, as an interior root is located only to
    ``ROOT_TOL``; the derivative is evaluated from the closed polynomial
    form, giving Q(0) at x = 0, -Q(1) at x = 1 and x(1-x)Q'(x) at an
    interior root.
    """
    co = coefficients(model)
    q = q_function(model, point)
    q_prime = co.fine_c * _geom_sum_derivative(1.0 - point, co.n - 1) + co.fine_d * _geom_sum_derivative(point, co.n - 1)
    slope = (1.0 - 2.0 * point) * q + point * (1.0 - point) * q_prime
    if not abs(point * (1.0 - point) * q) <= EQUILIBRIUM_TOL + abs(slope) * ROOT_TOL:
        raise ValueError(f"x={point} is not an equilibrium of the selection gradient")
    if slope == 0.0:
        raise ValueError(f"marginal equilibrium at x={point}: dG/dx vanishes")
    return slope < 0.0
