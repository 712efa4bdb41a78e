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
thresholds, for one model or for numpy arrays of ``f`` and ``r_p``.
:func:`classify_regime` classifies one model on Python floats and
:func:`classify_regimes` arrays of cells.  Both locate x* with one
bisection body of ``BISECTION_STEPS`` halvings, so every cell equals
the lone model bit for bit.  ``tests/test_exact_regimes.py`` checks the
regimes and roots against exact rational arithmetic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from math import ceil, comb, exp, isfinite, lgamma, log, log1p, log2
from typing import Callable, NamedTuple

import numpy as np

from .games import BriberyParams, GroupComposition, Model, ParameterError, core_of, group_payoff, is_cooperator

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
    ``KNIFE_EDGE_TOL`` of ``f_min`` or ``f_max``; sweeps and grids mark
    such a point ``knife_edge`` and carry this message as its note.
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


@dataclass(frozen=True)
class Thresholds:
    """Pool-multiplier pair bracketing the bistable window.

    ``f_max - f_min = n (n - 1) beta tau r_p / c`` in both model
    variants, so the pair collapses exactly when punishment is inert.
    """

    f_min: float
    f_max: float


def _check_x(x) -> None:
    lo, hi = (x.min(), x.max()) if isinstance(x, np.ndarray) else (x, x)
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
        n = model.core.n
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


def coefficients(model: Model, f=None, r_p=None) -> Coefficients:
    """The one definition of the Q coefficients and the thresholds.

    ``f`` and ``r_p`` replace the model's values when given; they may be
    numpy arrays, and the fields then broadcast elementwise with the same
    floating-point operations, in the same order, as for scalars.
    """
    core = core_of(model)
    n = core.n
    f = core.f if f is None else f
    r_p = core.r_p if r_p is None else r_p
    offset = bribery_offset(model)
    pressure = core.beta * core.tau * r_p
    fine_c = core.alpha * pressure
    fine_d = (1.0 - core.alpha) * pressure
    constant = f * core.c / n - core.c + offset + pressure - 2.0 * fine_c
    base = core.c - offset - pressure
    f_min = n * (base + 2.0 * fine_c - fine_d * (n - 1)) / core.c
    f_max = n * (base + fine_c * (n + 1)) / core.c
    return Coefficients(n, f, pressure, constant, fine_c, fine_d, f_min, f_max)


def _q_of(co: Coefficients) -> Callable:
    """The one body of Q: a closure over ``co`` for a float or a numpy array.

    Both Horner sums, S(1 - x) and S(x), run in one loop with the same
    operations in the same order as :func:`_geom_sum`, so a scalar and an
    array element get the same bits.
    """
    # one range object serves every call: building one per call (a builtin
    # lookup and call) took about a fifth of `integrate`'s time at n = 5
    constant, fine_c, fine_d, terms = co.constant, co.fine_c, co.fine_d, range(co.n - 1)

    def q(x):
        y = 1.0 - x
        s_c = s_d = 0.0
        for _ in terms:
            s_c = y * (1.0 + s_c)
            s_d = x * (1.0 + s_d)
        return constant - fine_c * s_c + fine_d * s_d

    return q


def _g_of(co: Coefficients) -> Callable:
    """The one body of G(x) = x (1 - x) Q(x): a closure over ``co``.

    It runs the Horner loop of :func:`_q_of` in its own frame and returns
    ``x * y * Q`` with ``y = 1 - x``, the operations and order of
    ``x * (1.0 - x) * q(x)``, so it gives the same bits with one call.
    """
    constant, fine_c, fine_d, terms = co.constant, co.fine_c, co.fine_d, range(co.n - 1)

    def g(x):
        y = 1.0 - x
        s_c = s_d = 0.0
        for _ in terms:
            s_c = y * (1.0 + s_c)
            s_d = x * (1.0 + s_d)
        return x * y * (constant - fine_c * s_c + fine_d * s_d)

    return g


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
    return _g_of(_finite_coefficients(model))(x)


def avg_payoff(model: Model, x: float, strategy: str) -> float:
    """Exact population-average payoff of a strategy at fraction ``x``.

    Closed form of the binomial mixture of the per-group payoffs over
    co-player compositions, finite at x = 0 and x = 1.
    """
    _check_x(x)
    cooperator = is_cooperator(strategy)
    core = core_of(model)
    n = core.n
    co = coefficients(model)
    if cooperator:
        # own-type leader share requires a cooperator co-player to exist,
        # hence the missing (1-x)^(n-1) mass
        fines = co.fine_c * (1.0 - (1.0 - x) ** (n - 1) + _geom_sum(1.0 - x, n - 1))
        value = (
            core.b
            + core.f * core.c * ((n - 1) * x + 1.0) / n
            - core.c
            - core.tau
            - fines
        )
    else:
        fines = co.fine_d * (1.0 - x ** (n - 1) + _geom_sum(x, n - 1))
        value = core.b + core.f * core.c * (n - 1) * x / n - core.tau - fines
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


def binomial_avg_payoff(model: Model, x: float, strategy: str) -> float:
    """Average payoff as an explicit binomial sum over compositions.

    Independent oracle for :func:`avg_payoff`: n_c among the n - 1
    co-players is Binomial(n - 1, x).
    """
    _check_x(x)
    n = core_of(model).n
    total = 0.0
    for n_c in range(n):
        try:
            weight = comb(n - 1, n_c) * x**n_c * (1.0 - x) ** (n - 1 - n_c)
        except OverflowError:  # the binomial coefficient exceeds a float
            weight = _log_space_weight(n - 1, n_c, x)
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


def _knife_edge(f: float, f_min: float, f_max: float) -> KnifeEdgeError | None:
    """The knife-edge rule of both classifiers: the error for ``f`` on ``f_min``, else ``f_max``, else None."""
    for threshold, name in ((f_min, "f_min"), (f_max, "f_max")):
        if _on_threshold(f, threshold):
            return KnifeEdgeError(f, threshold, name)
    return None


def classify_regime(model: Model) -> Regime:
    """Three-way phase-line classification of the model.

    Raises :class:`KnifeEdgeError` when ``f`` is within ``KNIFE_EDGE_TOL``
    of either threshold, and ``ValueError`` when a threshold is not
    finite.  When ``beta*tau*r_p = 0`` the thresholds coincide, Q is
    constant, and the result carries ``degenerate=True``.
    """
    co = _finite_coefficients(model)
    f, f_min, f_max = co.f, co.f_min, co.f_max
    edge = _knife_edge(f, f_min, f_max)
    if edge is not None:
        raise edge
    degenerate = co.pressure == 0.0
    if f < f_min:
        return Regime(RegimeKind.DEFECTION_DOMINANT, degenerate=degenerate)
    if f > f_max:
        return Regime(RegimeKind.COOPERATION_DOMINANT, degenerate=degenerate)
    return Regime(RegimeKind.BISTABLE, x_star=_bisect(co))


class Regimes(NamedTuple):
    """Classification of many (f, r_p) cells, as arrays of one shape.

    ``token`` holds the regime token, or ``KNIFE_EDGE`` where
    :func:`classify_regime` raises :class:`KnifeEdgeError`; ``x_star`` is
    NaN unless bistable and ``basin`` is NaN on a knife edge.  ``notes``
    maps each knife-edge cell's index tuple to that error's text.
    """

    token: np.ndarray
    x_star: np.ndarray
    basin: np.ndarray
    notes: dict[tuple[int, ...], str]


def classify_regimes(model: Model, f=None, r_p=None) -> Regimes:
    """:func:`classify_regime` and the basin over arrays of ``f`` and ``r_p``.

    ``f`` and ``r_p`` replace the model's values and broadcast against
    each other (pass ``f[:, None]`` and ``r_p[None, :]`` for a grid).
    Every cell equals the scalar result bit for bit.  Raises the record's
    ``ParameterError`` at the first cell it refuses, and ``ValueError``
    when any threshold is not finite.
    """
    for name, values in (("f", f), ("r_p", r_p)):
        # the record's bounds: finite, f > 0, r_p >= 0
        bad = values is not None and ~(np.isfinite(values) & (values > 0 if name == "f" else values >= 0))
        if np.any(bad):
            index = int(np.argmax(bad))
            try:
                replace(core_of(model), **{name: float(np.ravel(values)[index])})
            except ParameterError as err:
                raise ParameterError(f"{err} (index {index} of {name})") from None
    with np.errstate(over="ignore", invalid="ignore"):
        co = coefficients(model, f, r_p)
    f, f_min, f_max = np.broadcast_arrays(co.f, co.f_min, co.f_max)
    finite = np.isfinite(f_min) & np.isfinite(f_max)
    if not finite.all():
        index = np.argmin(finite)
        raise _non_finite(f_min.flat[index], f_max.flat[index])
    token = np.where(
        f < f_min,
        RegimeKind.DEFECTION_DOMINANT.value,
        np.where(f > f_max, RegimeKind.COOPERATION_DOMINANT.value, RegimeKind.BISTABLE.value),
    )
    knife_edge = _on_threshold(f, f_min) | _on_threshold(f, f_max)
    token[knife_edge] = KNIFE_EDGE
    cells = [tuple(map(int, index)) for index in np.argwhere(knife_edge)]  # nonzero refuses a 0-d mask
    notes = {cell: str(_knife_edge(f.item(cell), f_min.item(cell), f_max.item(cell))) for cell in cells}
    bistable = token == RegimeKind.BISTABLE.value
    # only bistable cells have a root: bisect those lanes, each independent of the others
    x_star = np.full(bistable.shape, np.nan)
    x_star[bistable] = _bisect(co._replace(
        constant=np.broadcast_to(co.constant, bistable.shape)[bistable],
        fine_c=np.broadcast_to(co.fine_c, bistable.shape)[bistable],
        fine_d=np.broadcast_to(co.fine_d, bistable.shape)[bistable],
    ))
    basin = np.where(
        token == RegimeKind.DEFECTION_DOMINANT.value,
        0.0,
        np.where(token == RegimeKind.COOPERATION_DOMINANT.value, 1.0, 1.0 - x_star),
    )
    return Regimes(token, x_star, basin, notes)


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
