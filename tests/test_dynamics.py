"""Replicator integration and basin-of-attraction values."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from helpers import draw_bistable_instance, horner_q

from pgg_bribery import (
    CoreParams,
    KnifeEdgeError,
    RegimeKind,
    RngSeed,
    basin_of_cooperation,
    classify_regime,
    coefficients,
    integrate,
    interior_root,
    thresholds,
)
from pgg_bribery.cli import main
from pgg_bribery.config import ConfigError, RunConfig, config_from_pairs
from pgg_bribery.dynamics import DEFAULT_CONV_TOL, DEFAULT_STEP, DEFAULT_T_MAX
from pgg_bribery.montecarlo import generator
from pgg_bribery.presets import (
    BG_DEFECTOR_BRIBES_BASE,
    IPGG_BISTABLE,
    IPGG_RICH_POOL,
    IPGG_WEAK_POOL,
    REGIMES,
)


def reference_g(model):
    """G(x) = x(1-x)Q(x) on the test's own unchecked Horner loop: a large step takes the stages outside [0, 1]."""
    q = horner_q(coefficients(model))
    return lambda x: x * (1.0 - x) * q(x)


def rk4_update(g, x, step):
    """One classical RK4 update from ``x``, k1 evaluated afresh, before the clamp."""
    k1 = g(x)
    k2 = g(x + 0.5 * step * k1)
    k3 = g(x + 0.5 * step * k2)
    k4 = g(x + step * k3)
    return x + step * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


def reference_integrate(model, x0, step=DEFAULT_STEP):
    """Classical RK4 with five evaluations of G per step and a min/max clamp."""
    g = reference_g(model)
    x = float(x0)
    times, states = [0.0], [x]
    converged = abs(g(x)) < DEFAULT_CONV_TOL
    steps_taken = 0
    while not converged and steps_taken < int(np.ceil(DEFAULT_T_MAX / step)):
        x = min(1.0, max(0.0, rk4_update(g, x, step)))
        steps_taken += 1
        times.append(steps_taken * step)
        states.append(x)
        converged = abs(g(x)) < DEFAULT_CONV_TOL
    converged_to = None
    if converged:
        try:
            regime = classify_regime(model)
        except KnifeEdgeError:
            regime = None
        equilibria = [0.0, 1.0]
        if regime is not None and regime.kind is RegimeKind.BISTABLE:
            equilibria.append(regime.x_star)
        converged_to = min(equilibria, key=lambda e: abs(e - x))
    return times, states, converged_to


def _bistable_draws():
    rng = generator(RngSeed(2718, 0))
    return [draw_bistable_instance(rng, bribery=case % 2 == 1) for case in range(10)]


def _wide_group(n):
    core = CoreParams(n=n, b=12, c=1, tau=1, f=3, alpha=0.3, beta=0.2, r_p=0.2)
    th = thresholds(core)
    return replace(core, f=0.5 * (th.f_min + th.f_max))


RK4_CASES = (
    [(name, model, x0) for name, model in REGIMES.items() for x0 in (0.05, 0.5, 0.95)]
    + [(f"draw{i}", model, x_star + offset) for i, (model, x_star) in enumerate(_bistable_draws())
       for offset in (-0.02, 0.02)]
    # n = 92 puts 90 Horner turns, the most one expression holds, in each of the loop's sums; n = 93 chains one more
    + [(f"n{n}", _wide_group(n), x0) for n in (2, 3, 8, 40, 92, 93) for x0 in (0.5, 0.95)]
)


class TestIntegrate:
    def test_stays_on_the_empty_boundary(self):
        trajectory = integrate(IPGG_BISTABLE, 0.0)
        assert np.all(trajectory.states == 0.0)
        assert trajectory.converged_to == 0.0

    def test_above_the_separatrix_reaches_full_cooperation(self):
        trajectory = integrate(IPGG_BISTABLE, 0.9)
        assert trajectory.converged_to == 1.0

    def test_below_the_separatrix_reaches_full_defection(self):
        trajectory = integrate(IPGG_BISTABLE, 0.5)
        assert trajectory.converged_to == 0.0

    def test_started_at_the_interior_equilibrium_stays(self):
        x_star = interior_root(IPGG_BISTABLE)
        trajectory = integrate(IPGG_BISTABLE, x_star)
        assert trajectory.converged_to == pytest.approx(x_star, abs=1e-9)
        assert len(trajectory.states) == 1

    def test_trajectories_are_monotone_and_respect_the_separatrix(self):
        rng = generator(RngSeed(314, 0))
        for case in range(20):
            model, x_star = draw_bistable_instance(rng, bribery=case % 2 == 1)
            up = integrate(model, x_star + 0.01, step=0.05, t_max=2e4)
            down = integrate(model, x_star - 0.01, step=0.05, t_max=2e4)
            assert up.converged_to == 1.0
            assert down.converged_to == 0.0
            assert np.all(np.diff(up.states) >= 0)
            assert np.all(np.diff(down.states) <= 0)
            assert np.all(up.states > x_star)
            assert np.all(down.states < x_star)

    def test_times_strictly_increase(self):
        trajectory = integrate(IPGG_BISTABLE, 0.9)
        assert np.all(np.diff(trajectory.times) > 0)

    def test_unconverged_run_has_no_label(self):
        trajectory = integrate(IPGG_BISTABLE, 0.5, t_max=0.1)
        assert trajectory.converged_to is None

    @pytest.mark.parametrize("name, x0", [("ipgg_rich_pool", 0.95), ("bg_bistable", 0.05)])
    def test_a_step_that_leaves_the_unit_interval_is_refused(self, name, x0, tmp_path, capsys):
        model, step = REGIMES[name], 2.0
        # the first update overshoots [0, 1]: a clamp would make it a boundary equilibrium
        assert not 0.0 <= rk4_update(reference_g(model), x0, step) <= 1.0
        with pytest.raises(ValueError, match=r"^step 1 \(t = 2\) left \[0, 1\]"):
            integrate(model, x0, step=step)
        argv = ["integrate", "--x0", repr(x0), "--out", str(tmp_path)]
        for key, value in RunConfig(model, step=step).metadata_items():
            argv += ["--set", f"{key}={value}"]
        assert main(argv) == 1
        assert "step 1 (t = 2) left [0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_an_unconverged_run_holds_under_40_bytes_per_step(self):
        # Q is constant at beta = 0, and no |G| falls below 1e-300 within t_max
        model = replace(IPGG_WEAK_POOL, beta=0.0)
        tracemalloc.start()
        try:
            trajectory = integrate(model, 0.5, step=1e-4, t_max=2.0, conv_tol=1e-300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        steps = len(trajectory.states) - 1
        assert trajectory.converged_to is None and steps >= 20_000
        assert peak / steps < 40

    @pytest.mark.parametrize(
        "kwargs",
        [dict(x0=1.5), dict(x0=0.5, step=0.0), dict(x0=0.5, t_max=-1), dict(x0=0.5, conv_tol=0.0)],
    )
    def test_precondition_errors(self, kwargs):
        with pytest.raises(ValueError):
            integrate(IPGG_BISTABLE, **kwargs)

    @pytest.mark.parametrize("key", ["step", "conv_tol"])
    def test_non_finite_controls_are_refused_as_the_config_refuses_them(self, key):
        message = f"{key} must be finite and > 0, got inf"
        with pytest.raises(ValueError, match=f"^{message}$"):
            integrate(IPGG_BISTABLE, 0.5, **{key: math.inf})
        pairs = {name: (value, None) for name, value in RunConfig(IPGG_BISTABLE).metadata_items()}
        with pytest.raises(ConfigError, match=f"^{message}$"):
            config_from_pairs({**pairs, key: ("inf", None)})


class TestReferenceLoop:
    @pytest.mark.parametrize("step", [DEFAULT_STEP, 0.05])
    @pytest.mark.parametrize("name, model, x0", RK4_CASES, ids=[f"{c[0]}-{c[2]:.3g}" for c in RK4_CASES])
    def test_integrate_is_bit_identical_to_the_five_evaluation_loop(self, name, model, x0, step):
        times, states, converged_to = reference_integrate(model, x0, step=step)
        trajectory = integrate(model, x0, step=step)
        assert trajectory.times.tobytes() == np.array(times).tobytes()
        assert trajectory.states.tobytes() == np.array(states).tobytes()
        assert trajectory.converged_to == converged_to


class TestBasin:
    def test_defection_dominant_basin_is_empty(self):
        assert basin_of_cooperation(IPGG_WEAK_POOL) == 0.0

    def test_bistable_basin_complements_the_root(self):
        basin = basin_of_cooperation(IPGG_BISTABLE)
        assert 0.21 < basin < 0.22
        assert basin == pytest.approx(1.0 - interior_root(IPGG_BISTABLE), abs=1e-15)

    def test_cooperation_dominant_basin_is_everything(self):
        assert basin_of_cooperation(IPGG_RICH_POOL) == 1.0

    def test_degenerate_models_still_report(self):
        inert = replace(IPGG_WEAK_POOL, beta=0.0)
        assert basin_of_cooperation(inert) == 0.0
        assert basin_of_cooperation(replace(inert, f=6.0)) == 1.0

    def test_knife_edge_propagates(self):
        edge = replace(BG_DEFECTOR_BRIBES_BASE, f=thresholds(BG_DEFECTOR_BRIBES_BASE).f_min)
        with pytest.raises(KnifeEdgeError):
            basin_of_cooperation(edge)
