"""Sweep monotonicity, regime transitions and the basin grids."""

from dataclasses import replace

import numpy as np
import pytest

from helpers import grid_regimes, sweep_regimes
from pgg_bribery import (
    KnifeEdgeError,
    RegimeKind,
    bribery_offset,
    classify_regime,
    interior_root,
    regime_grid,
    sweep_root,
    thresholds,
)
from pgg_bribery.presets import BG_COOP_BRIBES, BG_DEFECTOR_BRIBES_BASE, IPGG_BISTABLE, IPGG_WEAK_POOL


def bistable_roots(result):
    regimes = sweep_regimes(result)
    bistable = regimes.token == "bistable"
    return result.points[bistable].tolist(), regimes.x_star[bistable].tolist()


class TestRootSweeps:
    def test_root_decreases_with_the_pool_multiplier(self):
        result = sweep_root(IPGG_WEAK_POOL, "f", 2.25, 7.75, 50)
        values, roots = bistable_roots(result)
        assert len(values) == 50
        assert all(b < a for a, b in zip(roots, roots[1:]))

    def test_root_decreases_with_punishment_when_the_pool_is_poor(self):
        result = sweep_root(IPGG_BISTABLE, "r_p", 1.1, 5.0, 50)
        _, roots = bistable_roots(result)
        assert len(roots) == 50
        assert all(b < a for a, b in zip(roots, roots[1:]))

    def test_root_increases_with_punishment_when_the_pool_is_rich(self):
        # q > p raises the offset enough that f = 4.5 flips the sign of
        # f*c/n - c + offset, and with it the response of x* to r_p
        model = replace(BG_DEFECTOR_BRIBES_BASE, f=4.5)
        result = sweep_root(model, "r_p", 0.5, 4.0, 50)
        _, roots = bistable_roots(result)
        assert len(roots) == 50
        assert all(b > a for a, b in zip(roots, roots[1:]))

    def test_root_approaches_zero_toward_the_upper_threshold(self):
        th = thresholds(IPGG_WEAK_POOL)
        result = sweep_root(IPGG_WEAK_POOL, "f", th.f_min + 0.05, th.f_max - 1e-3, 80)
        _, roots = bistable_roots(result)
        assert roots[-1] < 0.01
        assert roots[0] > 0.97

    def test_finite_difference_sign_rule(self):
        # sign(dx*/dr_p) equals sign of the punishment-free constant
        # f*c/n - c + bribery offset
        for model, f in ((BG_DEFECTOR_BRIBES_BASE, 2.0), (BG_DEFECTOR_BRIBES_BASE, 4.5), (BG_COOP_BRIBES, 2.0)):
            swept = replace(model, f=f)
            constant = f * swept.c / swept.n - swept.c + bribery_offset(swept)
            lo = interior_root(replace(swept, r_p=3.0))
            hi = interior_root(replace(swept, r_p=3.0 + 1e-4))
            assert np.sign(hi - lo) == np.sign(constant)

    def test_transitions_happen_once_each_at_the_thresholds(self):
        th = thresholds(IPGG_WEAK_POOL)
        lo, hi, steps = 1.0, 9.0, 161
        result = sweep_root(IPGG_WEAK_POOL, "f", lo, hi, steps)
        token = sweep_regimes(result).token
        kinds = [cell for cell in token if cell != "knife_edge"]
        tokens = "".join(
            {"defection_dominant": "D", "bistable": "B", "cooperation_dominant": "C"}[k]
            for k in kinds
        )
        assert tokens == "D" * tokens.count("D") + "B" * tokens.count("B") + "C" * tokens.count("C")
        cell = (hi - lo) / (steps - 1)
        first_b = result.points[np.argmax(token == RegimeKind.BISTABLE.value)]
        first_c = result.points[np.argmax(token == RegimeKind.COOPERATION_DOMINANT.value)]
        assert abs(first_b - th.f_min) <= cell + 1e-9
        assert abs(first_c - th.f_max) <= cell + 1e-9

    def test_root_present_exactly_when_bistable(self):
        result = sweep_root(IPGG_WEAK_POOL, "f", 1.0, 9.0, 33)
        regimes = sweep_regimes(result)
        for f, token, x_star in zip(result.points, regimes.token, regimes.x_star):
            if token == "knife_edge":
                with pytest.raises(KnifeEdgeError):
                    classify_regime(replace(IPGG_WEAK_POOL, f=f))
                continue
            assert (not np.isnan(x_star)) == (token == RegimeKind.BISTABLE.value)

    def test_knife_edge_points_are_carried_not_fatal(self):
        th = thresholds(IPGG_WEAK_POOL)
        result = sweep_root(IPGG_WEAK_POOL, "f", th.f_min, th.f_max, 3)
        token, _, basin = sweep_regimes(result)
        assert token.tolist() == ["knife_edge", RegimeKind.BISTABLE.value, "knife_edge"]
        assert np.isnan(basin[[0, 2]]).all() and not np.isnan(basin[1])
        for f, name in ((result.points[0], "f_min"), (result.points[2], "f_max")):
            with pytest.raises(KnifeEdgeError, match=f"of {name}="):
                classify_regime(replace(IPGG_WEAK_POOL, f=f))

    def test_grid_is_strictly_increasing(self):
        result = sweep_root(IPGG_WEAK_POOL, "f", 2.5, 7.0, 10)
        values = result.points.tolist()
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_bounds_are_validated(self):
        with pytest.raises(ValueError):
            sweep_root(IPGG_WEAK_POOL, "f", 5.0, 2.0, 10)
        with pytest.raises(ValueError):
            sweep_root(IPGG_WEAK_POOL, "f", 2.0, 5.0, 1)
        for name in ("x", "beta"):  # beta is a field of the record, but not a sweep axis
            with pytest.raises(ValueError, match="swept parameter must be 'f' or 'r_p'"):
                sweep_root(IPGG_WEAK_POOL, name, 0.1, 0.5, 10)


class TestRegimeGrid:
    def test_cell_count_and_axes(self):
        grid = regime_grid(BG_DEFECTOR_BRIBES_BASE, 2.0, 4.0, 2.5, 4.0, 3, 4)
        assert len(grid.f_values) == 3 and len(grid.rp_values) == 4
        token, x_star, basin = grid_regimes(grid)
        assert token.shape == basin.shape == x_star.shape == (3, 4)

    def test_basin_sign_flip_between_poor_and_rich_pools(self):
        grid = regime_grid(BG_DEFECTOR_BRIBES_BASE, 2.0, 4.0, 2.5, 4.0, 2, 2)
        cells = grid_regimes(grid).basin
        basin = {
            (f, r_p): cells[i, j]
            for i, f in enumerate(grid.f_values)
            for j, r_p in enumerate(grid.rp_values)
        }
        assert basin[(2.0, 4.0)] > basin[(2.0, 2.5)] + 1e-6
        assert basin[(4.0, 4.0)] < basin[(4.0, 2.5)] - 1e-6

    def test_rich_pool_rows_are_fully_cooperative(self):
        # above f_max for every r_p in the window: basin saturates at 1
        regimes = grid_regimes(regime_grid(IPGG_BISTABLE, 20.0, 30.0, 1.0, 2.0, 3, 3))
        assert (regimes.token == RegimeKind.COOPERATION_DOMINANT.value).all()
        assert (regimes.basin == 1.0).all()
