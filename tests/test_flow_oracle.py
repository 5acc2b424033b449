"""Exact-solver tests, a cross-check against an independent assignment
solver, and the dominance property against the scaling solver."""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from rematch.flow_oracle import exact_ot_oracle
from rematch.transport import InfeasibleProblemError, SinkhornConfig, sinkhorn


def uniform(n):
    return np.full(n, 1.0 / n)


class TestExactOracle:
    def test_single_cell(self):
        res = exact_ot_oracle(np.array([[3.7]]), [1.0], [1.0], mass_scale=1)
        np.testing.assert_allclose(res.plan, [[1.0]])
        assert (res.plan * 3.7).sum() == pytest.approx(3.7)

    def test_identity_assignment_has_zero_cost(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        res = exact_ot_oracle(cost, uniform(2), uniform(2), mass_scale=2)
        assert (res.plan * cost).sum() == pytest.approx(0.0)
        np.testing.assert_allclose(res.plan, [[0.5, 0.0], [0.0, 0.5]])

    def test_respects_mask(self):
        cost = np.zeros((2, 2))
        mask = [[0, 1], [1, 0]]
        res = exact_ot_oracle(cost, uniform(2), uniform(2), mask, mass_scale=2)
        assert res.plan[0, 0] == 0.0 and res.plan[1, 1] == 0.0
        np.testing.assert_allclose(res.plan, [[0.0, 0.5], [0.5, 0.0]])

    def test_marginals_are_exact(self):
        rng = np.random.default_rng(4)
        cost = rng.uniform(-1, 1, (6, 4))
        p = np.array([1, 2, 3, 1, 2, 3], dtype=float) / 12
        q = np.array([3, 3, 3, 3], dtype=float) / 12
        res = exact_ot_oracle(cost, p, q, mass_scale=12)
        np.testing.assert_allclose(res.plan.sum(axis=1), p, atol=1e-15)
        np.testing.assert_allclose(res.plan.sum(axis=0), q, atol=1e-15)

    def test_rounding_imbalance_rejected(self):
        with pytest.raises(ValueError, match="imbalance"):
            exact_ot_oracle(np.zeros((2, 2)), [0.5, 0.5], [0.4, 0.4], mass_scale=10)

    @pytest.mark.parametrize("p, q, scale, side", [
        ([0.3, 0.7], [0.7, 0.3], 1, "p"),
        ([0.5, 0.5], [0.26, 0.74], 2, "q"),
        ([0.26, 0.74], [0.5, 0.5], 2, "p"),
    ])
    def test_masses_off_the_unit_grid_rejected(self, p, q, scale, side):
        # rounding these would silently solve a different problem
        with pytest.raises(ValueError, match=f"^{side} is not a multiple of 1/mass_scale"):
            exact_ot_oracle(np.zeros((2, 2)), p, q, mass_scale=scale)

    def test_unit_grid_tolerates_float_noise(self):
        p = np.full(3, 0.1) * 3 / 0.3 / 3
        assert np.all(p * 3 != 1.0)  # an ulp off the unit grid
        res = exact_ot_oracle(np.zeros((3, 3)), p, p, mass_scale=3)
        np.testing.assert_allclose(res.plan.sum(axis=1), 1 / 3, atol=1e-15)

    def test_unit_cap_rejected(self):
        with pytest.raises(ValueError, match="oracle is restricted to 256 mass units"):
            exact_ot_oracle(np.zeros((16, 16)), uniform(16), uniform(16),
                            mass_scale=17 * 16)

    def test_unit_cap_reached(self):
        # 16x16 at 16 units per side is the largest instance allowed
        i = np.arange(16)
        cost = np.outer(i, i) / 225.0
        res = exact_ot_oracle(cost, uniform(16), uniform(16), mass_scale=256)
        np.testing.assert_allclose(res.plan.sum(axis=1), uniform(16), atol=1e-15)
        # rows by decreasing index meet columns by increasing index
        np.testing.assert_allclose(res.plan, np.eye(16)[::-1] / 16)

    def test_costs_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="within"):
            exact_ot_oracle(np.array([[0.0, 1001.0], [0.0, 0.0]]), uniform(2),
                            uniform(2), mass_scale=2)

    def test_extreme_costs_stay_exact(self):
        # the widest costs allowed at the largest unit count: int64 must not
        # wrap; half-integer costs keep the reference's float sums exact
        rng = np.random.default_rng(3)
        cost = rng.integers(-2000, 2001, (16, 16)) / 2
        int_p = np.bincount(rng.integers(0, 16, 256), minlength=16)
        int_q = np.full(16, 16)
        plan = exact_ot_oracle(cost, int_p / 16, int_q / 16, mass_scale=16).plan
        assert (plan * cost).sum() == _assignment_optimum(cost, int_p, int_q) / 16

    def test_infeasible_mask_rejected(self):
        mask = [[1, 0], [0, 0]]
        with pytest.raises(InfeasibleProblemError):
            exact_ot_oracle(np.zeros((2, 2)), uniform(2), uniform(2), mask,
                            mass_scale=2)

    def test_oversized_instance_rejected(self):
        with pytest.raises(ValueError, match="16x16"):
            exact_ot_oracle(np.zeros((17, 17)), uniform(17), uniform(17),
                            mass_scale=17)

    def test_agrees_with_independent_assignment_solver(self):
        # 400 instances: side 1-16, mass_scale 1-12, costs U(-1, 1), 30% closed
        rng = np.random.default_rng(20)
        infeasible = 0
        for _ in range(400):
            m, n = rng.integers(1, 17, size=2)
            scale = int(rng.integers(1, 13))
            total = scale * int(rng.integers(1, 4))
            int_p = np.bincount(rng.integers(0, m, total), minlength=m)
            int_q = np.bincount(rng.integers(0, n, total), minlength=n)
            p, q = int_p / scale, int_q / scale
            cost = rng.uniform(-1, 1, (m, n))
            mask = rng.uniform(size=(m, n)) >= 0.3
            try:
                expected = _assignment_optimum(np.where(mask, cost, np.inf), int_p, int_q)
            except ValueError:
                with pytest.raises(InfeasibleProblemError):
                    exact_ot_oracle(cost, p, q, mask, mass_scale=scale)
                infeasible += 1
                continue
            plan = exact_ot_oracle(cost, p, q, mask, mass_scale=scale).plan
            assert (plan * cost).sum() == pytest.approx(expected / scale, rel=0, abs=1e-12)
            np.testing.assert_allclose(plan.sum(axis=1), p, rtol=0, atol=1e-15)
            np.testing.assert_allclose(plan.sum(axis=0), q, rtol=0, atol=1e-15)
            assert np.all(plan[~mask] == 0.0)
        assert 50 <= infeasible <= 200  # both verdicts are exercised

    def test_dominates_scaling_solver(self):
        # any feasible plan costs at least the LP optimum; at tiny
        # regularization the two objectives agree tightly
        cfg = SinkhornConfig(lam=0.001, max_iter=5000, tol=1e-9)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            cost = rng.uniform(0, 1, (4, 4))
            p = q = uniform(4)
            optimum = (exact_ot_oracle(cost, p, q, mass_scale=4).plan * cost).sum()
            approx = sinkhorn(cost, p, q, cfg=cfg)
            assert approx.converged
            objective = (approx.plan * cost).sum()
            assert objective >= optimum - 1e-9
            assert objective - optimum <= 1e-3


def _assignment_optimum(cost, int_p, int_q):
    """Optimal total cost of the unit-expanded assignment problem, found by
    scipy's solver (the oracle's objective times the mass scale)."""
    rows = np.repeat(np.arange(cost.shape[0]), np.asarray(int_p, dtype=int))
    cols = np.repeat(np.arange(cost.shape[1]), np.asarray(int_q, dtype=int))
    units = cost[np.ix_(rows, cols)]
    r, c = linear_sum_assignment(units)
    return units[r, c].sum()
