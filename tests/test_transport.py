"""Solver contract tests: masked scaling, the virtual-node reduction, and
plan normalization."""

import hashlib
import importlib.util
import re
import sys
import types
from unittest import mock

import numpy as np
import pytest
import scipy.special
from hypothesis import assume, example, given, settings, strategies as st

from rematch.transport import (
    InfeasibleProblemError,
    SinkhornConfig,
    _logsumexp,
    _newton_direction,
    default_xi,
    extend_partial,
    marginal_violation,
    normalize_plan,
    partial_ot,
    sinkhorn,
)
from rematch.flow_oracle import exact_ot_oracle
from rematch.losses import _Workspace
import rematch.transport as transport
from lp_oracle import lp_optimum, round_balanced, round_partial
from pinned import PINS, assert_pinned


def uniform(n):
    return np.full(n, 1.0 / n)


CFG_TIGHT = SinkhornConfig(lam=0.02, max_iter=20000, tol=1e-10)


def newton_system(rng, m, n, low, high):
    """A damped Newton system of the marginal map at a random plan.

    The plan is masked and partly empty: about a fifth of its rows and
    columns carry no mass, and its free rows and columns miss marginals that
    are their own sums scaled by U(low, high). Returns ``(block, rows, cols,
    res_r, res_c)`` on the free rows and columns, the undamped Jacobian
    built densely, and the damping the solver would use.
    """
    cost = rng.uniform(0, 1, (m, n))
    mask = rng.uniform(size=(m, n)) > 0.3
    mask[:, 0] = mask[0, :] = True
    log_a = rng.normal(size=m)
    log_b = rng.normal(size=n)
    log_a[rng.uniform(size=m) < 0.2] = -np.inf
    log_b[rng.uniform(size=n) < 0.2] = -np.inf
    log_a[0] = log_b[0] = 0.0
    plan = np.exp(log_a[:, None] + np.where(mask, -cost / 0.1, -np.inf)
                  + log_b[None, :])
    p = plan.sum(axis=1) * rng.uniform(low, high, m) * np.isfinite(log_a)
    q = plan.sum(axis=0) * rng.uniform(low, high, n) * np.isfinite(log_b)
    q *= p.sum() / q.sum()
    free_r = np.flatnonzero(p > 0)
    free_c = np.flatnonzero(q > 0)
    block = plan[np.ix_(free_r, free_c)]
    rows, cols = plan.sum(axis=1)[free_r], plan.sum(axis=0)[free_c]
    res_r, res_c = rows - p[free_r], cols - q[free_c]
    damping = 1e-12 * max(rows.max(), cols.max())

    k, nr = free_r.size + free_c.size, free_r.size
    jac = np.zeros((k, k))
    jac[:nr, :nr] = np.diag(rows)
    jac[:nr, nr:] = block
    jac[nr:, :nr] = block.T
    jac[nr:, nr:] = np.diag(cols)
    return (block, rows, cols, res_r, res_c), jac, damping


class TestSinkhorn:
    def test_zero_cost_gives_product_measure(self):
        res = sinkhorn(np.zeros((2, 2)), [0.5, 0.5], [0.5, 0.5],
                       cfg=SinkhornConfig(lam=0.3))
        assert res.converged
        np.testing.assert_allclose(res.plan, np.full((2, 2), 0.25), atol=1e-12)

    def test_diagonal_mask_forces_antidiagonal(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        mask = [[0, 1], [1, 0]]
        res = sinkhorn(cost, [0.5, 0.5], [0.5, 0.5], mask,
                       SinkhornConfig(lam=0.1))
        assert res.converged
        np.testing.assert_allclose(res.plan, [[0.0, 0.5], [0.5, 0.0]], atol=1e-12)
        assert res.plan[0, 0] == 0.0 and res.plan[1, 1] == 0.0

    def test_small_regularization_reaches_lp_optimum(self):
        # independent check: exact min-cost flow on the same instance
        cfg = SinkhornConfig(lam=0.001, max_iter=5000, tol=1e-9)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            cost = rng.uniform(0, 1, (3, 3))
            res = sinkhorn(cost, uniform(3), uniform(3), cfg=cfg)
            assert res.converged
            optimum = (exact_ot_oracle(cost, uniform(3), uniform(3),
                                       mass_scale=3).plan * cost).sum()
            assert (res.plan * cost).sum() <= optimum + 1e-3

    def test_marginals_match_at_convergence(self):
        rng = np.random.default_rng(11)
        cost = rng.uniform(0, 2, (5, 7))
        p = rng.uniform(0.1, 1, 5)
        q = rng.uniform(0.1, 1, 7)
        q *= p.sum() / q.sum()
        res = sinkhorn(cost, p, q, cfg=SinkhornConfig(lam=0.1, tol=1e-9))
        assert res.converged
        assert marginal_violation(res.plan, p, q) <= 1e-9

    @pytest.mark.parametrize("side", ["p", "q"])
    def test_marginal_violation_is_nan_when_a_marginal_is(self, side):
        # Python's max dropped a NaN that came second, so a NaN in q read 0.0
        marginals = {"p": [0.5, 0.5], "q": [0.5, 0.5]}
        marginals[side] = [np.nan, 0.5]
        assert np.isnan(marginal_violation(np.eye(2) / 2, marginals["p"], marginals["q"]))

    @pytest.mark.parametrize("p,q", [([1.0], [0.5, 0.5, 0.5]), ([0.5, 0.5, 0.5], [1.0]),
                                     ([0.5], [0.5, 0.5])])
    def test_marginal_violation_rejects_marginals_of_other_lengths(self, p, q):
        with pytest.raises(ValueError):
            marginal_violation(np.eye(2) / 2, p, q)

    def test_iteration_cap_respected(self):
        rng = np.random.default_rng(0)
        cost = rng.uniform(0, 1, (4, 4))
        res = sinkhorn(cost, uniform(4), uniform(4),
                       cfg=SinkhornConfig(lam=0.001, max_iter=3, tol=1e-12))
        assert not res.converged
        assert res.iterations == 3

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            sinkhorn(np.zeros((2, 3)), [0.5, 0.5], [0.5, 0.5],
                     cfg=SinkhornConfig(lam=0.1))

    def test_mass_imbalance_rejected(self):
        with pytest.raises(ValueError, match="imbalance"):
            sinkhorn(np.zeros((2, 2)), [0.5, 0.5], [0.5, 0.6],
                     cfg=SinkhornConfig(lam=0.1))

    def test_fully_masked_row_with_mass_is_infeasible(self):
        mask = np.array([[0, 0], [1, 1]])
        with pytest.raises(InfeasibleProblemError):
            sinkhorn(np.zeros((2, 2)), [0.5, 0.5], [0.5, 0.5], mask,
                     SinkhornConfig(lam=0.1))

    def test_nonbinary_mask_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            sinkhorn(np.zeros((2, 2)), [0.5, 0.5], [0.5, 0.5],
                     [[0.5, 1], [1, 1]], SinkhornConfig(lam=0.1))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_mask_annihilation_is_exact(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        cost = rng.uniform(0, 1, (n, n))
        mask = np.ones((n, n), dtype=int)
        np.fill_diagonal(mask, 0)
        res = sinkhorn(cost, uniform(n), uniform(n), mask,
                       SinkhornConfig(lam=0.1, tol=1e-8))
        assert np.all(res.plan[mask == 0] == 0.0)

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(5)
        cost = rng.uniform(0, 1, (6, 6))
        mask = (rng.uniform(size=(6, 6)) > 0.2).astype(int)
        mask |= np.eye(6, dtype=int)  # keep it feasible
        args = (cost, uniform(6), uniform(6), mask, SinkhornConfig(lam=0.03))
        first = sinkhorn(*args)
        second = sinkhorn(*args)
        assert np.array_equal(first.plan, second.plan)
        assert first.iterations == second.iterations

    def test_objective_gap_shrinks_monotonically_with_regularization(self):
        rng = np.random.default_rng(3)
        cost = rng.uniform(0, 1, (5, 5))
        p = q = uniform(5)
        optimum = (exact_ot_oracle(cost, p, q, mass_scale=5).plan * cost).sum()
        objectives = []
        entropies = []
        for lam in (0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001):
            res = sinkhorn(cost, p, q,
                           cfg=SinkhornConfig(lam=lam, max_iter=20000, tol=1e-10))
            assert res.converged
            obj = (res.plan * cost).sum()
            assert obj >= optimum - 1e-9
            positive = res.plan[res.plan > 0]
            objectives.append(obj)
            entropies.append(-(positive * np.log(positive)).sum())
        for earlier, later in zip(objectives, objectives[1:]):
            assert later <= earlier + 1e-10
        for earlier, later in zip(entropies, entropies[1:]):
            assert later <= earlier + 1e-10


def multiplicative_sinkhorn(cost, p, q, mask, lam, tol):
    """Textbook alternating scaling of ``mask * exp(-cost / lam)``."""
    kernel = np.where(mask, np.exp(-cost / lam), 0.0)
    b = np.ones(q.shape[0])
    for _ in range(100000):
        a = p / (kernel @ b)
        b = q / (kernel.T @ a)
        plan = a[:, None] * kernel * b[None, :]
        if marginal_violation(plan, p, q) <= tol:
            return plan
    raise AssertionError("reference scaling did not converge")


class TestScalingRegime:
    """lam >= 0.05, where the kernel cannot underflow for O(1) costs."""

    @pytest.mark.parametrize("lam", [0.05, 0.1, 0.3])
    def test_plans_match_multiplicative_scaling(self, lam):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            m, n = int(rng.integers(3, 9)), int(rng.integers(3, 9))
            cost = rng.uniform(0, 1, (m, n))
            mask = (rng.uniform(size=(m, n)) > 0.3).astype(int)
            mask[np.arange(m), np.arange(m) % n] = 1  # every row keeps a cell
            mask[np.arange(n) % m, np.arange(n)] = 1  # every column too
            p = rng.uniform(0.1, 1, m)
            q = rng.uniform(0.1, 1, n)
            q *= p.sum() / q.sum()
            cfg = SinkhornConfig(lam=lam, max_iter=20000, tol=1e-12)
            res = sinkhorn(cost, p, q, mask, cfg)
            assert res.converged
            assert marginal_violation(res.plan, p, q) <= cfg.tol
            assert np.all(res.plan[mask == 0] == 0.0)
            reference = multiplicative_sinkhorn(cost, p, q, mask, lam, 1e-13)
            np.testing.assert_allclose(res.plan, reference, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("lam", [0.05, 0.1, 0.3])
    def test_extended_partial_plans_hold_marginals(self, lam):
        # at this regularization the entropic optimum leaves some of the
        # budget on the virtual corner, so the check is on the marginals of
        # the extended problem rather than on the block total
        rng = np.random.default_rng(int(lam * 100))
        n = 12
        cost = rng.uniform(0, 1, (n, n))
        mask = 1 - np.eye(n, dtype=int)
        cfg = SinkhornConfig(lam=lam, max_iter=20000, tol=1e-10)
        cost_ext, p_ext, q_ext, mask_ext = extend_partial(
            cost, uniform(n), uniform(n), mask, rho=0.3)
        res = sinkhorn(cost_ext, p_ext, q_ext, mask_ext, cfg)
        assert res.converged
        assert marginal_violation(res.plan, p_ext, q_ext) <= cfg.tol
        block = partial_ot(cost, uniform(n), uniform(n), mask, rho=0.3, cfg=cfg).plan
        np.testing.assert_array_equal(block, res.plan[:n, :n])
        assert np.all(block[mask == 0] == 0.0)


# Iterations of the criterion-1 solves (4x4, lam 0.001, seeds 0-99), 1,102 in
# all. These near-permutation solves converge linearly once the plan's support
# is right, and the tail rule of transport._newton_step extrapolates through
# that stretch. The counts before the rule, 2,253 in all, stay beside them: a
# change to the solver may lower an instance's count, but none may raise it.
CRITERION_1_ITERATIONS = [
    10, 14, 16, 12, 16, 37, 1, 8, 8, 8, 12, 8, 8, 11, 8, 1, 12, 10, 8, 20,
    9, 8, 8, 8, 12, 12, 11, 11, 1, 11, 7, 17, 8, 17, 8, 1, 10, 9, 8, 13,
    8, 12, 11, 1, 11, 8, 30, 8, 8, 18, 15, 13, 8, 13, 19, 12, 19, 8, 8, 8,
    8, 23, 10, 8, 17, 3, 13, 7, 8, 1, 8, 8, 8, 14, 11, 15, 16, 8, 16, 10,
    12, 16, 15, 26, 8, 8, 1, 1, 8, 17, 8, 12, 29, 18, 11, 8, 8, 8, 10, 11,
]
CRITERION_1_ITERATIONS_PLAIN_NEWTON = [
    24, 24, 24, 26, 30, 44, 1, 22, 21, 22, 26, 22, 21, 25, 21, 1, 26, 24, 22, 34,
    21, 21, 20, 21, 26, 25, 25, 26, 1, 24, 7, 32, 21, 25, 22, 1, 24, 21, 21, 27,
    22, 26, 25, 1, 25, 21, 41, 21, 21, 32, 29, 27, 22, 27, 27, 26, 33, 21, 22, 21,
    21, 37, 25, 21, 27, 6, 27, 14, 21, 1, 21, 21, 21, 23, 24, 29, 25, 21, 30, 12,
    26, 27, 30, 34, 21, 22, 1, 1, 22, 29, 21, 26, 37, 32, 24, 22, 21, 21, 24, 24,
]


def recording_newton_steps(steps):
    """``transport._newton_step``, appending ``(worst violation before, after)``
    of every step to ``steps``; ``after`` is None on a stall."""
    newton_step = transport._newton_step

    def fit_in(values):
        return next(value for value in values if isinstance(value, transport._Fit))

    def record(*args):
        result = newton_step(*args)
        steps.append((fit_in(args).worst, None if result is None else fit_in(result).worst))
        return result

    return record


def count_realized(monkeypatch):
    """Count the plans the solver realizes from here on: every sweep and
    Newton step realizes one, each rejected line-search trial and each
    extrapolation trial another."""
    realized = []
    realize = transport._realize
    monkeypatch.setattr(transport, "_realize",
                        lambda *args: realized.append(1) or realize(*args))
    return realized


class TestSolverInternals:
    def test_criterion_1_iterations_pinned(self):
        cfg = SinkhornConfig(lam=0.001, max_iter=5000, tol=1e-9)
        iterations = []
        for seed in range(100):
            cost = np.random.default_rng(seed).uniform(0, 1, (4, 4))
            iterations.append(sinkhorn(cost, uniform(4), uniform(4), cfg=cfg).iterations)
        assert iterations == CRITERION_1_ITERATIONS
        assert all(new <= old for new, old in
                   zip(iterations, CRITERION_1_ITERATIONS_PLAIN_NEWTON))

    def test_training_shaped_iterations_pinned(self):
        rng = np.random.default_rng(0)
        n = 128
        res = partial_ot(rng.uniform(0.5, 1.5, (n, n)), uniform(n), uniform(n),
                         1 - np.eye(n, dtype=int), rho=0.1,
                         cfg=SinkhornConfig(lam=0.01, max_iter=3000, tol=1e-6))
        assert res.iterations == 6

    def test_training_shaped_solve_converges_in_few_iterations(self):
        # the rematching solve of one batch: 128 pairs, own pairs closed
        rng = np.random.default_rng(0)
        n, rho = 128, 0.1
        cost = rng.uniform(0.5, 1.5, (n, n))
        mask = 1 - np.eye(n, dtype=int)
        cfg = SinkhornConfig(lam=0.01, max_iter=3000, tol=1e-6)
        res = partial_ot(cost, uniform(n), uniform(n), mask, rho=rho, cfg=cfg)
        assert res.converged
        assert res.iterations <= 10
        assert abs(res.plan.sum() - rho) < 1e-4
        assert np.all(res.plan.sum(axis=1) <= uniform(n) + cfg.tol)
        assert np.all(res.plan.sum(axis=0) <= uniform(n) + cfg.tol)
        assert np.all(res.plan[mask == 0] == 0.0)

    def test_training_shaped_solve_needs_few_line_search_retries(self, monkeypatch):
        realized = count_realized(monkeypatch)
        rng = np.random.default_rng(0)
        n = 128
        res = partial_ot(rng.uniform(0.5, 1.5, (n, n)), uniform(n), uniform(n),
                         1 - np.eye(n, dtype=int), rho=0.1,
                         cfg=SinkhornConfig(lam=0.01, max_iter=3000, tol=1e-6))
        assert res.converged
        assert len(realized) <= res.iterations + 3

    @pytest.mark.parametrize("low,high", [(0.5, 1.5), (1.0, 1.6)])
    def test_training_shaped_solves_take_no_extrapolation_trial(self, monkeypatch,
                                                                low, high):
        # these converge quadratically, so no step passes the tail test of
        # transport._newton_step: each solve realizes its six plans, one per
        # iteration, as it did before the rule
        realized = count_realized(monkeypatch)
        counts = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = 128
            realized.clear()
            res = partial_ot(rng.uniform(low, high, (n, n)), uniform(n), uniform(n),
                             1 - np.eye(n, dtype=int), rho=0.1,
                             cfg=SinkhornConfig(lam=0.01, max_iter=3000, tol=1e-6))
            assert res.converged
            counts.append((res.iterations, len(realized)))
        assert counts == [(6, 6)] * 20

    # a training-shaped solve of n pairs whose k-th Newton system is
    # singular: its iterations and the sha256 of its plan bytes, pinned like
    # the criterion-1 iterations above. The 32-pair solves take dense
    # directions, the 128-pair one CG directions.
    @pytest.mark.parametrize("n,stall_at,iterations,digest", [
        (32, 1, 63, "59cf1dea3ad9e90b8b04a38848a497218b33993c24b9fea9b680900d21802aad"),
        (32, 2, 61, "c29e9201f5c03594e76cde699a2af786b480575ba7f349e6f4fd44e608ba8f1c"),
        (128, 2, 59, "7dc6b6c22a7dc39ce2a7bad928b10a2f609d3284fae91f16dd405509e32174ac"),
    ], ids=["stall-1", "stall-2", "stall-cg"])
    def test_newton_stall_falls_back_to_sweeps(self, monkeypatch, n, stall_at,
                                               iterations, digest):
        directions, sweeps = [], []
        direction, sweep = transport._newton_direction, transport._sweep

        def singular_at_k(*args):
            directions.append(1)
            if len(directions) == stall_at:
                raise np.linalg.LinAlgError("singular matrix")
            return direction(*args)

        monkeypatch.setattr(transport, "_newton_direction", singular_at_k)
        monkeypatch.setattr(transport, "_sweep",
                            lambda *args: sweeps.append(1) or sweep(*args))
        rng = np.random.default_rng(0)
        res = partial_ot(rng.uniform(0.5, 1.5, (n, n)), uniform(n), uniform(n),
                         1 - np.eye(n, dtype=int), rho=0.1,
                         cfg=SinkhornConfig(lam=0.05, max_iter=3000, tol=1e-6))
        assert res.converged
        # no Newton step after the stall; the first sweep, the Newton steps,
        # the stalled one and the fallback sweeps each count one iteration
        assert len(directions) == stall_at
        assert len(sweeps) == res.iterations - stall_at
        assert res.iterations == iterations
        assert hashlib.sha256(res.plan.tobytes()).hexdigest() == digest

    @given(side=st.integers(2, 12), log_lam=st.floats(-3, -1), partial=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_every_accepted_newton_step_lowers_the_worst_violation(self, side, log_lam,
                                                                   partial, seed):
        # balanced and masked partial solves, lam from 1e-3 (near-permutation
        # plans, where the tail rule extrapolates) to 1e-1
        rng = np.random.default_rng(seed)
        cost = rng.uniform(0, 1, (side, side))
        mask = rng.uniform(size=(side, side)) > rng.uniform(0, 0.8)
        mask[np.arange(side), rng.permutation(side)] = True  # keeps the full budget feasible
        problem = (cost, uniform(side), uniform(side), mask)
        if partial:
            problem = extend_partial(*problem, rho=float(rng.uniform(0.01, 1.0)))
        cfg = SinkhornConfig(lam=10.0 ** log_lam, max_iter=2000, tol=1e-9)
        steps = []
        with mock.patch.object(transport, "_newton_step", recording_newton_steps(steps)):
            res = sinkhorn(*problem, cfg)
        for before, after in steps:
            assert after is None or after < before
        _, p, q, mask = problem
        if res.converged:
            residual = (np.abs(res.plan.sum(axis=1) - p).sum()
                        + np.abs(res.plan.sum(axis=0) - q).sum())
            assert residual <= cfg.tol
        assert np.all(res.plan[~mask] == 0.0)

    @given(rows=st.integers(3, 11), cols=st.integers(3, 11), lam=st.floats(0.01, 0.2),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_zero_mass_slices_stay_frozen(self, rows, cols, lam, seed):
        # sinkhorn drops the zero-mass rows and columns before it solves, so
        # their rows and columns of the plan are exactly 0
        rng = np.random.default_rng(seed)
        cost = rng.uniform(0, 1, (rows, cols))
        p, q = rng.uniform(0.1, 1, rows), rng.uniform(0.1, 1, cols)
        dead_r, dead_c = rng.uniform(size=rows) < 0.3, rng.uniform(size=cols) < 0.3
        dead_r[rng.integers(rows)] = dead_c[rng.integers(cols)] = False
        p[dead_r] = q[dead_c] = 0.0
        p, q = p / p.sum(), q / q.sum()
        cfg = SinkhornConfig(lam=lam, max_iter=5000, tol=1e-10)
        full = sinkhorn(cost, p, q, cfg=cfg)
        kept = np.ix_(~dead_r, ~dead_c)
        deleted = sinkhorn(cost[kept], p[~dead_r], q[~dead_c], cfg=cfg)
        assert full.converged and deleted.converged
        assert not full.plan[dead_r].any() and not full.plan[:, dead_c].any()
        # the balanced solve is the one with those slices deleted, bit for bit
        np.testing.assert_array_equal(full.plan[kept], deleted.plan)
        assert full.iterations == deleted.iterations
        # not so the partial one: the corner price reads max(cost) over every
        # cell, dead ones too, so its plan may move; its dead slices stay 0
        part = partial_ot(cost, p, q, rho=float(rng.uniform(0.05, 0.95)), cfg=cfg)
        assert part.converged
        assert not part.plan[dead_r].any() and not part.plan[:, dead_c].any()

    def test_full_budget_partial_is_the_masked_balanced_solve(self):
        # at n = 128 the uniform marginals sum to exactly 1, so a budget of 1
        # leaves the virtual row and column no mass: the no-partial arm's
        # solve is the masked balanced one, bit for bit
        n = 128
        cost = np.random.default_rng(0).uniform(1.0, 1.6, (n, n))
        mask = ~np.eye(n, dtype=bool)
        cfg = SinkhornConfig(lam=0.01, max_iter=3000, tol=1e-6)
        part = partial_ot(cost, uniform(n), uniform(n), mask, rho=1.0, cfg=cfg)
        balanced = sinkhorn(cost, uniform(n), uniform(n), mask, cfg)
        assert part.converged and balanced.converged
        assert part.iterations == balanced.iterations
        assert part.plan.tobytes() == balanced.plan.tobytes()

    def test_thousand_pair_solve_runs_newton(self):
        # every size takes the Newton path: sweeps alone needed 59 iterations
        rng = np.random.default_rng(0)
        n = 1000
        cfg = SinkhornConfig(lam=0.01, max_iter=3000, tol=1e-6)
        res = partial_ot(rng.uniform(1.0, 1.6, (n, n)), uniform(n), uniform(n),
                         1 - np.eye(n, dtype=int), rho=0.1, cfg=cfg)
        assert res.converged
        assert res.iterations <= 10
        assert abs(res.plan.sum() - 0.1) <= cfg.tol

    @pytest.mark.parametrize("seed", range(20))
    def test_schur_direction_matches_dense_jacobian(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        system, jac, damping = newton_system(rng, m, n, 0.8, 1.2)
        block, rows, cols, res_r, res_c = system
        k, nr = jac.shape[0], rows.size
        dense = np.linalg.solve(jac + damping * np.eye(k),
                                -np.concatenate([res_r, res_c]))
        dx, dy = _newton_direction(*system, damping)
        schur = np.concatenate([dx, dy])

        # Shifting every row exponent up and every column exponent down by
        # the same amount leaves the plan unchanged, and the damped system is
        # ill-conditioned only along that direction: compare the component
        # the plan sees, and the change of every cell's log-mass.
        gauge = np.concatenate([np.ones(nr), -np.ones(cols.size)]) / np.sqrt(k)
        np.testing.assert_allclose(schur - (schur @ gauge) * gauge,
                                   dense - (dense @ gauge) * gauge, rtol=0, atol=1e-10)
        np.testing.assert_allclose(dx[:, None] + dy[None, :],
                                   dense[:nr, None] + dense[None, nr:], rtol=0, atol=1e-10)

    @pytest.mark.parametrize("spread", [0.2, 1e-4, 1e-8])
    @pytest.mark.parametrize("seed", range(8))
    def test_cg_direction_meets_the_forcing_term(self, seed, spread):
        # training-sized systems take the CG path, which promises the damped
        # Newton residual ||J d + F|| <= min(0.1, ||F||) * ||F||, not an exact
        # direction; spread sets ||F||, so both branches of the min occur
        rng = np.random.default_rng(seed)
        m, n = (int(size) for size in rng.integers(80, 140, size=2))
        system, jac, damping = newton_system(rng, m, n, 1 - spread, 1 + spread)
        assert system[2].size >= transport._CG_MIN_DIM
        dx, dy = _newton_direction(*system, damping)
        residual = np.concatenate(system[3:])
        norm_f = np.linalg.norm(residual)
        step = np.concatenate([dx, dy])
        miss = np.linalg.norm(jac @ step + damping * step + residual)
        assert miss <= min(transport._ETA_MAX, norm_f) * norm_f

    def test_cg_direction_that_misses_the_forcing_term_stalls(self, monkeypatch):
        # a NaN cap makes a forcing term no residual meets: the direction
        # raises, the Newton step stalls, and sweeps finish the solve
        monkeypatch.setattr(transport, "_ETA_MAX", float("nan"))
        system, _, damping = newton_system(np.random.default_rng(0), 96, 96, 0.8, 1.2)
        assert system[2].size >= transport._CG_MIN_DIM
        with pytest.raises(np.linalg.LinAlgError):
            _newton_direction(*system, damping)

        directions, sweeps = [], []
        direction, sweep = transport._newton_direction, transport._sweep
        monkeypatch.setattr(transport, "_newton_direction",
                            lambda *args: directions.append(1) or direction(*args))
        monkeypatch.setattr(transport, "_sweep",
                            lambda *args: sweeps.append(1) or sweep(*args))
        rng = np.random.default_rng(0)
        n = 64
        cfg = SinkhornConfig(lam=0.05, max_iter=3000, tol=1e-6)
        res = partial_ot(rng.uniform(0.5, 1.5, (n, n)), uniform(n), uniform(n),
                         1 - np.eye(n, dtype=int), rho=0.1, cfg=cfg)
        assert res.converged
        assert abs(res.plan.sum() - 0.1) <= cfg.tol
        assert len(directions) == 1
        assert len(sweeps) == res.iterations - 1

    def test_dense_direction_raises_on_a_singular_schur_complement(self):
        # an empty free column with no damping leaves a zero row and column in
        # the Schur complement; _newton_step takes the error as a stall
        plan = np.array([[0.3, 0.0, 0.2], [0.1, 0.0, 0.4]])
        with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError):
            _newton_direction(plan, plan.sum(axis=1), plan.sum(axis=0),
                              np.array([0.01, -0.01]), np.array([0.01, 0.0, -0.01]), 0.0)

    def test_dense_direction_raises_on_a_nan_plan(self):
        # a NaN direction would only stall after 60 rejected trial plans
        plan = np.array([[0.3, 0.1, 0.2], [0.1, 0.2, 0.4]])
        plan[0, 1] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError):
            _newton_direction(plan, plan.sum(axis=1), plan.sum(axis=0),
                              np.array([0.01, -0.01]), np.array([0.01, 0.0, -0.01]), 1e-12)

    @pytest.mark.parametrize("missing", ["module", "solve1"])
    def test_dense_solve_falls_back_to_the_public_solver(self, monkeypatch, missing):
        # numpy.linalg._umath_linalg is private. A copy of the module loaded
        # without it, or without its solve1, calls np.linalg.solve, which
        # keeps its own reference to the same gufunc: the criterion-1 plans
        # keep their bytes and counts, and a singular system still raises,
        # as LinAlgError instead of NaN
        name = "numpy.linalg._umath_linalg"
        monkeypatch.setitem(sys.modules, name,
                            None if missing == "module" else types.ModuleType(name))
        spec = importlib.util.spec_from_file_location("rematch._transport_copy",
                                                      transport.__file__)
        fallback = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, fallback)
        spec.loader.exec_module(fallback)
        assert fallback._solve1 is np.linalg.solve
        settings = dict(lam=0.001, max_iter=5000, tol=1e-9)
        for seed in range(10):
            cost = np.random.default_rng(seed).uniform(0, 1, (4, 4))
            want = sinkhorn(cost, uniform(4), uniform(4), cfg=SinkhornConfig(**settings))
            got = fallback.sinkhorn(cost, uniform(4), uniform(4),
                                    cfg=fallback.SinkhornConfig(**settings))
            assert got.iterations == want.iterations == CRITERION_1_ITERATIONS[seed]
            assert got.plan.tobytes() == want.plan.tobytes()
        plan = np.array([[0.3, 0.0, 0.2], [0.1, 0.0, 0.4]])
        with pytest.raises(np.linalg.LinAlgError):
            fallback._newton_direction(plan, plan.sum(axis=1), plan.sum(axis=0),
                                       np.array([0.01, -0.01]), np.array([0.01, 0.0, -0.01]),
                                       0.0)

    @given(seed=st.integers(0, 2**32 - 1))
    @example(seed=57721)  # a result of 0.0035, 2e-14 off relative to itself
    @settings(max_examples=50, deadline=None)
    def test_logsumexp_matches_scipy(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=50.0, size=(int(rng.integers(1, 7)), int(rng.integers(1, 7))))
        x[rng.uniform(size=x.shape) < 0.3] = -np.inf
        x[0, :] = -np.inf  # one slice all -inf along axis 1
        x[:, 0] = -np.inf  # and one along axis 0
        for axis in (0, 1):
            got, want = _logsumexp(x, axis), scipy.special.logsumexp(x, axis=axis)
            np.testing.assert_array_equal(np.isneginf(got), np.isneginf(want))
            # the max-shifted sum is accurate to a few eps on the scale of the
            # slice's largest entry, not relative to a result near zero
            live = ~np.isneginf(want)
            scale = np.maximum(1.0, np.abs(x.max(axis=axis)[live]))
            assert np.all(np.abs(got[live] - want[live]) <= 4 * np.finfo(float).eps * scale)

    def test_a_search_that_never_improves_stalls_to_sweeps(self, monkeypatch):
        # an ascent direction: no step length lowers the worst violation, so the
        # first Newton step is a stall and sweeps finish the solve
        direction = transport._newton_direction
        monkeypatch.setattr(transport, "_newton_direction",
                            lambda *args: tuple(-d for d in direction(*args)))
        steps = []
        monkeypatch.setattr(transport, "_newton_step", recording_newton_steps(steps))
        cost = np.random.default_rng(0).uniform(0, 1, (5, 5))
        result = sinkhorn(cost, uniform(5), uniform(5),
                          cfg=SinkhornConfig(lam=0.1, max_iter=5000, tol=1e-9))
        assert [after for _, after in steps] == [None]
        assert result.converged


def marginals_with_dead_slices(rng, m, n):
    """U(0.1, 1) masses, each zero with chance 0.2, at least one positive a
    side, normalized."""
    p, q = rng.uniform(0.1, 1, m), rng.uniform(0.1, 1, n)
    p[rng.uniform(size=m) < 0.2] = q[rng.uniform(size=n) < 0.2] = 0.0
    p[rng.integers(m)], q[rng.integers(n)] = rng.uniform(0.1, 1, 2)
    return p / p.sum(), q / q.sum()


# The LP optimum may exceed the cost of a rounded plan by rounding only:
# at most 1.1e-16 on 200 balanced draws of costs U(0, 1)
LP_ROUNDING = 1e-12


def check_entropic_gap(rounded_cost, optimum, lam, mass, open_cells, tol, cost):
    """The LP optimum never exceeds the cost of the entropic plan rounded to
    feasibility, which exceeds it by at most lam * mass * log(open cells)
    (Peyre & Cuturi 2019, sec. 4) plus tol * max|C| for the plan's misfit."""
    scale = np.abs(cost).max()
    assert optimum <= rounded_cost + LP_ROUNDING * scale
    assert rounded_cost - optimum <= lam * mass * np.log(open_cells) + tol * scale


class TestExactOptimum:
    # HiGHS solves the transport LPs exactly at any size; the balanced and
    # the masked partial entropic solves are checked against them from side
    # 2 to training sizes. On 200 draws of each kind, the gap used at most
    # 11% of its bound.
    @given(m=st.integers(2, 64), n=st.integers(2, 64), log_lam=st.floats(-2, -1),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_balanced_solve_is_near_the_lp_optimum(self, m, n, log_lam, seed):
        rng = np.random.default_rng(seed)
        cost = rng.uniform(0, 1, (m, n))
        p, q = marginals_with_dead_slices(rng, m, n)
        cfg = SinkhornConfig(lam=10.0 ** log_lam, max_iter=5000, tol=1e-9)
        res = sinkhorn(cost, p, q, cfg=cfg)
        assert res.converged
        check_entropic_gap((round_balanced(res.plan, p, q) * cost).sum(),
                           lp_optimum(cost, p, q, np.ones((m, n))), cfg.lam, 1.0,
                           np.count_nonzero(p) * np.count_nonzero(q), cfg.tol, cost)

    @given(n=st.integers(2, 64), log_lam=st.floats(-2, -1), share=st.floats(0.05, 0.95),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_masked_partial_solve_is_near_the_lp_optimum(self, n, log_lam, share, seed):
        # the budget is a share of the most mass the open cells can move
        rng = np.random.default_rng(seed)
        cost = rng.uniform(1.0, 1.6, (n, n))
        p, q = marginals_with_dead_slices(rng, n, n)
        mask = ~np.eye(n, dtype=bool)
        most = lp_optimum(None, p, q, mask, rho="most")
        assume(most > 0)
        self.check_partial(cost, p, q, mask, share * most,
                           SinkhornConfig(lam=10.0 ** log_lam, max_iter=5000, tol=1e-9))

    @pytest.mark.parametrize("n", [128, 256])
    def test_training_shaped_solve_is_near_the_lp_optimum(self, n):
        # the gap reads 1.03e-3 at n = 128 and 1.02e-3 at n = 256
        cost = np.random.default_rng(0).uniform(1.0, 1.6, (n, n))
        self.check_partial(cost, uniform(n), uniform(n), ~np.eye(n, dtype=bool), 0.1,
                           SinkhornConfig(lam=0.01, max_iter=3000, tol=1e-6))

    @staticmethod
    def check_partial(cost, p, q, mask, rho, cfg):
        # the bound holds on the extended problem: its mass is |p| + |q| - rho,
        # and its open cells are the block's, the border's and the corner
        res = partial_ot(cost, p, q, mask, rho=rho, cfg=cfg)
        assert res.converged
        live_r, live_c = p > 0, q > 0
        open_cells = (np.count_nonzero(mask & live_r[:, None] & live_c)
                      + np.count_nonzero(live_r) + np.count_nonzero(live_c) + 1)
        check_entropic_gap((round_partial(res.plan, p, q, rho, mask) * cost).sum(),
                           lp_optimum(cost, p, q, mask, rho), cfg.lam, p.sum() + q.sum() - rho,
                           open_cells, cfg.tol, cost)

    @given(m=st.integers(2, 16), n=st.integers(2, 16), seed=st.integers(0, 2**32 - 1))
    @example(m=2, n=2, seed=35741801)  # every cell closed
    @settings(max_examples=25, deadline=None)
    def test_highs_agrees_with_the_flow_oracle(self, m, n, seed):
        # two independent exact solvers of the masked balanced LP: both find
        # it infeasible, or their optima differ by at most the oracle's cost
        # quantization (1.1e-16 measured on 300 draws)
        rng = np.random.default_rng(seed)
        units = int(rng.integers(max(m, n), 65))
        p = rng.multinomial(units, rng.dirichlet(np.ones(m))) / units
        q = rng.multinomial(units, rng.dirichlet(np.ones(n))) / units
        cost = rng.uniform(0, 1, (m, n))
        mask = rng.uniform(size=(m, n)) > 0.3
        optimum = lp_optimum(cost, p, q, mask)
        if optimum is None:
            with pytest.raises(InfeasibleProblemError):
                exact_ot_oracle(cost, p, q, mask, mass_scale=units)
        else:
            exact = exact_ot_oracle(cost, p, q, mask, mass_scale=units).plan
            assert abs((exact * cost).sum() - optimum) <= 1e-12


class TestExtendPartial:
    def test_virtual_masses(self):
        _, p_ext, q_ext, _ = extend_partial(
            np.zeros((2, 2)), [0.5, 0.5], [0.5, 0.5], rho=0.5)
        np.testing.assert_allclose(p_ext, [0.5, 0.5, 0.5])
        np.testing.assert_allclose(q_ext, [0.5, 0.5, 0.5])
        assert p_ext.sum() == pytest.approx(q_ext.sum())

    def test_border_and_corner_construction(self):
        # border: the cheapest real cost; corner: 2 * border + max cost + 1
        cost = np.array([[0.4, 1.0], [1.0, 0.6]])
        cost_ext, _, _, mask_ext = extend_partial(
            cost, [0.5, 0.5], [0.5, 0.5], rho=0.5)
        expected = np.array([
            [0.4, 1.0, 0.4],
            [1.0, 0.6, 0.4],
            [0.4, 0.4, 2.8],
        ])
        np.testing.assert_allclose(cost_ext, expected)
        assert mask_ext.all()

    def test_mask_border_always_open(self):
        mask = [[0, 1], [1, 0]]
        _, _, _, mask_ext = extend_partial(
            np.zeros((2, 2)), [0.5, 0.5], [0.5, 0.5], mask, rho=0.25)
        assert mask_ext[:2, 2].all() and mask_ext[2, :].all()
        assert not mask_ext[0, 0] and not mask_ext[1, 1]

    def test_parameter_validation(self):
        p = q = [0.5, 0.5]
        with pytest.raises(ValueError, match="rho"):
            extend_partial(np.zeros((2, 2)), p, q, rho=1.5)

    @pytest.mark.parametrize("rho", [np.nan, np.inf, -np.inf])
    def test_non_finite_rho_rejected_by_extend_partial(self, rho):
        with pytest.raises(ValueError, match="rho"):
            extend_partial(np.zeros((2, 2)), [0.5, 0.5], [0.5, 0.5], rho=rho)

    @pytest.mark.parametrize("rho", [np.nan, np.inf, -np.inf])
    def test_non_finite_rho_rejected_by_partial_ot(self, rho):
        with pytest.raises(ValueError, match="rho"):
            partial_ot(np.zeros((2, 2)), [0.5, 0.5], [0.5, 0.5], rho=rho, cfg=CFG_TIGHT)

    @pytest.mark.parametrize("xi", [0.01, 1.0, 10.0])
    def test_border_cost_is_a_gauge(self, xi):
        # the border carries a fixed total mass, so any xi > 0 gives the
        # plan partial_ot finds with its default border cost
        rng = np.random.default_rng(4)
        n = 10
        cost = rng.uniform(1.0, 1.6, (n, n))
        mask = 1 - np.eye(n, dtype=int)
        cfg = SinkhornConfig(lam=0.01, max_iter=20000, tol=1e-12)
        default = partial_ot(cost, uniform(n), uniform(n), mask, rho=0.3, cfg=cfg)
        cost_ext, p_ext, q_ext, mask_ext = extend_partial(
            cost, uniform(n), uniform(n), mask, rho=0.3)
        cost_ext[:n, n] = cost_ext[n, :n] = xi
        cost_ext[n, n] = 2.0 * xi + cost.max() + 1.0
        shifted = sinkhorn(cost_ext, p_ext, q_ext, mask_ext, cfg)
        assert default.converged and shifted.converged
        np.testing.assert_allclose(shifted.plan[:n, :n], default.plan, rtol=0, atol=1e-12)

    def test_default_border_cost_is_the_cheapest_real_cost(self):
        assert default_xi(np.array([[1.3, 1.1], [1.6, 1.2]])) == 1.1
        assert 0 < default_xi(np.array([[0.0, 1.0], [1.0, 2.0]])) < 1e-9
        assert 0 < default_xi(np.array([[-1.0, 1.0]])) < 1e-9

    def test_full_budget_reduction_matches_plain_solver(self):
        rng = np.random.default_rng(7)
        cost = rng.uniform(0, 1, (5, 5))
        mask = 1 - np.eye(5, dtype=int)
        p = q = uniform(5)
        direct = sinkhorn(cost, p, q, mask, CFG_TIGHT)
        reduced = partial_ot(cost, p, q, mask, rho=1.0, cfg=CFG_TIGHT)
        assert direct.converged and reduced.converged
        np.testing.assert_allclose(reduced.plan, direct.plan, atol=1e-6)


class TestPartialOT:
    def test_pinned_plans_and_iterations(self):
        # criterion 2's partial solves and the solver-certify cases, each plan
        # by its bytes and each solve by its iteration count
        assert_pinned("certify-solves", PINS["certify-solves"]())

    def test_cheapest_cell_takes_the_whole_budget(self):
        # oracle route: exact flow on the extended problem picks cell (0, 0)
        cost = np.array([[0.0, 1.0], [1.0, 2.0]])
        p = q = np.array([0.5, 0.5])
        cost_ext, p_ext, q_ext, mask_ext = extend_partial(cost, p, q, rho=0.5)
        oracle = exact_ot_oracle(cost_ext, p_ext, q_ext, mask_ext.astype(int),
                                 mass_scale=2)
        np.testing.assert_allclose(oracle.plan[:2, :2], [[0.5, 0.0], [0.0, 0.0]],
                                   atol=1e-12)
        res = partial_ot(cost, p, q, rho=0.5,
                         cfg=SinkhornConfig(lam=0.001, max_iter=5000, tol=1e-9))
        assert res.converged
        np.testing.assert_allclose(res.plan, [[0.5, 0.0], [0.0, 0.0]], atol=1e-4)

    def test_zero_budget_moves_nothing(self):
        rng = np.random.default_rng(2)
        cost = rng.uniform(0, 1, (3, 4))
        res = partial_ot(cost, uniform(3), uniform(4), rho=0.0,
                         cfg=SinkhornConfig(lam=0.05))
        assert res.converged and res.iterations == 0
        assert res.plan.shape == (3, 4) and np.all(res.plan == 0.0)

    def test_full_budget_with_diagonal_mask(self):
        cost = np.zeros((2, 2))
        mask = [[0, 1], [1, 0]]
        res = partial_ot(cost, [0.5, 0.5], [0.5, 0.5], mask, rho=1.0,
                         cfg=SinkhornConfig(lam=0.1, tol=1e-9))
        np.testing.assert_allclose(res.plan, [[0.0, 0.5], [0.5, 0.0]], atol=1e-8)

    def test_budget_and_caps_hold_across_instances(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 9))
            cost = rng.uniform(0, 1, (n, n))
            mask = 1 - np.eye(n, dtype=int)
            p = q = uniform(n)
            for rho in (0.1, 0.25, 0.5):
                res = partial_ot(cost, p, q, mask, rho=rho,
                                 cfg=SinkhornConfig(lam=0.02, max_iter=20000,
                                                    tol=1e-9))
                assert res.converged
                assert abs(res.plan.sum() - rho) < 1e-6
                assert np.all(res.plan.sum(axis=1) <= p + 1e-6)
                assert np.all(res.plan.sum(axis=0) <= q + 1e-6)
                assert np.all(res.plan[np.eye(n, dtype=bool)] == 0.0)


    @pytest.mark.parametrize("n", [128, 256, 399])
    def test_converged_means_the_budget_holds(self, n):
        rng = np.random.default_rng(n)
        cfg = SinkhornConfig(lam=0.01, max_iter=3000, tol=1e-6)
        res = partial_ot(rng.uniform(1.0, 1.6, (n, n)), uniform(n), uniform(n),
                         1 - np.eye(n, dtype=int), rho=0.1, cfg=cfg)
        assert res.converged
        assert abs(res.plan.sum() - 0.1) <= cfg.tol

    def test_large_batch_runs_newton(self):
        # 512 pairs: the Schur system has 513 free columns
        rng = np.random.default_rng(0)
        n = 512
        res = partial_ot(rng.uniform(1.0, 1.6, (n, n)), uniform(n), uniform(n),
                         1 - np.eye(n, dtype=int), rho=0.1,
                         cfg=SinkhornConfig(lam=0.01, max_iter=3000, tol=1e-6))
        assert res.converged
        assert res.iterations <= 10

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_invariants_over_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 41))
        lam = float(rng.uniform(0.005, 0.1))
        cost = rng.uniform(0, 2) + rng.uniform(0, 1, (n, n))
        mask = rng.uniform(size=(n, n)) > rng.uniform(0, 0.8)
        np.fill_diagonal(mask, False)
        # a cyclic shift stays open, so even the full budget is feasible
        mask[np.arange(n), (np.arange(n) + 1) % n] = True
        rho = 1.0 if rng.uniform() < 0.2 else float(rng.uniform(0.01, 1.0))
        p = q = uniform(n)
        cfg = SinkhornConfig(lam=lam, max_iter=5000, tol=1e-8)
        res = partial_ot(cost, p, q, mask, rho=rho, cfg=cfg)
        assert res.converged
        assert np.all(res.plan.sum(axis=1) <= p + cfg.tol)
        assert np.all(res.plan.sum(axis=0) <= q + cfg.tol)
        assert np.all(res.plan[~mask] == 0.0)
        cost_ext, p_ext, q_ext, mask_ext = extend_partial(cost, p, q, mask, rho=rho)
        ext = sinkhorn(cost_ext, p_ext, q_ext, mask_ext, cfg)
        np.testing.assert_array_equal(ext.plan[:n, :n], res.plan)
        residual = (np.abs(ext.plan.sum(axis=1) - p_ext).sum()
                    + np.abs(ext.plan.sum(axis=0) - q_ext).sum())
        assert residual <= cfg.tol


def balanced_instance(rng):
    """A random balanced problem and its config: sides 2-12, costs U(0, 1),
    marginals of equal mass and unequal entries, lam log-uniform in [0.01, 0.1]."""
    m, n = (int(side) for side in rng.integers(2, 13, size=2))
    cfg = SinkhornConfig(lam=float(10 ** rng.uniform(-2, -1)), max_iter=5000, tol=1e-12)
    p, q = rng.uniform(0.5, 1.5, m), rng.uniform(0.5, 1.5, n)
    return rng.uniform(0, 1, (m, n)), p / p.sum(), q / q.sum(), cfg


def northwest_support(p, q):
    """The cells of the north-west corner rule's plan, which moves all of the
    smaller of ``p``'s and ``q``'s masses."""
    edges_p, edges_q = np.cumsum(np.r_[0, p]), np.cumsum(np.r_[0, q])
    return (np.maximum.outer(edges_p[:-1], edges_q[:-1])
            < np.minimum.outer(edges_p[1:], edges_q[1:]))


class TestMetamorphic:
    """Relations the exact entropic plan obeys. Both solves of a pair stop within
    ``tol`` = 1e-12 of the marginals, one of them sometimes an iteration earlier,
    and their plans may differ by about that much. Over seeds 0-29,999 of each
    of the first three relations below the worst gaps were 0.16, 0.27 and 0.37
    of ``tol`` (99% of them under 5e-15), so each bound is ``tol``."""

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_permuting_rows_and_columns_permutes_the_plan(self, seed):
        rng = np.random.default_rng(seed)
        cost, p, q, cfg = balanced_instance(rng)
        rows, cols = rng.permutation(p.size), rng.permutation(q.size)
        plan = sinkhorn(cost, p, q, cfg=cfg)
        permuted = sinkhorn(cost[np.ix_(rows, cols)], p[rows], q[cols], cfg=cfg)
        assert plan.converged and permuted.converged
        assert np.abs(permuted.plan - plan.plan[np.ix_(rows, cols)]).max() <= cfg.tol

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_adding_a_constant_to_each_row_leaves_the_plan(self, seed):
        rng = np.random.default_rng(seed)
        cost, p, q, cfg = balanced_instance(rng)
        plan = sinkhorn(cost, p, q, cfg=cfg)
        shifted = sinkhorn(cost + rng.uniform(-1, 1, (p.size, 1)), p, q, cfg=cfg)
        assert plan.converged and shifted.converged
        assert np.abs(shifted.plan - plan.plan).max() <= cfg.tol

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_one_permutation_of_both_sides_permutes_a_masked_partial_plan(self, seed):
        # the instances of test_invariants_over_random_instances, solved to 1e-12
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 41))
        cfg = SinkhornConfig(lam=float(rng.uniform(0.005, 0.1)), max_iter=5000, tol=1e-12)
        cost = rng.uniform(0, 2) + rng.uniform(0, 1, (n, n))
        mask = rng.uniform(size=(n, n)) > rng.uniform(0, 0.8)
        np.fill_diagonal(mask, False)
        mask[np.arange(n), (np.arange(n) + 1) % n] = True
        rho = 1.0 if rng.uniform() < 0.2 else float(rng.uniform(0.01, 1.0))
        order = rng.permutation(n)
        plan = partial_ot(cost, uniform(n), uniform(n), mask, rho=rho, cfg=cfg)
        permuted = partial_ot(cost[np.ix_(order, order)], uniform(n), uniform(n),
                              mask[np.ix_(order, order)], rho=rho, cfg=cfg)
        assert plan.converged and permuted.converged
        assert np.abs(permuted.plan - plan.plan[np.ix_(order, order)]).max() <= cfg.tol

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_transposing_cost_mask_and_marginals_transposes_a_masked_partial_plan(self, seed):
        """Sides 2-40 each, |p| = 1 and |q| in [0.5, 1.5] with unequal entries, a
        random mask opened on the cells of the north-west corner rule's plan,
        which alone carry the whole budget, and a fifth of the budgets full.
        Over 42,000 draws every solve converged and the worst gap was 0.48 of
        ``tol`` (99% under 0.23 of it)."""
        rng = np.random.default_rng(seed)
        m, n = (int(side) for side in rng.integers(2, 41, size=2))
        cfg = SinkhornConfig(lam=float(rng.uniform(0.005, 0.1)), max_iter=5000, tol=1e-12)
        cost = rng.uniform(0, 2) + rng.uniform(0, 1, (m, n))
        mask = rng.uniform(size=(m, n)) > rng.uniform(0, 0.8)
        p, q = rng.uniform(0.1, 1.0, m), rng.uniform(0.1, 1.0, n)
        p /= p.sum()
        q *= rng.uniform(0.5, 1.5) / q.sum()
        mask |= northwest_support(p, q)
        rho = min(p.sum(), q.sum()) * (1.0 if rng.uniform() < 0.2 else rng.uniform(0.01, 1.0))
        plan = partial_ot(cost, p, q, mask, rho=rho, cfg=cfg)
        flipped = partial_ot(cost.T, q, p, mask.T, rho=rho, cfg=cfg)
        assert plan.converged and flipped.converged
        assert np.abs(flipped.plan - plan.plan.T).max() <= cfg.tol

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_transposing_cost_mask_and_marginals_transposes_the_plan(self, seed):
        """Balanced, with a random mask opened on the north-west corner rule's
        cells, which keep it feasible. Over seeds 0-39,999 every solve converged
        and the worst gap was 0.50 of ``tol`` (99% under 0.37 of it)."""
        rng = np.random.default_rng(seed)
        cost, p, q, cfg = balanced_instance(rng)
        mask = (rng.uniform(size=cost.shape) > rng.uniform(0, 0.8)) | northwest_support(p, q)
        plan = sinkhorn(cost, p, q, mask, cfg=cfg)
        flipped = sinkhorn(cost.T, q, p, mask.T, cfg=cfg)
        assert plan.converged and flipped.converged
        assert np.abs(flipped.plan - plan.plan.T).max() <= cfg.tol


class TestNormalizePlan:
    def test_row_normalization(self):
        plan = np.array([[0.3, 0.1], [0.0, 0.6]])
        out, _ = normalize_plan(plan)
        np.testing.assert_allclose(out, [[0.75, 0.25], [0.0, 1.0]])

    def test_column_normalization(self):
        plan = np.array([[0.3, 0.1], [0.1, 0.3]])
        _, out = normalize_plan(plan)
        np.testing.assert_allclose(out.sum(axis=0), [1.0, 1.0])

    def test_zero_row_falls_back_to_uniform_over_unmasked(self):
        plan = np.array([[0.0, 0.0, 0.0], [0.2, 0.2, 0.2]])
        mask = np.array([[0, 1, 1], [1, 1, 1]])
        out, _ = normalize_plan(plan, mask=mask)
        np.testing.assert_allclose(out[0], [0.0, 0.5, 0.5])

    def test_untransported_rows_of_partial_plan_are_near_uniform(self):
        # a few standout low-cost cells soak up the budget; the remaining
        # rows carry almost nothing and normalize to near-uniform profiles
        rng = np.random.default_rng(0)
        n = 8
        cost = 1.0 + 0.03 * rng.uniform(0, 1, (n, n))
        for row, col in ((0, 3), (1, 6), (2, 1), (3, 5)):
            cost[row, col] = 0.75
        mask = 1 - np.eye(n, dtype=int)
        res = partial_ot(cost, uniform(n), uniform(n), mask, rho=0.25,
                         cfg=SinkhornConfig(lam=0.07, max_iter=20000, tol=1e-10))
        assert res.converged
        rows, _ = normalize_plan(res.plan, mask=mask)
        untransported = res.plan.sum(axis=1) < 0.25 / n * 0.5
        assert untransported.sum() >= 3
        reference = np.where(mask[untransported].astype(bool), 1.0 / (n - 1), 0.0)
        assert np.abs(rows[untransported] - reference).max() < 0.1

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_outputs_are_distributions(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        plan = rng.uniform(0, 1, (m, n)) * (rng.uniform(size=(m, n)) > 0.3)
        rows, cols = normalize_plan(plan)
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(cols.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(rows >= 0) and np.all(cols >= 0)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="^plan entries must be nonnegative$"):
            normalize_plan(np.array([[-0.1, 0.2]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            normalize_plan(np.array([[bad, 1.0], [1.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_a_non_finite_entry_beside_a_negative_one_is_named_first(self, bad, order):
        plan = np.array([[0.2, -0.1, 0.3], [0.1, 0.2, bad]], order=order)
        with pytest.raises(ValueError, match="^plan contains non-finite entries$"):
            normalize_plan(plan)
        with pytest.raises(ValueError, match="^plan contains non-finite entries$"):
            normalize_plan(plan.T)

    def test_an_empty_plan_passes_the_checks(self):
        rows, cols = normalize_plan(np.zeros((0, 0)))
        assert rows.shape == cols.shape == (0, 0)


def flat_bits(result):
    """Every number of a solve, extension or normalization, as int64 bit patterns."""
    if isinstance(result, transport.TransportPlan):
        result = (result.plan, result.converged, result.iterations)
    return np.concatenate([np.asarray(part, dtype=np.float64).ravel().view(np.int64)
                           for part in result])


# each public transport function that takes a workspace, on a cost matrix and a
# closed diagonal; the plan normalized has an empty row, which falls back to uniform
REUSING_SOLVERS = {
    "sinkhorn": lambda cost, mask, **kw: sinkhorn(
        cost, uniform(len(cost)), uniform(len(cost)), mask, CFG_TIGHT, **kw),
    "extend_partial": lambda cost, mask, **kw: extend_partial(
        cost, uniform(len(cost)), uniform(len(cost)), mask, 0.3, **kw),
    "partial_ot": lambda cost, mask, **kw: partial_ot(
        cost, uniform(len(cost)), uniform(len(cost)), mask, 0.3, CFG_TIGHT, **kw),
    # the first row and column carry no mass: sinkhorn solves the rest and
    # scatters it into a plan it zeroes first
    "sinkhorn-zero-mass": lambda cost, mask, **kw: sinkhorn(
        cost, np.r_[0.0, uniform(len(cost) - 1)], np.r_[0.0, uniform(len(cost) - 1)], mask,
        CFG_TIGHT, **kw),
    "normalize_plan": lambda cost, mask, **kw: normalize_plan(
        cost * (np.arange(len(cost)) > 0)[:, None], mask, **kw),
}


class TestWorkspace:
    @pytest.mark.parametrize("solver", REUSING_SOLVERS)
    def test_reuse_across_sizes_keeps_the_bits(self, solver):
        # a smaller problem reads the head of buffers a larger one filled, and
        # the next larger one reads what the smaller one left behind; only the
        # first call makes buffers
        call = REUSING_SOLVERS[solver]
        rng = np.random.default_rng(12)
        work = _Workspace()
        allocations = []
        for n in (12, 9, 12):
            cost, mask = rng.uniform(0, 1, (n, n)), ~np.eye(n, dtype=bool)
            assert np.array_equal(flat_bits(call(cost, mask, work=work)),
                                  flat_bits(call(cost, mask)))
            allocations.append(work.allocations)
        assert allocations[0] == allocations[-1]

    def test_partial_ot_without_a_workspace_shares_one(self, monkeypatch):
        # the extension and the solve share one workspace, so the log-kernel
        # overwrites the extended cost in place: three buffers, kernel and
        # two plans, not a second kernel in a second workspace
        made = []

        class Recorded(_Workspace):
            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr(transport, "_Workspace", Recorded)
        cost = np.random.default_rng(0).uniform(0, 1, (6, 6))
        partial_ot(cost, uniform(6), uniform(6), ~np.eye(6, dtype=bool), 0.3, CFG_TIGHT)
        assert [work.allocations for work in made] == [3]


class TestInputBoundaries:
    CFG = SinkhornConfig(lam=0.1)

    @pytest.mark.parametrize("p,needle", [
        ([[0.5, 0.5]], r"^p must be a vector, got shape \(1, 2\)"),
        ([np.nan, 1.0], "^p contains non-finite entries"),
        ([-0.5, 1.5], "^p contains negative mass"),
        ([0.0, 0.0], "^p carries no mass"),
    ])
    def test_bad_measure_rejected(self, p, needle):
        with pytest.raises(ValueError, match=needle):
            sinkhorn(np.zeros((2, 2)), p, uniform(2), cfg=self.CFG)

    @pytest.mark.parametrize("cost,needle", [
        (np.zeros(2), r"^cost must be a matrix, got shape \(2,\)"),
        ([[np.inf, 0.0], [0.0, 0.0]], "^cost contains non-finite entries"),
    ])
    def test_bad_cost_rejected(self, cost, needle):
        with pytest.raises(ValueError, match=needle):
            sinkhorn(cost, uniform(2), uniform(2), cfg=self.CFG)

    def test_a_solve_needs_its_config(self):
        # a zero budget solves nothing, but is checked as a solve is; a string
        # or a dict used to fail on a missing attribute, or not at a zero budget
        cost, p = np.zeros((2, 2)), uniform(2)
        for cfg in (None, "junk", {"lam": 0.1}):
            for solve in (lambda: sinkhorn(cost, p, p, cfg=cfg),
                          lambda: partial_ot(cost, p, p, rho=0.5, cfg=cfg),
                          lambda: partial_ot(cost, p, p, rho=0.0, cfg=cfg)):
                with pytest.raises(ValueError, match=f"^cfg must be a SinkhornConfig, "
                                                     f"got {re.escape(repr(cfg))}$"):
                    solve()

    @pytest.mark.parametrize("rho", [0.0, 0.5])
    def test_a_workspace_that_is_not_one_rejected(self, rho):
        # leaving work out gives fresh arrays; None is no longer a workspace
        cost, p = np.zeros((2, 2)), uniform(2)
        for solve in (lambda: sinkhorn(cost, p, p, cfg=self.CFG, work=None),
                      lambda: extend_partial(cost, p, p, rho=rho, work=None),
                      lambda: partial_ot(cost, p, p, rho=rho, cfg=self.CFG, work=None)):
            with pytest.raises(TypeError, match="^work must be a workspace, got None; "):
                solve()

    def test_an_overflowing_corner_cost_rejected(self):
        # every real cost is finite, but the extension's corner, twice the
        # border plus the largest cost plus one, is not
        with pytest.raises(ValueError, match="^cost contains non-finite entries$"):
            partial_ot(np.full((2, 2), 1e308), uniform(2), uniform(2), rho=0.5, cfg=self.CFG)

    def test_mask_of_another_shape_rejected(self):
        with pytest.raises(ValueError, match="^mask shape"):
            sinkhorn(np.zeros((2, 2)), uniform(2), uniform(2), np.ones((3, 2)), self.CFG)

    def test_open_cell_in_a_zero_mass_column_is_not_usable(self):
        # row 0's only open cell lies in column 1, which carries no mass
        with pytest.raises(InfeasibleProblemError,
                           match=r"^rows \[0\] .* both carry mass"):
            sinkhorn(np.zeros((2, 2)), [0.5, 0.5], [1.0, 0.0], [[0, 1], [1, 1]], self.CFG)

    @pytest.mark.parametrize("p,q,mask,needle", [
        ([1e-12, 1 - 1e-12], [0.5, 0.5], [[0, 0], [1, 1]], r"^rows \[0\]"),
        ([0.5, 0.5], [1e-12, 1 - 1e-12], [[0, 1], [0, 1]], r"^columns \[0\]"),
    ], ids=["row", "column"])
    def test_dead_slice_with_mass_below_tol_is_infeasible(self, p, q, mask, needle):
        # the slice's mass is below the solver tolerance, yet no plan can carry it
        with pytest.raises(InfeasibleProblemError, match=needle):
            sinkhorn(np.zeros((2, 2)), p, q, mask, SinkhornConfig(lam=0.1, tol=1e-9))

    @pytest.mark.parametrize("cost,update", [
        ([[1e300, 1e300], [0.0, 0.0]], "a-update"),
        ([[0.0, 1e300], [0.0, 1e300]], "b-update"),
    ])
    def test_overflowing_kernel_collapses_the_scaling(self, cost, update):
        # -cost / lam overflows to -inf, so a row (column) reaches no cell
        with pytest.warns(RuntimeWarning, match="overflow"), \
                pytest.raises(InfeasibleProblemError, match=f"collapsed: {update}"):
            sinkhorn(np.array(cost), uniform(2), uniform(2), cfg=SinkhornConfig(lam=1e-10))

    def test_plan_must_be_a_matrix(self):
        with pytest.raises(ValueError, match="^plan must be a matrix"):
            normalize_plan(np.ones(3))

    @pytest.mark.parametrize("plan,mask", [
        ([[0.0, 0.0], [0.5, 0.5]], [[0, 0], [1, 1]]),  # an empty row
        ([[0.5, 0.0], [0.5, 0.0]], [[1, 0], [1, 0]]),  # an empty column
    ])
    def test_fallback_needs_an_unmasked_cell(self, plan, mask):
        with pytest.raises(ValueError, match="no unmasked cells"):
            normalize_plan(np.array(plan), mask=mask)

    def test_both_forms_match_their_transposed_computation(self):
        rng = np.random.default_rng(3)
        plan = rng.uniform(0, 1, (4, 5)) * (rng.uniform(size=(4, 5)) > 0.4)
        mask = (plan > 0) | (rng.uniform(size=(4, 5)) > 0.5)
        rows, cols = normalize_plan(plan, mask=mask)
        cols_t, rows_t = normalize_plan(plan.T, mask=mask.T)
        assert rows.tobytes() == rows_t.T.tobytes()
        assert cols.tobytes() == cols_t.T.tobytes()
