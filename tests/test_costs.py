"""Cost-learner tests: the similarity-to-cost map, batch reconstruction, and
the supervised descent step."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rematch.costs import (
    CostNetParams,
    cost_forward,
    cost_grads,
    cost_net_step,
    reconstruct_pairs,
)
from rematch.losses import _Workspace

UNIT = np.finfo(float).eps / 2


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class TestCostForward:
    def test_value_at_zero(self):
        theta = CostNetParams(w=-1.0, b=0.0)
        assert cost_forward(np.zeros((1, 1)), theta)[0, 0] == pytest.approx(np.log(2))

    def test_monotone_decreasing_for_negative_slope(self):
        theta = CostNetParams(w=-1.0, b=0.0)
        high = cost_forward(np.array([[1.0]]), theta)[0, 0]
        low = cost_forward(np.array([[-1.0]]), theta)[0, 0]
        assert high < low

    def test_always_positive(self):
        rng = np.random.default_rng(0)
        s = rng.uniform(-1, 1, (6, 6))
        for theta in (CostNetParams(-1, 1), CostNetParams(5, -30), CostNetParams(0, 0)):
            assert np.all(cost_forward(s, theta) > 0)

    def test_parameter_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        s = rng.uniform(-1, 1, (4, 4))
        theta = CostNetParams(w=-0.7, b=0.4)
        dw, db = cost_grads(s, theta)
        h = 1e-7
        num_dw = (cost_forward(s, CostNetParams(theta.w + h, theta.b))
                  - cost_forward(s, CostNetParams(theta.w - h, theta.b))) / (2 * h)
        num_db = (cost_forward(s, CostNetParams(theta.w, theta.b + h))
                  - cost_forward(s, CostNetParams(theta.w, theta.b - h))) / (2 * h)
        np.testing.assert_allclose(dw, num_dw, atol=1e-6)
        np.testing.assert_allclose(db, num_db, atol=1e-6)


    def test_softplus_agrees_with_logaddexp(self):
        # the map was np.logaddexp(0, x); over 60 random cases (n = 2-129)
        # the worst relative gap seen is 4.1e-16
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 130))
            s = rng.uniform(-1, 1, (n, n))
            theta = CostNetParams(w=float(rng.normal(scale=5)), b=float(rng.normal(scale=5)))
            ref = np.logaddexp(0.0, theta.w * s + theta.b)
            np.testing.assert_allclose(cost_forward(s, theta), ref, rtol=1e-15, atol=0)

    def test_softplus_far_from_zero(self):
        x = np.array([-800.0, -40.0, 0.0, 40.0, 800.0, np.inf, -np.inf])
        got = cost_forward(x, CostNetParams(w=1.0, b=0.0))
        np.testing.assert_array_equal(got, np.logaddexp(0.0, x))

    @pytest.mark.parametrize("shape", [(), (3,), (3, 3), (2, 5)])
    @pytest.mark.parametrize("work", [None, _Workspace], ids=["fresh", "workspace"])
    def test_cost_has_the_shape_of_the_similarities(self, shape, work):
        # a vector or a scalar is not broadcast into a matrix, in a workspace
        # or out of one
        s = np.random.default_rng(2).uniform(-1, 1, shape)
        theta = CostNetParams(w=-0.7, b=0.4)
        got = cost_forward(s, theta) if work is None else cost_forward(s, theta, work=work())
        assert got.shape == s.shape
        np.testing.assert_array_equal(got.ravel(),
                                      cost_forward(s.reshape(1, -1), theta)[0])


class TestReconstructPairs:
    def make_batch(self, n=6, pool=10, d=4, seed=0):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(n, d)), rng.normal(size=(pool, d))

    def test_full_reserve_gives_permutation_supervision(self):
        v, pool = self.make_batch()
        _, (rows, cols) = reconstruct_pairs(v, pool, reserve_ratio=1.0, rng=3)
        np.testing.assert_array_equal(rows, np.arange(6))
        np.testing.assert_array_equal(np.sort(cols), np.arange(6))

    def test_half_reserve_counts(self):
        v, pool = self.make_batch(n=4)
        _, (rows, cols) = reconstruct_pairs(v, pool, reserve_ratio=0.5, rng=1)
        assert rows.size == 2
        assert np.unique(cols).size == 2

    def test_half_up_rounding(self):
        v, pool = self.make_batch(n=5)
        _, (rows, _) = reconstruct_pairs(v, pool, reserve_ratio=0.5, rng=1)
        assert rows.size == 3

    def test_supervised_cells_point_at_true_images(self):
        v, pool = self.make_batch(seed=5)
        images, (rows, cols) = reconstruct_pairs(v, pool, reserve_ratio=0.5, rng=7)
        for row, col in zip(rows, cols):
            np.testing.assert_array_equal(images[row], v[col])

    def test_at_most_one_supervised_cell_per_row_and_column(self):
        v, pool = self.make_batch(n=8, seed=9)
        _, (rows, cols) = reconstruct_pairs(v, pool, reserve_ratio=0.7, rng=11)
        assert np.all(np.diff(rows) > 0)  # row order, each row once
        assert np.unique(cols).size == cols.size

    def test_seeded_determinism(self):
        v, pool = self.make_batch()
        a = reconstruct_pairs(v, pool, reserve_ratio=0.5, rng=42)
        b = reconstruct_pairs(v, pool, reserve_ratio=0.5, rng=42)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    @given(n=st.integers(1, 30), data=st.data(),
           reserve_ratio=st.floats(0.01, 1.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_short_pool_is_used_up(self, n, data, reserve_ratio, seed):
        # pool sizes 0..n: a pool smaller than the substitutions the reserve
        # ratio asks for is used up, and every other slot stays supervised
        pool_size = data.draw(st.integers(0, n), label="pool_size")
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(n, 3))
        pool = rng.normal(size=(pool_size, 3))
        images, (rows, cols) = reconstruct_pairs(v, pool, reserve_ratio, rng=seed)
        substitutes = min(n - int(np.floor(reserve_ratio * n + 0.5)), pool_size)
        assert rows.size == np.unique(cols).size == n - substitutes
        np.testing.assert_array_equal(images[rows], v[cols])
        unsupervised = np.delete(images, rows, axis=0)
        picks = [np.flatnonzero((pool == row).all(axis=1)) for row in unsupervised]
        assert all(pick.size == 1 for pick in picks)
        assert len({int(pick[0]) for pick in picks}) == substitutes


class TestCostNetStep:
    def test_no_supervision_is_a_fixed_point(self):
        theta = CostNetParams(w=-1.0, b=1.0)
        out, clipped = cost_net_step(theta, np.zeros(0), lr=0.1)
        assert out == theta
        assert not clipped

    def test_single_cell_update_closed_form(self):
        theta = CostNetParams(w=-1.0, b=0.0)
        out, _ = cost_net_step(theta, np.array([0.8]), lr=0.1)
        sig = sigmoid(-0.8)
        assert out.w == pytest.approx(-1.0 - 0.1 * sig * 0.8)
        assert out.b == pytest.approx(0.0 - 0.1 * sig)

    def test_descent_decreases_then_plateaus(self):
        rng = np.random.default_rng(0)
        sims = rng.uniform(-1, 1, (8, 8))
        pi = np.zeros((8, 8))
        pi[np.arange(8), rng.permutation(8)] = 1.0
        rows, cols = np.nonzero(pi)
        theta = CostNetParams(w=-1.0, b=1.0)
        trace = []
        for _ in range(200):
            trace.append((pi * cost_forward(sims, theta)).sum())
            theta, _ = cost_net_step(theta, sims[rows, cols], lr=0.05)
        trace.append((pi * cost_forward(sims, theta)).sum())
        diffs = np.diff(trace)
        assert np.all(diffs <= 1e-12)
        assert trace[-1] < trace[0]
        assert abs(diffs[-1]) < abs(diffs[0])

    @pytest.mark.parametrize("name,value", [("lr", np.nan), ("lr", np.inf), ("lr", 0.0)])
    def test_bad_scalar_arguments_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            cost_net_step(CostNetParams(), np.full(2, 0.5), **{"lr": 0.1, name: value})

    @pytest.mark.parametrize("where", ["sims"])
    def test_nan_cell_raises(self, where):
        cells = {"sims": np.full(2, 0.5)}
        cells[where][0] = np.nan
        with pytest.raises(FloatingPointError, match="cost map"):
            cost_net_step(CostNetParams(), cells["sims"], lr=0.1)

    def test_parameter_bound_engages(self):
        theta = CostNetParams(w=-1.0, b=0.0)
        out, clipped = cost_net_step(theta, np.full(4, 1.0), lr=1e6)
        assert clipped
        assert abs(out.w) <= 50.0 and abs(out.b) <= 50.0


class TestExactAgreement:
    """The step and the rebuilt batch equal, bit for bit, their plainer forms."""

    @pytest.mark.parametrize("seed", range(5))
    def test_step_equals_the_full_forward_route(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        sims = rng.uniform(-1, 1, (n, n))
        pi = (rng.uniform(size=(n, n)) > 0.8).astype(float)
        rows, cols = np.nonzero(pi)
        theta = CostNetParams(w=float(rng.normal()), b=float(rng.normal()))
        dw_cells, db_cells = cost_grads(sims, theta)
        new_w = theta.w - 0.3 * float(dw_cells[rows, cols].sum())
        new_b = theta.b - 0.3 * float(db_cells[rows, cols].sum())
        out, clipped = cost_net_step(theta, sims[rows, cols], lr=0.3)
        assert out == CostNetParams(new_w, new_b)
        assert not clipped

    @given(n=st.integers(1, 129), density=st.floats(0.0, 1.0), lr=st.floats(1e-6, 100.0),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_step_over_the_cells_of_a_supervision_matrix(self, n, density, lr, seed):
        # the supervised cells of a 0/1 matrix, in np.nonzero's order: the
        # step sums their cell gradients in that order, bit for bit, clamp
        # included. The former dense route (pi * grads).sum() adds the same
        # terms in numpy's pairwise order over all n^2 cells; over 20,000
        # draws of this kind the two sums were at most 5.5 * u * sum|terms|
        # apart, so the bound of 16 leaves a margin of about 3
        rng = np.random.default_rng(seed)
        pi = (rng.uniform(size=(n, n)) < density).astype(float)
        sims = rng.uniform(-1, 1, (n, n))
        theta = CostNetParams(float(rng.uniform(-50, 50)), float(rng.uniform(-50, 50)))
        rows, cols = np.nonzero(pi)
        out, clipped = cost_net_step(theta, sims[rows, cols], lr)

        grads = cost_grads(sims, theta)
        cells = [full[rows, cols] for full in grads]
        steps = [theta.w - lr * float(cells[0].sum()), theta.b - lr * float(cells[1].sum())]
        assert out == CostNetParams(*(float(np.clip(v, -50.0, 50.0)) for v in steps))
        assert clipped == any(abs(v) > 50.0 for v in steps)
        for terms, full in zip(cells, grads):
            assert (abs(float(terms.sum()) - float((pi * full).sum()))
                    <= 16 * UNIT * np.abs(terms).sum())

    @pytest.mark.parametrize("ratio", [0.1, 0.5, 0.7, 1.0])
    def test_rebuilt_batch_equals_the_row_by_row_build(self, ratio):
        n = 9
        feats = np.random.default_rng(4)
        v, pool = feats.normal(size=(n, 4)), feats.normal(size=(12, 4))
        rng = np.random.default_rng(21)
        n_reserved = int(np.floor(ratio * n + 0.5))
        slots = rng.permutation(n)
        reserved = np.sort(slots[:n_reserved])
        images = np.empty_like(v)
        owners = np.full(n, -1)
        positions = rng.permutation(n)
        for pos, slot in zip(positions[:n_reserved], reserved):
            images[pos] = v[slot]
            owners[pos] = slot
        pool_pick = rng.choice(pool.shape[0], size=n - n_reserved, replace=False)
        for pos, pick in zip(positions[n_reserved:], pool_pick):
            images[pos] = pool[pick]
        pi_sup = np.zeros((n, n))
        rows = np.flatnonzero(owners >= 0)
        pi_sup[rows, owners[rows]] = 1.0

        got_images, got_cells = reconstruct_pairs(v, pool, reserve_ratio=ratio, rng=21)
        np.testing.assert_array_equal(got_images, images)
        for got, want in zip(got_cells, np.nonzero(pi_sup), strict=True):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.sort(got_cells[1]), reserved)


class TestInputBoundaries:
    @pytest.mark.parametrize("ratio", [0.0, 1.5, np.nan])
    def test_bad_reserve_ratio_rejected(self, ratio):
        with pytest.raises(ValueError, match="^reserve_ratio must be"):
            reconstruct_pairs(np.ones((4, 3)), np.ones((4, 3)), ratio, 0)

    def test_pool_rows_of_another_width_rejected(self):
        with pytest.raises(ValueError, match="^v_pool rows"):
            reconstruct_pairs(np.ones((3, 2)), np.ones((2, 3)), 0.5, 0)
