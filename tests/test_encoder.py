"""Encoder tests: geometry of the similarity map, the full gradient chain, and
the plain gradient-descent update the training loop applies to the encoder."""

import warnings

import numpy as np
import pytest

from rematch.costs import CostNetParams
from rematch.encoder import EncoderParams, init_params, similarity, similarity_backward
from rematch.losses import rematch_loss, triplet_loss_batch
from rematch.pipeline import RunState, TrainConfig, _apply_update
from rematch.transport import normalize_plan

from warmup_terms import infonce_loss, rce_loss

SGD = TrainConfig(optimizer="sgd")


def sgd_update(params, grad_w_v, grad_w_t, lr):
    """The encoder parameters after one training-loop update with plain SGD."""
    state = RunState(params=params, theta=CostNetParams(), epoch=0, rng=None)
    _apply_update(state, SGD, grad_w_v, grad_w_t, lr)
    return state.params


class TestSimilarity:
    def test_identical_rows_have_unit_diagonal(self):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(4, 6))
        params = EncoderParams(np.eye(6), np.eye(6))
        s, _ = similarity(params, feats, feats)
        np.testing.assert_allclose(np.diag(s), 1.0, atol=1e-12)

    def test_orthogonal_embeddings_score_zero(self):
        params = EncoderParams(np.eye(2), np.eye(2))
        v = np.array([[1.0, 0.0]])
        t = np.array([[0.0, 2.0]])
        s, _ = similarity(params, v, t)
        assert s[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_entries_bounded_by_one(self):
        rng = np.random.default_rng(1)
        params = init_params(8, 5, 4, rng)
        s, _ = similarity(params, rng.normal(size=(6, 8)), rng.normal(size=(6, 5)))
        assert np.all(np.abs(s) <= 1 + 1e-12)

    def test_scale_invariance_of_inputs(self):
        rng = np.random.default_rng(2)
        params = init_params(5, 5, 3, rng)
        v = rng.normal(size=(3, 5))
        t = rng.normal(size=(3, 5))
        s1, _ = similarity(params, v, t)
        s2, _ = similarity(params, 7.3 * v, t * 0.1)
        np.testing.assert_allclose(s1, s2, atol=1e-12)

    def test_out_receives_the_same_bits(self):
        # a training batch's shape, where the product runs through BLAS
        rng = np.random.default_rng(5)
        params = init_params(32, 32, 16, rng)
        v, t = rng.normal(size=(128, 32)), rng.normal(size=(128, 32))
        fresh, _ = similarity(params, v, t)
        out = np.full((128, 128), np.nan)
        s, _ = similarity(params, v, t, out=out)
        assert s is out
        assert np.array_equal(s.view(np.int64), fresh.view(np.int64))

    def test_embeddings_unit_norm(self):
        rng = np.random.default_rng(3)
        params = init_params(6, 6, 4, rng)
        _, cache = similarity(params, rng.normal(size=(5, 6)), rng.normal(size=(5, 6)))
        _, _, unit_v, unit_t, _, _ = cache
        np.testing.assert_allclose(np.linalg.norm(unit_v, axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(np.linalg.norm(unit_t, axis=1), 1.0, atol=1e-9)


def chain_gradient_error(loss_fn, seed, d_in=5, d=4, n=3, h=1e-6):
    """Compare the analytic parameter gradient of loss_fn(similarity(...))
    against central finite differences."""
    rng = np.random.default_rng(seed)
    params = init_params(d_in, d_in, d, rng)
    v = rng.normal(size=(n, d_in))
    t = rng.normal(size=(n, d_in))

    def value(p):
        s, _ = similarity(p, v, t)
        return loss_fn(s)[0]

    s, cache = similarity(params, v, t)
    _, grad_s = loss_fn(s)
    grad_w_v, grad_w_t = similarity_backward(cache, grad_s)

    worst = 0.0
    for target, grad in (("w_v", grad_w_v), ("w_t", grad_w_t)):
        base = getattr(params, target)
        numeric = np.zeros_like(base)
        for i in range(base.shape[0]):
            for j in range(base.shape[1]):
                up = params.copy()
                getattr(up, target)[i, j] += h
                down = params.copy()
                getattr(down, target)[i, j] -= h
                numeric[i, j] = (value(up) - value(down)) / (2 * h)
        scale = max(np.abs(numeric).max(), 1e-12)
        worst = max(worst, np.abs(grad - numeric).max() / scale)
    return worst


class TestGradientChain:
    def test_infonce_chain(self):
        for seed in range(5):
            assert chain_gradient_error(lambda s: infonce_loss(s, 0.5), seed) < 1e-4

    def test_rce_chain(self):
        for seed in range(5):
            assert chain_gradient_error(lambda s: rce_loss(s, 0.5, 1e-7), seed) < 1e-4

    def test_triplet_chain(self):
        checked = 0
        seed = 0
        while checked < 5:
            seed += 1
            rng = np.random.default_rng(seed)
            params = init_params(5, 5, 4, rng)
            v = rng.normal(size=(3, 5))
            t = rng.normal(size=(3, 5))
            s, _ = similarity(params, v, t)
            off = s + np.where(np.eye(3, dtype=bool), -np.inf, 0.0)
            by_row = np.sort(off, axis=1)
            by_col = np.sort(off, axis=0)
            if min((by_row[:, -1] - by_row[:, -2]).min(),
                   (by_col[-1] - by_col[-2]).min()) < 1e-2:
                continue
            assert chain_gradient_error(
                lambda x: triplet_loss_batch(x, 0.2), seed) < 1e-4
            checked += 1

    def test_rematch_chain(self):
        rng = np.random.default_rng(17)
        plan = rng.uniform(0, 1, (3, 3)) * (1 - np.eye(3))
        refined_v2t, refined_t2v = normalize_plan(plan)
        for seed in range(5):
            err = chain_gradient_error(
                lambda s: rematch_loss(refined_v2t, refined_t2v, s, 0.5), seed)
            assert err < 1e-4


class TestOverflow:
    @pytest.mark.parametrize("projection", ["visual", "text"])
    @pytest.mark.parametrize("weight", [1e300, 1e200])  # overflows in the product, in the norm
    def test_an_overflowing_embedding_names_the_projection(self, projection, weight):
        params = init_params(3, 3, 2, 0)
        setattr(params, "w_t" if projection == "text" else "w_v", np.full((3, 2), weight))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(FloatingPointError,
                               match=f"^the {projection} projection's embedding failed"):
                similarity(params, np.full((2, 3), 1e10), np.full((2, 3), 1e10))


class TestSgdStep:
    def test_zero_gradient_is_identity(self):
        rng = np.random.default_rng(4)
        params = init_params(4, 4, 3, rng)
        out = sgd_update(params, np.zeros_like(params.w_v),
                       np.zeros_like(params.w_t), lr=0.1)
        np.testing.assert_array_equal(out.w_v, params.w_v)
        np.testing.assert_array_equal(out.w_t, params.w_t)

    def test_zero_learning_rate_is_identity(self):
        rng = np.random.default_rng(5)
        params = init_params(4, 4, 3, rng)
        out = sgd_update(params, rng.normal(size=(4, 3)), rng.normal(size=(4, 3)),
                       lr=0.0)
        np.testing.assert_array_equal(out.w_v, params.w_v)

    def test_step_is_minus_lr_times_gradient(self):
        rng = np.random.default_rng(8)
        params = init_params(4, 5, 3, rng)
        grad_w_v, grad_w_t = rng.normal(size=(4, 3)), rng.normal(size=(5, 3))
        out = sgd_update(params, grad_w_v, grad_w_t, lr=0.25)
        np.testing.assert_array_equal(out.w_v, params.w_v - 0.25 * grad_w_v)
        np.testing.assert_array_equal(out.w_t, params.w_t - 0.25 * grad_w_t)

    def test_descends_a_smooth_loss(self):
        rng = np.random.default_rng(6)
        params = init_params(5, 5, 4, rng)
        v = rng.normal(size=(4, 5))
        t = rng.normal(size=(4, 5))
        losses = []
        for _ in range(10):
            s, cache = similarity(params, v, t)
            value, grad_s = infonce_loss(s, 0.5)
            losses.append(value)
            grads = similarity_backward(cache, grad_s)
            params = sgd_update(params, *grads, lr=0.05)
        assert losses[-1] < losses[0]

    def test_rejects_non_finite_gradient(self):
        rng = np.random.default_rng(7)
        params = init_params(3, 3, 2, rng)
        bad = np.full((3, 2), np.nan)
        with pytest.raises(FloatingPointError, match="visual"):
            sgd_update(params, bad, np.zeros((3, 2)), lr=0.1)


class TestInputBoundaries:
    @pytest.mark.parametrize("d", [1, 0, 2.5, True])
    def test_bad_embedding_dimension_rejected(self, d):
        with pytest.raises(ValueError, match="^d must be an integer >= 2"):
            init_params(3, 4, d, 0)

    @pytest.mark.parametrize("v_width,t_width,needle", [(5, 4, "visual"), (3, 5, "text")])
    def test_feature_width_must_match_the_projection(self, v_width, t_width, needle):
        params = init_params(3, 4, 2, 0)
        with pytest.raises(ValueError, match=f"^{needle} feature width"):
            similarity(params, np.ones((2, v_width)), np.ones((2, t_width)))
