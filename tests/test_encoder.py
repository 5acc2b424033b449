"""Encoder tests: geometry of the similarity map, the full gradient chain, and
the plain gradient-descent update the training loop applies to the encoder."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rematch.costs import CostNetParams
from rematch.encoder import (EncoderParams, _pair_similarity, init_params, similarity,
                             similarity_backward)
from rematch.losses import _Workspace, rematch_loss, triplet_loss_batch
from rematch.pipeline import RunState, TrainConfig, _apply_update
from rematch.transport import normalize_plan

from warmup_terms import infonce_loss, rce_loss

SGD = TrainConfig(optimizer="sgd")


def sgd_update(params, grad_w_v, grad_w_t, lr):
    """The encoder parameters after one training-loop update with plain SGD."""
    state = RunState(params=params, theta=CostNetParams(), epoch=0, rng=None)
    _apply_update(state, SGD, np.concatenate((grad_w_v, grad_w_t)), lr)
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

    def test_a_workspace_receives_the_same_bits(self):
        # a training batch's shape, where the product runs through BLAS, in the
        # head of a buffer with room for one more row and column
        rng = np.random.default_rng(5)
        params = init_params(32, 32, 16, rng)
        v, t = rng.normal(size=(128, 32)), rng.normal(size=(128, 32))
        fresh, _ = similarity(params, v, t)
        work = _Workspace()
        work("s", 129, 129).fill(np.nan)
        s, _ = similarity(params, v, t, work=work)
        assert np.shares_memory(s, work._flat["s"])
        assert work.allocations == 3  # "s", then the embedding and its squares' scratch
        assert np.array_equal(s.view(np.int64), fresh.view(np.int64))

    @given(k=st.integers(1, 400), scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_pair_similarity_reads_the_diagonal(self, k, scale, seed):
        # row dots of the unit embeddings, not the diagonal of the k x k matrix
        rng = np.random.default_rng(seed)
        params = init_params(12, 9, 16, rng)
        params = EncoderParams(scale * params.w_v, scale * params.w_t)
        v, t = rng.normal(size=(k, 12)), rng.normal(size=(k, 9))
        s, cache = similarity(params, v, t)
        work = _Workspace()
        sims = _pair_similarity(params, v, t, work)
        np.testing.assert_allclose(sims, np.diag(s), rtol=0, atol=1e-15)
        assert work._flat.keys() == {"embed", "unit_scratch"}  # the rows and their squares
        assert work("embed", 2 * k, 16).tobytes() == cache[2].tobytes()

    def test_embeddings_unit_norm(self):
        rng = np.random.default_rng(3)
        params = init_params(6, 6, 4, rng)
        _, cache = similarity(params, rng.normal(size=(5, 6)), rng.normal(size=(3, 6)))
        unit = cache[2]  # both towers' rows, stacked
        assert unit.shape == (8, 4)
        np.testing.assert_allclose(np.linalg.norm(unit, axis=1), 1.0, atol=1e-9)


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


def reference_tower(feats, weights):
    """One tower's unit rows and row norms, computed on their own with the
    encoder's formulas: a separate product and ``np.linalg.norm``."""
    raw = feats @ weights
    norms = np.linalg.norm(raw, axis=1)
    return raw / np.maximum(norms, 1e-12)[:, None], norms


def reference_unit_backward(grad_unit, unit, norms):
    """One tower's gradient through row normalization, on its own."""
    radial = (grad_unit * unit).sum(axis=1, keepdims=True)
    correction = np.where((norms > 1e-12)[:, None], radial * unit, 0.0)
    return (grad_unit - correction) / np.maximum(norms, 1e-12)[:, None]


class TestPerTowerReference:
    """Both towers run stacked; each result equals its tower-by-tower
    computation bit for bit."""

    @pytest.mark.parametrize("n_v,n_t", [(5, 3), (3, 7), (128, 129), (129, 128)])
    @pytest.mark.parametrize("floored", [None, "visual", "text"])
    def test_embedding_similarity_and_gradients(self, n_v, n_t, floored):
        rng = np.random.default_rng(1000 * n_v + n_t)
        params = init_params(12, 9, 16, rng)
        v, t = rng.normal(size=(n_v, 12)), rng.normal(size=(n_t, 9))
        if floored is not None:  # rows whose norms the floor replaces: zero, and tiny
            feats = v if floored == "visual" else t
            feats[0] = 0.0
            feats[1] *= 1e-13
        grad_s = rng.normal(size=(n_v, n_t))
        unit_v, norm_v = reference_tower(v, params.w_v)
        unit_t, norm_t = reference_tower(t, params.w_t)
        expected = {
            "unit": np.concatenate((unit_v, unit_t)), "norms": np.concatenate((norm_v, norm_t)),
            "s": unit_v @ unit_t.T,
            "grad_w_v": v.T @ reference_unit_backward(grad_s @ unit_t, unit_v, norm_v),
            "grad_w_t": t.T @ reference_unit_backward(grad_s.T @ unit_v, unit_t, norm_t)}
        work = _Workspace()
        similarity(params, *(rng.normal(size=(140, width)) for width in (12, 9)), work=work)
        for kwargs in ({}, {"work": work}):
            s, cache = similarity(params, v, t, **kwargs)
            got = dict(zip(("grad_w_v", "grad_w_t"), similarity_backward(cache, grad_s)),
                       unit=cache[2], norms=cache[3], s=s)
            for name, value in expected.items():
                assert got[name].shape == value.shape, name
                assert got[name].tobytes() == value.tobytes(), (name, kwargs.keys())

    @given(n_v=st.integers(2, 129), n_t=st.integers(2, 129), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_swapping_the_towers_transposes_everything(self, n_v, n_t, seed):
        # a mix-up of the stacked blocks (rows for columns, visual for text)
        # breaks this relation; it holds exactly, not only to rounding
        rng = np.random.default_rng(seed)
        params = init_params(12, 9, 16, rng)
        v, t = rng.normal(size=(n_v, 12)), rng.normal(size=(n_t, 9))
        grad_s = rng.normal(size=(n_v, n_t))
        s, cache = similarity(params, v, t)
        swapped, swapped_cache = similarity(EncoderParams(params.w_t, params.w_v), t, v)
        assert swapped.tobytes() == s.T.tobytes()
        grad_w_v, grad_w_t = similarity_backward(cache, grad_s)
        back_w_t, back_w_v = similarity_backward(swapped_cache, grad_s.T)
        assert back_w_v.tobytes() == grad_w_v.tobytes()
        assert back_w_t.tobytes() == grad_w_t.tobytes()


class TestOverflow:
    @pytest.mark.parametrize("projection", ["visual", "text"])
    @pytest.mark.parametrize("weight", [1e300, 1e200])  # overflows in the product, in the norm
    def test_an_overflowing_embedding_names_the_projection(self, projection, weight):
        params = init_params(3, 3, 2, 0)
        getattr(params, "w_t" if projection == "text" else "w_v")[...] = weight
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
        with pytest.raises(FloatingPointError, match="^non-finite gradient in the visual "
                                                     "projection in epoch 1$"):
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
