"""Loss values against worked examples; every gradient against central
finite differences."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rematch import costs, encoder, losses, pipeline, transport
from rematch.losses import (
    _Workspace,
    matching_probs,
    per_pair_triplet_losses,
    rematch_loss,
    triplet_loss_batch,
    warmup_loss,
)
from rematch.transport import normalize_plan

from warmup_terms import infonce_loss, rce_loss


def finite_difference(fn, s, h=1e-6):
    grad = np.zeros_like(s)
    for i in range(s.shape[0]):
        for j in range(s.shape[1]):
            up = s.copy()
            up[i, j] += h
            down = s.copy()
            down[i, j] -= h
            grad[i, j] = (fn(up) - fn(down)) / (2 * h)
    return grad


def relative_gradient_error(fn, s):
    _, analytic = fn(s)
    numeric = finite_difference(lambda x: fn(x)[0], s)
    return np.abs(analytic - numeric).max() / max(np.abs(numeric).max(), 1e-12)


def no_hardest_negative_ties(s, gap=1e-3):
    off = s + np.where(np.eye(s.shape[0], dtype=bool), -np.inf, 0.0)
    by_row = np.sort(off, axis=1)
    by_col = np.sort(off, axis=0)
    return min((by_row[:, -1] - by_row[:, -2]).min(),
               (by_col[-1] - by_col[-2]).min()) > gap


def random_refined(rng, n):
    plan = rng.uniform(0, 1, (n, n)) * (1 - np.eye(n))
    return normalize_plan(plan)


def triplet_loss(s, i, alpha):
    """Reference: hinge loss of pair ``i`` against its hardest in-batch
    negatives, ``[alpha - s_ii + max_{j!=i} s_ij]_+ + [alpha - s_ii +
    max_{j!=i} s_ji]_+``, and its gradient; ties pick the first index."""
    s = np.asarray(s, dtype=np.float64)
    others = np.arange(len(s)) != i
    j_star = np.flatnonzero(others)[np.argmax(s[i, others])]
    h_star = np.flatnonzero(others)[np.argmax(s[others, i])]
    grad = np.zeros_like(s)
    value = 0.0
    for cell in ((i, j_star), (h_star, i)):
        term = alpha - s[i, i] + s[cell]
        if term > 0:
            value += term
            grad[i, i] -= 1.0
            grad[cell] += 1.0
    return value, grad


class TestTriplet:
    def test_satisfied_margin_gives_zero(self):
        s = np.array([[0.9, 0.2], [0.3, 0.8]])
        value, grad = triplet_loss(s, 0, alpha=0.2)
        assert value == 0.0
        assert np.all(grad == 0.0)
        total, grad = triplet_loss_batch(s, alpha=0.2)
        assert total == 0.0
        assert np.all(grad == 0.0)

    def test_inverted_similarities(self):
        s = np.array([[0.1, 0.9], [0.9, 0.1]])
        value, _ = triplet_loss(s, 0, alpha=0.2)
        assert value == pytest.approx(2.0)
        assert per_pair_triplet_losses(s, 0.2)[0] == pytest.approx(2.0)

    def test_gradient_touches_three_cells_at_most(self):
        rng = np.random.default_rng(8)
        s = rng.uniform(-1, 1, (5, 5))
        _, grad = triplet_loss(s, 2, alpha=0.5)
        assert np.count_nonzero(grad) <= 3

    def test_batch_agrees_with_per_pair_sum(self):
        rng = np.random.default_rng(1)
        s = rng.uniform(-1, 1, (6, 6))
        total, grad = triplet_loss_batch(s, alpha=0.2)
        assert total == pytest.approx(per_pair_triplet_losses(s, 0.2).sum())
        assert total == pytest.approx(
            sum(triplet_loss(s, i, 0.2)[0] for i in range(6)))
        np.testing.assert_array_equal(
            grad, sum(triplet_loss(s, i, 0.2)[1] for i in range(6)))

    def test_gradient_matches_finite_differences(self):
        checked = 0
        seed = 0
        while checked < 20:
            s = np.random.default_rng(seed).uniform(-1, 1, (4, 4))
            seed += 1
            if not no_hardest_negative_ties(s):
                continue
            err = relative_gradient_error(lambda x: triplet_loss_batch(x, 0.2), s)
            assert err < 1e-5
            checked += 1

    def test_single_pair_rejected(self):
        with pytest.raises(ValueError):
            triplet_loss_batch(np.array([[1.0]]), 0.2)
        with pytest.raises(ValueError):
            per_pair_triplet_losses(np.array([[1.0]]), 0.2)

    @given(n=st.integers(2, 60), levels=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_transposing_transposes_the_gradient(self, n, levels, seed):
        # the rows' hinges become the columns' and the other way round, ties
        # included (few levels make ties common), exactly
        s = np.random.default_rng(seed).integers(0, levels, (n, n)) / levels
        value, grad = triplet_loss_batch(s, 0.2)
        value_t, grad_t = triplet_loss_batch(s.T, 0.2)
        assert value_t == value
        assert grad_t.tobytes() == grad.T.tobytes()

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_non_finite_margin_rejected(self, alpha):
        s = np.random.default_rng(0).uniform(-1, 1, (3, 3))
        for loss in (triplet_loss_batch, per_pair_triplet_losses):
            with pytest.raises(ValueError, match="alpha"):
                loss(s, alpha)


class TestMatchingProbs:
    @pytest.mark.parametrize("tau", [np.nan, np.inf, 0.0, -0.5])
    def test_bad_temperature_rejected(self, tau):
        for loss in (matching_probs, infonce_loss, rce_loss, warmup_loss):
            with pytest.raises(ValueError, match="tau"):
                loss(np.eye(3), tau)

    def test_flat_similarities_give_uniform(self):
        p_v2t, p_t2v = matching_probs(np.zeros((2, 2)), tau=0.7)
        np.testing.assert_allclose(p_v2t, 0.5)
        np.testing.assert_allclose(p_t2v, 0.5)

    def test_dominant_logits_saturate(self):
        s = np.array([[10.0, 0.0], [0.0, 10.0]])
        p_v2t, p_t2v = matching_probs(s, tau=0.05)
        assert np.diag(p_v2t).min() > 1 - 1e-8
        assert np.diag(p_t2v).min() > 1 - 1e-8

    def test_normalization_identities(self):
        rng = np.random.default_rng(2)
        s = rng.uniform(-1, 1, (3, 3))
        p_v2t, p_t2v = matching_probs(s, tau=0.3)
        np.testing.assert_allclose(p_v2t.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(p_t2v.sum(axis=0), 1.0, atol=1e-12)

    def test_row_shift_invariance(self):
        rng = np.random.default_rng(3)
        s = rng.uniform(-1, 1, (4, 4))
        shifted = s.copy()
        shifted[1] += 5.0
        a, _ = matching_probs(s, tau=0.5)
        b, _ = matching_probs(shifted, tau=0.5)
        np.testing.assert_allclose(a[1], b[1], atol=1e-12)


class TestInfoNCE:
    def test_single_candidate_costs_nothing(self):
        value, _ = infonce_loss(np.array([[0.3]]), tau=0.5)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_uniform_predictions(self):
        value, _ = infonce_loss(np.zeros((4, 4)), tau=1.0)
        assert value == pytest.approx(2 * np.log(4))

    def test_gradient_matches_finite_differences(self):
        for seed in range(20):
            s = np.random.default_rng(seed).uniform(-1, 1, (4, 4))
            assert relative_gradient_error(lambda x: infonce_loss(x, 0.5), s) < 1e-6


class TestRCE:
    def test_confident_correct_prediction(self):
        eps = 1e-7
        s = np.array([[30.0, 0.0], [0.0, 30.0]])
        value, _ = rce_loss(s, tau=0.5, eps=eps)
        assert value == pytest.approx(-2 * np.log1p(-eps), rel=1e-3)

    def test_uniform_prediction_two_candidates(self):
        eps = 1e-7
        value, _ = rce_loss(np.zeros((2, 2)), tau=1.0, eps=eps)
        per_direction = -(0.5 * np.log1p(-eps) + 0.5 * np.log(eps))
        assert value == pytest.approx(2 * per_direction)

    def test_gradient_matches_finite_differences(self):
        for seed in range(20):
            s = np.random.default_rng(seed).uniform(-1, 1, (3, 3))
            assert relative_gradient_error(
                lambda x: rce_loss(x, 0.5, 1e-7), s) < 1e-6


class TestWarmup:
    @given(n=st.integers(2, 60), tau=st.floats(0.01, 1.0), rce_weight=st.floats(0.0, 2.0),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_transposing_transposes_the_gradient(self, n, tau, rce_weight, seed):
        # the two directions trade places, so each sum runs in another order.
        # Over 32,000 draws of this kind and 28,800 at the range's ends the
        # value moved by at most 5.6e-16 of itself and the gradient by 1.5e-14
        # of its largest entry; the bounds leave a margin above 3
        s = np.random.default_rng(seed).uniform(-1, 1, (n, n))
        value, grad = warmup_loss(s, tau, rce_weight=rce_weight)
        value_t, grad_t = warmup_loss(s.T, tau, rce_weight=rce_weight)
        assert abs(value_t - value) <= 2e-15 * abs(value)
        assert np.abs(grad_t - grad.T).max() <= 5e-14 * np.abs(grad).max()


class TestRematch:
    @given(n=st.integers(2, 60), tau=st.floats(0.01, 1.0),
           variant=st.sampled_from(["sym_kl", "kl", "ce"]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_swapping_the_transposed_forms_transposes_the_gradient(self, n, tau, variant,
                                                                  seed):
        """``rematch_loss(t2v.T, v2t.T, s.T)``: the two directions trade places,
        so each sum runs in another order. Over 42,000 draws of this kind (a
        third per variant, 0-80% of the plan's cells empty) and 2,400 at the
        ends of n and tau, the value moved by at most 6.3e-16 of itself and the
        gradient by 6.1e-15 of its largest entry; the bounds leave a margin
        above 3."""
        rng = np.random.default_rng(seed)
        s = rng.uniform(-1, 1, (n, n))
        plan = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) > rng.uniform(0, 0.8))
        refined_v2t, refined_t2v = normalize_plan(plan)
        value, grad = rematch_loss(refined_v2t, refined_t2v, s, tau, variant)
        value_t, grad_t = rematch_loss(refined_t2v.T, refined_v2t.T, s.T, tau, variant)
        assert abs(value_t - value) <= 2e-15 * abs(value)
        assert np.abs(grad_t - grad.T).max() <= 2e-14 * np.abs(grad).max()

    def test_matching_distributions_cost_nothing(self):
        rng = np.random.default_rng(5)
        s = rng.uniform(-1, 1, (3, 3))
        p_v2t, p_t2v = matching_probs(s, tau=0.5)
        value, grad = rematch_loss(p_v2t, p_t2v, s, tau=0.5)
        assert value == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_allclose(grad, 0.0, atol=1e-9)

    @pytest.mark.parametrize("variant", ["sym_kl", "kl", "ce"])
    def test_gradient_matches_finite_differences(self, variant):
        for seed in range(15):
            rng = np.random.default_rng(seed)
            s = rng.uniform(-1, 1, (3, 3))
            refined_v2t, refined_t2v = random_refined(rng, 3)
            err = relative_gradient_error(
                lambda x: rematch_loss(refined_v2t, refined_t2v, x, 0.5, variant), s)
            assert err < 1e-5

    def test_rejects_unnormalized_targets(self):
        s = np.zeros((2, 2))
        bad = np.array([[0.4, 0.4], [0.5, 0.5]])
        with pytest.raises(ValueError):
            rematch_loss(bad, bad.T, s, tau=0.5)


# The formulas below are the losses written plainly: no shared softmaxes,
# ratios or buffers. The library must agree with them bit for bit, so that
# training payloads do not move.

def softmax_rows(logits):
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def separate_probs(s, tau):
    return softmax_rows(s / tau), softmax_rows(s.T / tau).T


def separate_infonce(s, tau):
    n = s.shape[0]
    p_v2t, p_t2v = separate_probs(s, tau)
    value = float(-(np.log(np.clip(np.diag(p_v2t), 1e-300, None))
                    + np.log(np.clip(np.diag(p_t2v), 1e-300, None))).mean())
    eye = np.eye(n)
    return value, ((p_v2t - eye) + (p_t2v - eye)) / (n * tau)


def closed_form_rce(s, tau, eps):
    """RCE from the diagonals and the row and column sums: ``log_y`` is
    ``log(eps)`` off the diagonal and ``log1p(-eps)`` on it."""
    n = s.shape[0]
    p_v2t, p_t2v = separate_probs(s, tau)
    log_off, gap = np.log(eps), np.log1p(-eps) - np.log(eps)
    # the library holds p_t2v C-ordered, so its column sums add row by row
    rows = log_off * (p_v2t.sum(axis=1) - 1.0)
    cols = log_off * (np.ascontiguousarray(p_t2v).sum(axis=0) - 1.0)
    d_v2t, d_t2v = np.diag(p_v2t), np.diag(p_t2v)
    value = float(-(log_off * 2 * n + (rows + cols).sum()
                    + gap * (d_v2t.sum() + d_t2v.sum())) / n)
    grad = p_v2t * (rows + gap * d_v2t)[:, None] + p_t2v * (cols + gap * d_t2v)
    np.fill_diagonal(grad, d_v2t * (rows + gap * (d_v2t - 1.0))
                     + d_t2v * (cols + gap * (d_t2v - 1.0)))
    return value, grad / (n * tau)


def nxn_rce(s, tau, eps):
    """RCE summed over the full ``(n, n)`` matrix of label logarithms, as the
    library computed it before the closed form."""
    n = s.shape[0]
    p_v2t, p_t2v = separate_probs(s, tau)
    log_y = np.full((n, n), np.log(eps))
    np.fill_diagonal(log_y, np.log1p(-eps))
    value = float(-((p_v2t * log_y).sum() + (p_t2v * log_y).sum()) / n)
    grad = (rows_backward(p_v2t, -log_y, tau)
            + rows_backward(p_t2v.T, -log_y, tau).T) / n
    return value, grad


def separate_warmup(s, tau, eps, rce_weight, rce=closed_form_rce):
    nce, nce_grad = separate_infonce(s, tau)
    value, grad = rce(s, tau, eps)
    return nce + rce_weight * value, nce_grad + rce_weight * grad


def rows_backward(probs, dloss_dprobs, tau):
    inner = (dloss_dprobs * probs).sum(axis=1, keepdims=True)
    return probs * (dloss_dprobs - inner) / tau


def floor_distribution(dist):
    floored = np.maximum(dist, 1e-12)
    return floored / floored.sum(axis=-1, keepdims=True)


def direction_terms(refined, probs, variant):
    r = floor_distribution(refined)
    p = floor_distribution(probs)
    if variant == "sym_kl":
        log_ratio = np.log(r / p)  # log(p / r) is its negative
        forward = (r * log_ratio).sum(axis=1)
        backward = (p * log_ratio).sum(axis=1)
        return 0.5 * (forward - backward), 0.5 * (-r / p - log_ratio + 1.0)
    if variant == "kl":
        return (r * np.log(r / p)).sum(axis=1), -r / p
    return -(r * np.log(p)).sum(axis=1), -r / p


def two_log_direction_terms(refined, probs, variant):
    """Symmetric KL with its own logarithm of ``p / r``, as the library
    computed it before it took one logarithm per direction."""
    r = floor_distribution(refined)
    p = floor_distribution(probs)
    forward = (r * np.log(r / p)).sum(axis=1)
    backward = (p * np.log(p / r)).sum(axis=1)
    return 0.5 * (forward + backward), 0.5 * (-r / p + np.log(p / r) + 1.0)


def separate_rematch(refined_v2t, refined_t2v, s, tau, variant, terms=direction_terms):
    p_v2t, p_t2v = separate_probs(s, tau)
    row_terms, d_rows = terms(refined_v2t, p_v2t, variant)
    col_terms, d_cols = terms(refined_t2v.T, p_t2v.T, variant)
    grad = (rows_backward(p_v2t, d_rows, tau)
            + rows_backward(p_t2v.T, d_cols, tau).T) / s.shape[0]
    return float(row_terms.mean() + col_terms.mean()), grad


def scatter_triplet_grad(s, alpha):
    n = s.shape[0]
    off = s + np.where(np.eye(n, dtype=bool), -np.inf, 0.0)
    j_star = off.argmax(axis=1)
    h_star = off.argmax(axis=0)
    diag = np.diag(s)
    active_row = alpha - diag + off[np.arange(n), j_star] > 0
    active_col = alpha - diag + off[h_star, np.arange(n)] > 0
    grad = np.zeros_like(s)
    idx = np.arange(n)
    np.subtract.at(grad, (idx[active_row], idx[active_row]), 1.0)
    np.add.at(grad, (idx[active_row], j_star[active_row]), 1.0)
    np.subtract.at(grad, (idx[active_col], idx[active_col]), 1.0)
    np.add.at(grad, (h_star[active_col], idx[active_col]), 1.0)
    return grad


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


class TestExactAgreement:
    @pytest.mark.parametrize("seed", range(10))
    def test_warmup_equals_separate_terms(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        s = rng.uniform(-1, 1, (n, n))
        tau, eps, weight = (0.05, 1e-7, 1.0) if seed % 2 else (0.3, 1e-3, 0.7)
        value, grad = warmup_loss(s, tau, eps, weight)
        ref_value, ref_grad = separate_warmup(s, tau, eps, weight)
        assert value == ref_value
        assert same_bits(grad, ref_grad)

    def test_warmup_equals_public_terms(self):
        s = np.random.default_rng(3).uniform(-1, 1, (32, 32))
        v1, g1 = infonce_loss(s, 0.05)
        v2, g2 = rce_loss(s, 0.05, 1e-7)
        value, grad = warmup_loss(s, 0.05, 1e-7, 1.0)
        assert value == v1 + v2
        assert same_bits(grad, g1 + g2)

    @pytest.mark.parametrize("variant", ["sym_kl", "kl", "ce"])
    @pytest.mark.parametrize("seed", range(5))
    def test_rematch_equals_unshared_ratios(self, variant, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        s = rng.uniform(-1, 1, (n, n))
        plan = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) > 0.5)
        refined_v2t, refined_t2v = normalize_plan(plan)
        value, grad = rematch_loss(refined_v2t, refined_t2v, s, 0.05, variant)
        ref_value, ref_grad = separate_rematch(refined_v2t, refined_t2v, s, 0.05,
                                               variant)
        assert value == ref_value
        assert same_bits(grad, ref_grad)

    @pytest.mark.parametrize("seed", range(10))
    def test_triplet_gradient_equals_scatter_adds(self, seed):
        # coarse similarities: hardest negatives tie, and one cell can be the
        # hardest negative of its row and of its column at once
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        s = np.round(rng.uniform(-1, 1, (n, n)), 1)
        if seed == 0:
            s = np.zeros((n, n))
        _, grad = triplet_loss_batch(s, 0.2)
        assert same_bits(grad, scatter_triplet_grad(s, 0.2))

    # numpy's pairwise summation splits at 128 entries, and the trailing batch
    # of a desk run holds 104 pairs
    @pytest.mark.parametrize("n", [104, 128, 129])
    def test_warmup_equals_separate_terms_at_batch_shapes(self, n):
        s = np.random.default_rng(n).uniform(-1, 1, (n, n))
        value, grad = warmup_loss(s, 0.05, 1e-7, 1.0)
        ref_value, ref_grad = separate_warmup(s, 0.05, 1e-7, 1.0)
        assert value == ref_value
        assert same_bits(grad, ref_grad)

    @pytest.mark.parametrize("variant", ["sym_kl", "kl", "ce"])
    @pytest.mark.parametrize("n", [104, 128, 129])
    def test_rematch_equals_unshared_ratios_at_batch_shapes(self, variant, n):
        rng = np.random.default_rng(n)
        s = rng.uniform(-1, 1, (n, n))
        plan = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) > 0.5)
        refined_v2t, refined_t2v = normalize_plan(plan)
        value, grad = rematch_loss(refined_v2t, refined_t2v, s, 0.05, variant)
        ref_value, ref_grad = separate_rematch(refined_v2t, refined_t2v, s, 0.05,
                                               variant)
        assert value == ref_value
        assert same_bits(grad, ref_grad)

    @pytest.mark.parametrize("n", [104, 128, 129])
    def test_triplet_equals_reference_at_batch_shapes(self, n):
        s = np.round(np.random.default_rng(n).uniform(-1, 1, (n, n)), 1)
        _, grad = triplet_loss_batch(s, 0.2)
        assert same_bits(grad, scatter_triplet_grad(s, 0.2))
        per_pair = [triplet_loss(s, i, 0.2)[0] for i in range(n)]
        assert same_bits(per_pair_triplet_losses(s, 0.2), per_pair)


def random_case(seed):
    """One of the 60 cross-check cases: n in 2..129 and a refined plan."""
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(2, 130))
    s = rng.uniform(-1, 1, (n, n))
    plan = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) > 0.5)
    return s, normalize_plan(plan)


class TestEarlierFormulas:
    """The closed-form RCE and the one-log symmetric KL against the formulas
    they replaced, over 60 random cases. Worst gaps seen: 4e-16 relative on
    either value, 3e-16 of the largest entry on the sym-KL gradient, and 7e-13
    on the RCE gradient, where the n x n formula itself is that far from an
    extended-precision evaluation once the softmax saturates (tau 0.05)."""

    def test_closed_form_rce_agrees_with_the_nxn_sum(self):
        for seed in range(60):
            s, _ = random_case(seed)
            tau, eps = (0.05, 1e-7) if seed % 2 else (0.3, 1e-3)
            value, grad = rce_loss(s, tau, eps)
            ref_value, ref_grad = nxn_rce(s, tau, eps)
            assert value == pytest.approx(ref_value, rel=1e-14, abs=0)
            assert np.abs(grad - ref_grad).max() <= 1e-11 * np.abs(ref_grad).max()

    def test_one_log_sym_kl_agrees_with_two_logs(self):
        for seed in range(60):
            s, refined = random_case(seed)
            value, grad = rematch_loss(*refined, s, 0.05)
            ref_value, ref_grad = separate_rematch(*refined, s, 0.05, "sym_kl",
                                                   terms=two_log_direction_terms)
            assert value == pytest.approx(ref_value, rel=1e-14, abs=0)
            assert np.abs(grad - ref_grad).max() <= 1e-14 * np.abs(ref_grad).max()


def flat_bits(result):
    """Every float of a kernel result, as int64 bit patterns."""
    parts = result if isinstance(result, tuple) else (result,)
    return np.concatenate([np.asarray(part, dtype=np.float64).ravel().view(np.int64)
                           for part in parts])


REUSING_KERNELS = {
    "warmup": lambda s, **kw: warmup_loss(s, 0.05, 1e-3, 0.7, **kw),
    "triplet": lambda s, **kw: triplet_loss_batch(np.round(s, 1), 0.2, **kw),
    "per_pair": lambda s, **kw: per_pair_triplet_losses(np.round(s, 1), 0.2, **kw),
    "matching_probs": lambda s, **kw: matching_probs(s, 0.05, **kw),
    "rematch": lambda s, **kw: rematch_loss(*normalize_plan(np.exp(s) * (s > -0.5)), s,
                                            0.05, **kw),
}


class TestWorkspace:
    @pytest.mark.parametrize("kernel", REUSING_KERNELS)
    def test_reuse_across_sizes_keeps_the_bits(self, kernel):
        # a smaller batch reads the head of buffers a larger one filled, and
        # the next larger one reads what the smaller one left behind; only the
        # first call makes buffers
        loss = REUSING_KERNELS[kernel]
        rng = np.random.default_rng(11)
        work = _Workspace()
        allocations = []
        for n in (128, 104, 128):
            s = rng.uniform(-1, 1, (n, n))
            assert np.array_equal(flat_bits(loss(s, work=work)), flat_bits(loss(s)))
            allocations.append(work.allocations)
        assert allocations[0] == allocations[-1]

    def test_counts_new_and_grown_buffers(self):
        work = _Workspace()
        first = work("a", 4, 4)
        # room for one more row and column: a batch that took in a singleton
        for shape in ((5, 5), (3, 6), (4, 4)):
            assert np.shares_memory(work("a", *shape), first)
        assert work.allocations == 1
        work("a", 6, 6)
        work("b", 2, 2)
        assert work.allocations == 3
        # a vector keeps room for one more entry, a scalar for itself
        vector, scalar = work("v", 4), work("x")
        assert np.shares_memory(work("v", 5), vector) and np.shares_memory(work("x"), scalar)
        assert work.allocations == 5
        work("v", 6)
        assert work.allocations == 6

    def test_views_are_c_contiguous_and_shared(self):
        work = _Workspace()
        big = work("a", 5, 5)
        small = work("a", 3, 3)
        assert small.flags.c_contiguous and small.shape == (3, 3)
        assert np.shares_memory(big, small)
        assert not np.shares_memory(small, work("b", 3, 3))
        for shape in ((), (7,), (2, 3, 4)):  # any rank, in the same buffer
            view = work("a", *shape)
            assert view.shape == shape and view.flags.c_contiguous
            assert np.shares_memory(view, big)
        assert work.allocations == 2

    def test_kernels_without_a_workspace_take_fresh_arrays(self):
        # one allocation rule: every kernel defaults to the same sentinel, and
        # without a workspace it takes fresh arrays with no arena behind them
        kernels = (encoder.similarity, matching_probs, per_pair_triplet_losses,
                   triplet_loss_batch, warmup_loss, rematch_loss, costs.cost_forward,
                   transport.sinkhorn, transport.extend_partial, transport.partial_ot,
                   transport.normalize_plan, pipeline._cost)
        defaults = {kernel.__name__: inspect.signature(kernel).parameters["work"].default
                    for kernel in kernels}
        assert defaults == dict.fromkeys(defaults, losses._fresh)
        fresh = losses._fresh("a", 3, 4)
        assert fresh.shape == (3, 4) and fresh.flags.c_contiguous and fresh.base is None


class TestInputBoundaries:
    def test_non_square_similarity_rejected(self):
        for loss in (lambda s: triplet_loss_batch(s, 0.2), lambda s: matching_probs(s, 0.1)):
            with pytest.raises(ValueError, match="must be square"):
                loss(np.zeros((2, 3)))

    @pytest.mark.parametrize("eps", [0.0, 0.5, -1e-7, np.nan, "0.1"])
    def test_bad_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="^eps must be"):
            warmup_loss(np.eye(3), 0.1, eps)

    @pytest.mark.parametrize("weight", [-1.0, np.nan, np.inf, True])
    def test_bad_rce_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="^rce_weight must be"):
            warmup_loss(np.eye(3), 0.1, rce_weight=weight)

    def test_unknown_variant_rejected(self):
        needle = r"^variant must be one of \('sym_kl', 'kl', 'ce'\), got 'js'"
        with pytest.raises(ValueError, match=needle):
            rematch_loss(*normalize_plan(np.ones((3, 3))), np.eye(3), 0.1, variant="js")

    def test_refined_of_another_shape_rejected(self):
        with pytest.raises(ValueError, match="similarity shape"):
            rematch_loss(*normalize_plan(np.ones((2, 2))), np.eye(3), 0.1)

    @pytest.mark.parametrize("side", [0, 1])
    def test_nan_refined_rejected(self, side):
        refined = [np.full((3, 3), 1.0 / 3.0), np.full((3, 3), 1.0 / 3.0)]
        refined[side][1, 2] = np.nan
        with pytest.raises(ValueError, match="normalized distributions"):
            rematch_loss(*refined, np.eye(3), 0.1)

    def test_negative_refined_rejected(self):
        refined = np.full((3, 3), 1.0 / 3.0)
        refined[0] = [1.2, -0.1, -0.1]
        with pytest.raises(ValueError, match="nonnegative"):
            rematch_loss(refined, np.full((3, 3), 1.0 / 3.0), np.eye(3), 0.1)

    @pytest.mark.parametrize("nan_side", [0, 1])
    @pytest.mark.parametrize("negative_side", [0, 1])
    def test_a_negative_entry_beside_a_nan_is_named_first(self, nan_side, negative_side):
        # the sign is checked before the sums, which a NaN alone fails
        refined = [np.full((3, 3), 1.0 / 3.0), np.full((3, 3), 1.0 / 3.0)]
        refined[nan_side][1, 2] = np.nan
        refined[negative_side][2, 0] = -0.1
        with pytest.raises(ValueError, match="^refined alignments must be nonnegative$"):
            rematch_loss(*refined, np.eye(3), 0.1)
