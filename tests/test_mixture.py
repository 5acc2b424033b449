"""Mixture-model tests: density, EM fit, posteriors, and the split rule."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import betaln

import rematch.mixture as mixture
from rematch.mixture import (
    BetaMixture,
    _log_add,
    _log_beta,
    _log_density,
    _log_joint,
    fit_bmm,
    mismatch_probabilities,
    partition,
    posterior,
)


def beta_log_pdf(x, alpha, beta):
    """Reference: log density of Beta(alpha, beta) at x, through the
    library's density kernel."""
    x = np.float64(x)
    return float(_log_density(np.log(x), np.log1p(-x), alpha, beta))


class TestBetaLogPdf:
    def test_uniform_density_is_one(self):
        assert beta_log_pdf(0.5, 1.0, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_symmetric_two_two(self):
        # closed form 6 x (1 - x) evaluated at 1/2
        assert beta_log_pdf(0.5, 2.0, 2.0) == pytest.approx(np.log(1.5), rel=1e-12)

    def test_matches_quadrature_normalization(self):
        # independent normalizing constant via numeric integration
        alpha, beta, x = 8.0, 2.0, 0.9
        normalizer = quad(lambda t: t ** (alpha - 1) * (1 - t) ** (beta - 1), 0, 1)[0]
        expected = np.log(x ** (alpha - 1) * (1 - x) ** (beta - 1) / normalizer)
        assert beta_log_pdf(x, alpha, beta) == pytest.approx(expected, rel=1e-12)

    def test_rejects_boundary(self):
        bmm = BetaMixture(2.0, 5.0, 5.0, 2.0, weight_hi=0.5)
        with pytest.raises(ValueError):
            posterior(bmm, 0.0)
        with pytest.raises(ValueError):
            posterior(bmm, 1.0)


def log_uniform_shapes(lo, hi, grid=200, random=0):
    """Shape pairs: a log-spaced ``grid`` x ``grid`` lattice over [lo, hi]^2,
    then ``random`` log-uniform draws from the same box."""
    axis = np.geomspace(lo, hi, grid)
    a, b = (g.ravel() for g in np.meshgrid(axis, axis))
    drawn = np.exp(np.random.default_rng(11).uniform(np.log(lo), np.log(hi), (2, random)))
    return np.concatenate([a, drawn[0]]), np.concatenate([b, drawn[1]])


class TestLogBeta:
    # the normaliser's accuracy contract, stated in _log_beta's docstring
    def test_relative_to_the_largest_lgamma_term_on_the_shape_box(self):
        a, b = log_uniform_shapes(mixture._SHAPE_MIN, mixture._SHAPE_MAX, random=200_000)
        lgamma = np.vectorize(math.lgamma)
        scale = np.max([np.ones_like(a), np.abs(lgamma(a)), np.abs(lgamma(b)),
                        np.abs(lgamma(a + b))], axis=0)
        err = np.abs(np.vectorize(_log_beta)(a, b) - betaln(a, b))
        err /= np.finfo(np.float64).eps * scale
        assert err.max() <= 16.0

    def test_absolute_on_moderate_shapes(self):
        a, b = log_uniform_shapes(0.1, 1e3)
        assert np.abs(np.vectorize(_log_beta)(a, b) - betaln(a, b)).max() <= 1e-11


def two_component_sample(seed, n=2000):
    rng = np.random.default_rng(seed)
    from_hi = rng.random(n) < 0.5
    draws = np.where(from_hi, rng.beta(8, 2, n), rng.beta(2, 8, n))
    return draws, from_hi


class TestFitBmm:
    def test_recovers_well_separated_components(self):
        draws, from_hi = two_component_sample(seed=0)
        bmm = fit_bmm(draws, em_iters=100, tol=1e-8)
        assert abs(bmm.mean_lo - 0.2) < 0.05
        assert abs(bmm.mean_hi - 0.8) < 0.05
        assert abs(bmm.weight_hi - 0.5) < 0.05

    def test_loglik_never_decreases(self):
        draws, _ = two_component_sample(seed=3)
        bmm = fit_bmm(draws, em_iters=100, tol=1e-10)
        trace = np.asarray(bmm.loglik_trace)
        assert trace.size >= 2
        assert np.all(np.diff(trace) >= -1e-12)

    def test_stops_at_the_first_gain_below_tol(self):
        draws, _ = two_component_sample(seed=0)
        gains = np.diff(fit_bmm(draws, em_iters=500, tol=1e-3).loglik_trace)
        assert gains[-1] < 1e-3 and np.all(gains[:-1] >= 1e-3)

    def test_losses_tied_at_the_top_start_the_high_component(self):
        # nine equal losses above one: nothing lies above the median, so the
        # nine tied losses start the high component, with no random draw
        losses = [0.0] + [1.0] * 9
        with mock.patch.object(np.random, "default_rng",
                               side_effect=AssertionError("the fit drew a random split")):
            bmm = fit_bmm(losses)
            w = mismatch_probabilities(bmm, losses)
        assert not bmm.degenerate
        assert np.all(w[1:] > w[0])

    def test_the_fit_takes_no_seed(self):
        # it depends on its losses alone; a seed, by name or in place, is refused
        draws, _ = two_component_sample(seed=0)
        for call in (lambda: fit_bmm(draws, rng_seed=0), lambda: fit_bmm(draws, 50, 1e-6, 0)):
            with pytest.raises(TypeError):
                call()

    def test_constant_losses_fall_back(self):
        bmm = fit_bmm(np.full(50, 0.5))
        assert bmm.degenerate
        assert bmm.weight_hi == 0.0

    def test_normalize_reproduces_the_fit_time_points(self):
        # the split reads posteriors at bmm.normalize(losses), so those must
        # be exactly the points the mixture was fitted on
        rng = np.random.default_rng(8)
        losses = np.concatenate([rng.gamma(2.0, 0.1, 240), rng.gamma(8.0, 0.1, 120)])
        with mock.patch.object(mixture, "_check_unit_interval",
                               wraps=mixture._check_unit_interval) as check:
            bmm = fit_bmm(losses)
        np.testing.assert_array_equal(bmm.normalize(losses), check.call_args.args[0])

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            fit_bmm(np.linspace(0.1, 0.9, 5))

    @pytest.mark.parametrize("name,value", [
        ("em_iters", 0), ("em_iters", -1), ("tol", np.nan), ("tol", np.inf),
        ("tol", 0.0), ("tol", -1e-6),
    ])
    def test_bad_scalar_arguments_rejected(self, name, value):
        draws, _ = two_component_sample(seed=0)
        with pytest.raises(ValueError, match=name):
            fit_bmm(draws, **{name: value})

    def test_order_invariance(self):
        draws, _ = two_component_sample(seed=4)
        rng = np.random.default_rng(9)
        shuffled = draws[rng.permutation(draws.size)]
        a = fit_bmm(draws, em_iters=60, tol=1e-8)
        b = fit_bmm(shuffled, em_iters=60, tol=1e-8)
        assert a.alpha_lo == pytest.approx(b.alpha_lo, rel=1e-9)
        assert a.alpha_hi == pytest.approx(b.alpha_hi, rel=1e-9)
        assert a.weight_hi == pytest.approx(b.weight_hi, rel=1e-9)

    @given(size=st.integers(10, 400), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_permuted_losses_give_the_same_fit(self, size, seed):
        # EM sums over the losses in their order, so a permutation moves each
        # sum by rounding only, and the median split it starts from not at all.
        # Over 32,000 draws of this kind the shapes and weight moved by at most
        # 3.8e-12 of themselves, with equal EM trace lengths; the bound leaves
        # a margin above 5
        rng = np.random.default_rng(seed)
        from_hi = rng.random(size) < rng.uniform(0.1, 0.9)
        losses = np.where(from_hi, rng.gamma(6.0, 0.1, size), rng.gamma(2.0, 0.05, size))
        a = fit_bmm(losses)
        b = fit_bmm(losses[rng.permutation(size)])
        assert len(b.loglik_trace) == len(a.loglik_trace)
        for field in ("alpha_lo", "beta_lo", "alpha_hi", "beta_hi", "weight_hi"):
            assert abs(getattr(b, field) - getattr(a, field)) <= 2e-11 * abs(getattr(a, field))

    def test_split_quality_on_separated_data(self):
        # generator means differ by 0.6; the 0.5-threshold split should be
        # nearly perfect against the generating labels
        for seed in range(5):
            draws, from_hi = two_component_sample(seed)
            bmm = fit_bmm(draws, em_iters=100, tol=1e-8)
            w = mismatch_probabilities(bmm, draws)
            _, mismatched = partition(w, 0.5)
            predicted = np.zeros(draws.size, dtype=bool)
            predicted[mismatched] = True
            tp = (predicted & from_hi).sum()
            fp = (predicted & ~from_hi).sum()
            fn = (~predicted & from_hi).sum()
            f1 = 2 * tp / (2 * tp + fp + fn)
            assert f1 >= 0.95


def desk_sized_losses():
    """360 losses from two overlapping components, the size of one
    identification pass at desk scale."""
    rng = np.random.default_rng(360)
    from_hi = rng.random(360) < 0.4
    return np.where(from_hi, rng.beta(6, 3, 360), rng.beta(2, 6, 360)) * 1.5


# fits recorded with the normaliser from math.lgamma and one log-evidence
# per iteration (the desk fit's last five log-likelihoods moved by up to
# 6e-13 when the responsibilities took it over from np.logaddexp); any change
# to the arithmetic of an iteration shows here bit for bit
PINNED_FITS = {
    "desk": (
        desk_sized_losses, {},
        (2.1151766948929764, 7.349475196324027, 2.8129748536401,
         1.53977994715872, 0.45615435702348095),
        [-17.407484113202585, 2.073008109166148, 7.87711611498264,
         10.482585337828768, 11.897324929960018, 12.753076685139746,
         13.306575466666603, 13.68060618121399, 13.940933971432676,
         14.125819311869865, 14.258946292071522, 14.355686202577058,
         14.42638403867064, 14.478198724942155, 14.516190907523205,
         14.543996132065153, 14.564257979742838, 14.578916078553265,
         14.589402947433525, 14.596781596991393, 14.601843476121864,
         14.605179194542709, 14.60723015340955, 14.608326552314818,
         14.608715539261285],
    ),
    "two-component-seed-3": (
        lambda: two_component_sample(seed=3)[0], dict(em_iters=100, tol=1e-10),
        (1.7589036763490897, 6.997227890688838, 7.478350411935721,
         1.8315355913063134, 0.5014608053807633),
        [249.76482289159406, 258.45769562378456, 259.3672017686959,
         259.52527594569364, 259.5515197017486],
    ),
}

# the same fits with scipy.special.betaln as the normaliser; the two may
# differ only by the rounding of log B(alpha, beta)
SCIPY_BETALN_FITS = {
    "desk": (
        (2.115176694892977, 7.34947519632403, 2.8129748536400987,
         1.5397799471587197, 0.45615435702348117),
        [-17.407484113202425, 2.0730081091652455, 7.877116114982523,
         10.482585337828272, 11.897324929959886, 12.753076685139945,
         13.306575466666306, 13.680606181212756, 13.9409339714325,
         14.125819311870266, 14.258946292071093, 14.355686202576523,
         14.426384038671559, 14.478198724941578, 14.516190907523512,
         14.543996132065217, 14.56425797974335, 14.578916078553478,
         14.589402947433603, 14.59678159699164, 14.601843476121573,
         14.605179194542862, 14.607230153408896, 14.608326552314335,
         14.608715539260796],
    ),
    "two-component-seed-3": (
        (1.7589036763490893, 6.997227890688838, 7.478350411935718,
         1.8315355913063127, 0.5014608053807633),
        [249.76482289159674, 258.4576956237836, 259.36720176869767,
         259.5252759456922, 259.5515197017508],
    ),
}


class TestWarmStart:
    @pytest.mark.parametrize("make", [desk_sized_losses,
                                      lambda: two_component_sample(seed=3)[0]])
    def test_a_fit_restarted_from_itself_stops_at_once(self, make):
        losses = make()
        cold = fit_bmm(losses)
        warm = fit_bmm(losses, init=cold)
        assert 1 <= len(warm.loglik_trace) <= 3 < len(cold.loglik_trace)
        for cold_side, warm_side in zip(partition(mismatch_probabilities(cold, losses)),
                                        partition(mismatch_probabilities(warm, losses))):
            np.testing.assert_array_equal(cold_side, warm_side)

    # a start whose posterior leaves a component empty (360 rows of 1e-12 each,
    # the weight clamp, against the loop's 1e-9 stop), and a degenerate start
    @pytest.mark.parametrize("init", [
        BetaMixture(2.0, 2.0, 2.0, 2.0, weight_hi=0.0),
        BetaMixture(2.0, 2.0, 2.0, 2.0, weight_hi=1.0),
        BetaMixture(1.0, 1.0, 1.0, 1.0, weight_hi=0.0, degenerate=True),
    ], ids=["empty-hi", "empty-lo", "degenerate"])
    def test_an_unusable_start_gives_the_cold_fit(self, init):
        losses = desk_sized_losses()
        assert fit_bmm(losses, init=init) == fit_bmm(losses)

    def test_an_invalid_start_is_rejected(self):
        with pytest.raises(ValueError, match="^alpha_hi must be"):
            fit_bmm(desk_sized_losses(),
                    init=BetaMixture(2.0, 8.0, -1.0, 2.0, weight_hi=0.5))


class TestPinnedFits:
    @pytest.mark.parametrize("name", sorted(PINNED_FITS))
    def test_parameters_and_trace_are_bitwise_pinned(self, name):
        make, kwargs, params, trace = PINNED_FITS[name]
        bmm = fit_bmm(make(), **kwargs)
        assert not bmm.degenerate
        assert (bmm.alpha_lo, bmm.beta_lo, bmm.alpha_hi, bmm.beta_hi,
                bmm.weight_hi) == params
        assert bmm.loglik_trace == trace

    @pytest.mark.parametrize("name", sorted(SCIPY_BETALN_FITS))
    def test_agrees_with_the_scipy_betaln_fit(self, name):
        make, kwargs, _, _ = PINNED_FITS[name]
        params, trace = SCIPY_BETALN_FITS[name]
        bmm = fit_bmm(make(), **kwargs)
        np.testing.assert_allclose((bmm.alpha_lo, bmm.beta_lo, bmm.alpha_hi,
                                    bmm.beta_hi, bmm.weight_hi), params, rtol=1e-12, atol=0)
        assert len(bmm.loglik_trace) == len(trace)
        np.testing.assert_allclose(bmm.loglik_trace, trace, rtol=0, atol=1e-9)

    def test_two_term_reduction_matches_scipy_logsumexp(self):
        from scipy.special import logsumexp

        rng = np.random.default_rng(0)
        a = rng.normal(scale=50.0, size=20000)
        b = rng.normal(scale=50.0, size=20000)
        b[:2000] = a[:2000]                     # ties
        b[2000:3000] = a[2000:3000] - 800.0     # exp of the gap underflows
        b[3000:4000] = a[3000:4000] + 40.0      # large gap, still representable
        a[4000:4100] = -np.inf                  # one side carries no mass
        a[4100:4200], b[4100:4200] = 1e300, -1e300
        got = _log_add(a, b)
        want = logsumexp(np.stack([a, b]), axis=0)
        assert np.array_equal(got, want)
        assert np.array_equal(_log_add(b, a), want)


LOSS_KINDS = ("constant", "near-constant", "tied", "two-level", "well-separated")


@st.composite
def loss_vectors(draw):
    n = draw(st.integers(10, 2000))
    kind = draw(st.sampled_from(LOSS_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = draw(st.floats(-5.0, 5.0))
    scale = draw(st.floats(1e-3, 1e3))
    if kind == "constant":
        unit = np.zeros(n)
    elif kind == "near-constant":
        unit = rng.random(n) * draw(st.sampled_from([1e-15, 1e-13, 1e-11]))
    elif kind == "tied":
        unit = rng.integers(0, draw(st.integers(2, 5)), n) / 4.0
    elif kind == "two-level":
        unit = (rng.random(n) < draw(st.floats(0.0, 1.0))).astype(np.float64)
    else:
        from_hi = rng.random(n) < draw(st.floats(0.05, 0.95))
        unit = np.where(from_hi, rng.beta(20, 2, n) + 1.0, rng.beta(2, 20, n))
    return base + scale * unit if kind != "near-constant" else base + unit


@st.composite
def valid_fits(draw):
    """Mixture parameters a fit can return: shapes in the fitted box, any weight."""
    shape = st.floats(math.log(mixture._SHAPE_MIN),
                      math.log(mixture._SHAPE_MAX)).map(math.exp)
    return BetaMixture(draw(shape), draw(shape), draw(shape), draw(shape),
                       weight_hi=draw(st.floats(0.0, 1.0)))


def assert_fit_invariants(losses, init=None):
    bmm = fit_bmm(losses, init=init)
    assert np.all(np.diff(bmm.loglik_trace) >= 0)
    assert 0.0 <= bmm.weight_hi <= 1.0
    assert bmm.mean_lo <= bmm.mean_hi
    if not bmm.degenerate:
        # the components are ordered by mean; a swap hands over the weight
        start = None if init is None else mixture._checked_params(init)
        (a_lo, b_lo), (a_hi, b_hi), w_hi = mixture._em(bmm.normalize(losses), 50,
                                                       1e-6, start)[0]
        swapped = a_lo / (a_lo + b_lo) > a_hi / (a_hi + b_hi)
        assert bmm.weight_hi == (1.0 - w_hi if swapped else w_hi)
    w = mismatch_probabilities(bmm, losses)
    assert np.all((w >= 0) & (w <= 1))
    spread = float(losses.max()) - float(losses.min())
    assert bmm.degenerate == (spread < 1e-12)


class TestFitProperties:
    @given(losses=loss_vectors())
    # the median ties with the maximum: seven losses of eleven there, nine of ten
    @example(losses=np.r_[np.linspace(0.0, 0.5, 4), np.ones(7)])
    @example(losses=np.r_[0.0, np.ones(9)])
    @settings(max_examples=80, deadline=None)
    def test_fit_invariants(self, losses):
        assert_fit_invariants(losses)

    @given(losses=loss_vectors(), init=valid_fits())
    @example(losses=np.r_[np.linspace(0.0, 0.5, 4), np.ones(7)],
             init=BetaMixture(8.0, 2.0, 2.0, 8.0, weight_hi=0.5))  # EM ends swapped
    @settings(max_examples=80, deadline=None)
    def test_warm_fit_invariants(self, losses, init):
        # a warm start is never degenerate where a cold one is not
        assert_fit_invariants(losses, init)


class TestPosterior:
    def test_identical_components_return_the_prior(self):
        bmm = BetaMixture(2.0, 2.0, 2.0, 2.0, weight_hi=0.37)
        for x in (0.1, 0.25, 0.5, 0.9):
            assert posterior(bmm, x) == pytest.approx(0.37, abs=1e-12)

    def test_extreme_loss_is_confidently_mismatched(self):
        bmm = BetaMixture(2.0, 8.0, 8.0, 2.0, weight_hi=0.5)
        assert posterior(bmm, 0.95) > 0.99

    def test_density_crossing_point_gives_half(self):
        # equal weights and mirror-symmetric components cross at 1/2
        bmm = BetaMixture(2.0, 8.0, 8.0, 2.0, weight_hi=0.5)
        assert posterior(bmm, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_fit_returns_zero(self):
        bmm = fit_bmm(np.full(50, 0.3))
        assert posterior(bmm, 0.5) == 0.0

    def test_agrees_with_the_logaddexp_responsibility(self):
        # the posterior was exp(log_hi - np.logaddexp(log_lo, log_hi)); over
        # 60 random cases (n = 2-129) the worst absolute gap seen is 2.2e-16
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 130))
            shapes = rng.uniform(0.5, 20.0, 4)
            bmm = BetaMixture(*shapes, weight_hi=float(rng.uniform(0.05, 0.95)))
            x = rng.uniform(1e-4, 1 - 1e-4, n)
            params = ((bmm.alpha_lo, bmm.beta_lo), (bmm.alpha_hi, bmm.beta_hi),
                      bmm.weight_hi)
            log_lo, log_hi = _log_joint(np.log(x), np.log1p(-x), params)
            ref = np.exp(log_hi - np.logaddexp(log_lo, log_hi))
            np.testing.assert_allclose(posterior(bmm, x), ref, rtol=0, atol=1e-15)

    @given(x=st.floats(0.01, 0.99), w=st.floats(0.05, 0.95))
    @settings(max_examples=50, deadline=None)
    def test_posteriors_of_both_components_sum_to_one(self, x, w):
        bmm = BetaMixture(2.0, 8.0, 8.0, 2.0, weight_hi=w)
        flipped = BetaMixture(8.0, 2.0, 2.0, 8.0, weight_hi=1.0 - w)
        assert posterior(bmm, x) + posterior(flipped, x) == pytest.approx(1.0, abs=1e-9)


class TestPartition:
    def test_boundary_goes_to_matched(self):
        matched, mismatched = partition([0.1, 0.9, 0.5], threshold=0.5)
        assert matched.tolist() == [0, 2]
        assert mismatched.tolist() == [1]

    def test_all_zero_posteriors(self):
        matched, mismatched = partition(np.zeros(4), threshold=0.5)
        assert mismatched.size == 0
        assert matched.size == 4

    def test_zero_threshold(self):
        matched, mismatched = partition([0.0, 0.2, 0.7], threshold=0.0)
        assert mismatched.tolist() == [1, 2]
        assert matched.tolist() == [0]

    def test_sets_partition_everything(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(0, 1, 100)
        matched, mismatched = partition(w, 0.5)
        combined = np.sort(np.concatenate([matched, mismatched]))
        np.testing.assert_array_equal(combined, np.arange(100))

    def test_invalid_posteriors_rejected(self):
        with pytest.raises(ValueError):
            partition([1.2, 0.5], 0.5)


class TestInputBoundaries:
    def test_non_finite_losses_rejected(self):
        losses = np.append(np.linspace(0.1, 0.9, 10), np.nan)
        with pytest.raises(ValueError, match="losses must be finite"):
            fit_bmm(losses)

    def test_posteriors_must_be_a_vector(self):
        with pytest.raises(ValueError, match="w must be a vector"):
            partition(np.full((2, 2), 0.5))

    @pytest.mark.parametrize("threshold", [-0.5, 1.5, np.nan, None])
    def test_bad_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match="^threshold must be"):
            partition([0.2, 0.8], threshold=threshold)

    def test_non_finite_posterior_is_in_no_set_so_rejected(self):
        # NaN fails both comparisons, so row 0 would land in neither set
        with pytest.raises(ValueError, match="posteriors must lie in"):
            partition([np.nan, 0.9])

    @pytest.mark.parametrize("name", ["alpha_lo", "beta_lo", "alpha_hi", "beta_hi"])
    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    def test_bad_shape_rejected(self, name, value):
        shapes = dict(alpha_lo=2.0, beta_lo=8.0, alpha_hi=8.0, beta_hi=2.0)
        bmm = BetaMixture(**{**shapes, name: value}, weight_hi=0.5)
        with pytest.raises(ValueError, match=f"^{name} must be"):
            posterior(bmm, 0.5)

    @pytest.mark.parametrize("weight", [np.nan, 2.0, -0.1])
    def test_bad_weight_rejected(self, weight):
        # a weight of 2.0 used to be clamped to 1 - 1e-12, and NaN gave NaN
        with pytest.raises(ValueError, match="^weight_hi must be"):
            posterior(BetaMixture(2.0, 8.0, 8.0, 2.0, weight_hi=weight), 0.5)

    def test_non_finite_normalized_loss_rejected(self):
        with pytest.raises(ValueError, match="strictly inside"):
            posterior(BetaMixture(2.0, 8.0, 8.0, 2.0, weight_hi=0.5), np.nan)
