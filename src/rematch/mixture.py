"""Two-component beta mixture over normalized per-pair losses.

Early in training, pairs whose modalities genuinely match accumulate low
loss while mismatched pairs accumulate high loss, so the loss histogram is
bimodal. Fitting a two-component beta mixture by EM and reading the
posterior of the higher-mean component gives each pair a mismatch
probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._settings import require

__all__ = [
    "BetaMixture",
    "fit_bmm",
    "posterior",
    "mismatch_probabilities",
    "partition",
]

_SHAPE_MIN = 1e-3
_SHAPE_MAX = 1e6
# losses map into [_DELTA, 1 - _DELTA], strictly inside the beta support
_DELTA = 1e-4


def _check_unit_interval(x) -> None:
    if not np.all((x > 0) & (x < 1)):
        raise ValueError("x must lie strictly inside (0, 1)")


def _log_beta(alpha: float, beta: float) -> float:
    """log B(alpha, beta) as ``lgamma(alpha) + lgamma(beta) - lgamma(alpha + beta)``.

    Over the fitted shape box [1e-3, 1e6]^2 it agrees with
    ``scipy.special.betaln`` to ``16 * eps * max(1, |lgamma(alpha)|,
    |lgamma(beta)|, |lgamma(alpha + beta)|)``, and to 1e-11 absolute on
    [0.1, 1e3]^2: the terms cancel, so the error scales with the largest
    of them rather than with the result.
    """
    return math.lgamma(alpha) + math.lgamma(beta) - math.lgamma(alpha + beta)


def _log_density(log_x, log_1mx, alpha: float, beta: float):
    """Beta(alpha, beta) log density from precomputed log(x) and log(1 - x)."""
    return (alpha - 1.0) * log_x + (beta - 1.0) * log_1mx - _log_beta(alpha, beta)


@dataclass
class BetaMixture:
    """Fitted mixture; the `hi` component models mismatched pairs.

    `norm_lo`/`norm_hi` record the raw-loss range seen at fit time so later
    observations can be mapped into the same (0, 1) domain. A degenerate fit
    (all losses equal) is flagged and assigns mismatch probability 0
    everywhere.
    """

    alpha_lo: float
    beta_lo: float
    alpha_hi: float
    beta_hi: float
    weight_hi: float
    degenerate: bool = False
    norm_lo: float = 0.0
    norm_hi: float = 1.0
    loglik_trace: list = field(default_factory=list)

    @property
    def mean_lo(self) -> float:
        return self.alpha_lo / (self.alpha_lo + self.beta_lo)

    @property
    def mean_hi(self) -> float:
        return self.alpha_hi / (self.alpha_hi + self.beta_hi)

    def normalize(self, losses):
        """Map raw losses into the (0, 1) domain used at fit time."""
        losses = np.asarray(losses, dtype=np.float64)
        span = self.norm_hi - self.norm_lo
        if span <= 0:
            return np.full_like(losses, 0.5)
        return _to_unit(losses, self.norm_lo, span)


def _to_unit(losses, lo: float, span: float):
    """Min-max map of raw losses into [_DELTA, 1 - _DELTA], clipped to
    ``[lo, lo + span]``. IEEE subtraction is monotone, so the clip is the
    identity on the fitted losses: they map to the fit-time points exactly."""
    return _DELTA + (1.0 - 2.0 * _DELTA) * np.clip(losses - lo, 0.0, span) / span


def _moment_match(x, weights, total):
    """Beta shapes from a weighted mean/variance (method of moments);
    ``total`` is ``weights.sum()``."""
    mean = float((weights * x).sum() / total)
    var = float((weights * (x - mean) ** 2).sum() / total)
    mean = min(max(mean, 1e-6), 1.0 - 1e-6)
    var = min(max(var, 1e-10), mean * (1.0 - mean) * (1.0 - 1e-6))
    common = mean * (1.0 - mean) / var - 1.0
    alpha = min(max(mean * common, _SHAPE_MIN), _SHAPE_MAX)
    beta = min(max((1.0 - mean) * common, _SHAPE_MIN), _SHAPE_MAX)
    return alpha, beta


def _log_joint(log_x, log_1mx, params):
    """Per-sample log joint of each component, from log(x) and log(1 - x)."""
    (a_lo, b_lo), (a_hi, b_hi), w_hi = params
    w_hi = min(max(w_hi, 1e-12), 1.0 - 1e-12)
    lo = np.log1p(-w_hi) + _log_density(log_x, log_1mx, a_lo, b_lo)
    hi = np.log(w_hi) + _log_density(log_x, log_1mx, a_hi, b_hi)
    return lo, hi


def _responsibility(log_lo, log_hi):
    """Posterior weight of the ``hi`` component from both log joints."""
    return np.exp(log_hi - np.logaddexp(log_lo, log_hi))


def _log_add(a, b):
    """Elementwise log(exp(a) + exp(b)) by a max shift; bit for bit what
    ``scipy.special.logsumexp`` returns over the two stacked rows."""
    top = np.maximum(a, b)
    return top + np.log1p(np.exp(np.minimum(a, b) - top))


def fit_bmm(losses, em_iters: int = 50, tol: float = 1e-6,
            rng_seed: int = 0) -> BetaMixture:
    """Fit the mixture by EM with moment-matching parameter updates.

    Losses are min-max normalized into [1e-4, 1 - 1e-4] first.
    Responsibilities start from a median split; EM stops when the
    log-likelihood gain drops below ``tol``, when ``em_iters`` is reached,
    or when a moment update would decrease the log-likelihood (the update
    is then discarded, which keeps the recorded trace non-decreasing).
    """
    losses = np.asarray(losses, dtype=np.float64)
    if losses.ndim != 1 or losses.size < 10:
        raise ValueError("need a flat vector of at least 10 losses")
    if not np.all(np.isfinite(losses)):
        raise ValueError("losses must be finite")
    require("em_iters", em_iters, 1)
    require("tol", tol, "(0, inf)")

    lo, hi = float(losses.min()), float(losses.max())
    params, trace = None, []
    if hi - lo >= 1e-12:
        params, trace = _em(_to_unit(losses, lo, hi - lo), em_iters, tol, rng_seed)
    if params is None:
        return BetaMixture(1.0, 1.0, 1.0, 1.0, weight_hi=0.0, degenerate=True,
                           norm_lo=lo, norm_hi=hi)

    (a_lo, b_lo), (a_hi, b_hi), w_hi = params
    if a_lo / (a_lo + b_lo) > a_hi / (a_hi + b_hi):
        (a_lo, b_lo), (a_hi, b_hi) = (a_hi, b_hi), (a_lo, b_lo)
        w_hi = 1.0 - w_hi
    return BetaMixture(a_lo, b_lo, a_hi, b_hi, weight_hi=w_hi,
                       norm_lo=lo, norm_hi=hi, loglik_trace=trace)


def _em(x, em_iters: int, tol: float, rng_seed: int):
    """EM over normalized losses ``x``; the accepted parameters (None when
    no update was accepted) and the log-likelihood trace."""
    _check_unit_interval(x)
    # x is fixed across iterations, so its logs are taken once per fit
    log_x, log_1mx = np.log(x), np.log1p(-x)

    resp_hi = (x > np.median(x)).astype(np.float64)
    if resp_hi.sum() == 0 or resp_hi.sum() == x.size:
        rng = np.random.default_rng(rng_seed)
        resp_hi = (rng.random(x.size) < 0.5).astype(np.float64)

    params = None
    trace: list[float] = []
    prev_ll = -np.inf
    for _ in range(em_iters):
        resp_lo = 1.0 - resp_hi
        total_hi, total_lo = resp_hi.sum(), resp_lo.sum()
        if total_hi < 1e-9 or total_lo < 1e-9:
            break
        candidate = (
            _moment_match(x, resp_lo, total_lo),
            _moment_match(x, resp_hi, total_hi),
            float(total_hi / x.size),
        )
        log_lo, log_hi = _log_joint(log_x, log_1mx, candidate)
        ll = float(_log_add(log_lo, log_hi).sum())
        if ll < prev_ll:
            break
        params = candidate
        trace.append(ll)
        if ll - prev_ll < tol and np.isfinite(prev_ll):
            break
        prev_ll = ll
        resp_hi = _responsibility(log_lo, log_hi)
    return params, trace


def posterior(bmm: BetaMixture, loss):
    """Probability that a normalized loss came from the higher-mean component."""
    if bmm.degenerate:
        return np.zeros_like(np.asarray(loss, dtype=np.float64)) if np.ndim(loss) else 0.0
    for name in ("alpha_lo", "beta_lo", "alpha_hi", "beta_hi"):
        require(name, getattr(bmm, name), "(0, inf)")
    require("weight_hi", bmm.weight_hi, "[0, 1]")
    x = np.asarray(loss, dtype=np.float64)
    _check_unit_interval(x)
    params = ((bmm.alpha_lo, bmm.beta_lo), (bmm.alpha_hi, bmm.beta_hi), bmm.weight_hi)
    w = _responsibility(*_log_joint(np.log(x), np.log1p(-x), params))
    return w if w.ndim else float(w)


def mismatch_probabilities(bmm: BetaMixture, raw_losses) -> np.ndarray:
    """Posterior mismatch probability for raw (unnormalized) losses."""
    return np.asarray(posterior(bmm, bmm.normalize(raw_losses)))


def partition(w, threshold: float = 0.5):
    """Split indices into (matched, mismatched) by thresholding posteriors.

    A pair lands in the mismatched set iff its posterior strictly exceeds
    the threshold; ties go to the matched side.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1:
        raise ValueError("w must be a vector")
    if not np.all((w >= 0) & (w <= 1)):
        raise ValueError("posteriors must lie in [0, 1]")
    require("threshold", threshold, "[0, 1]")
    mismatched = np.flatnonzero(w > threshold)
    matched = np.flatnonzero(w <= threshold)
    return matched, mismatched
