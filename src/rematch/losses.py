"""Scalar training losses over a batch similarity matrix, with gradients.

All functions take an ``(n, n)`` similarity matrix ``s`` with the matched
pair of slot ``i`` on the diagonal, and return ``(value, grad)`` where
``grad`` has the shape of ``s``. Row direction reads captions for a given
image; the column direction reads images for a given caption.
"""

from __future__ import annotations

import math

import numpy as np

from ._settings import require

__all__ = [
    "matching_probs",
    "per_pair_triplet_losses",
    "triplet_loss_batch",
    "warmup_loss",
    "rematch_loss",
]

_KL_FLOOR = 1e-12
_VARIANTS = ("sym_kl", "kl", "ce")  # divergences rematch_loss can score
# The rematch term runs beside the triplet term, never the warm-up objective,
# and the hinge scratch dies with each call, so it borrows those buffers.
_REMATCH_BUFFERS = ("nce", "rce", "rce_t2v", "off", "off_t")


class _Workspace:
    """Named float64 arrays that outlive a training step.

    ``work(name, *shape)`` keeps one flat buffer per name, with room for the
    array that last grew it plus one along each axis (a batch that took in a
    trailing singleton); the array, of any rank, is a C-contiguous view of its
    head, so reductions over it sum in the order a fresh array would. The view
    of each ``(name, shape)`` is made once and handed back on every later call;
    a grown buffer drops the views of its name. ``allocations`` counts the
    buffers made, new or grown.
    """

    def __init__(self):
        self._flat, self._views, self.allocations = {}, {}, 0

    def __call__(self, name: str, *shape: int) -> np.ndarray:
        view = self._views.get((name, shape))
        if view is not None:
            return view
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            if flat is not None:  # the views of the old buffer go with it
                self._views = {key: view for key, view in self._views.items() if key[0] != name}
            flat = self._flat[name] = np.empty(math.prod(side + 1 for side in shape))
            self.allocations += 1
        view = self._views[name, shape] = flat[:size].reshape(shape)
        return view


def _fresh(name: str, *shape: int) -> np.ndarray:
    """Every kernel's default ``work``: a fresh array per call, no arena behind it."""
    return np.empty(shape)


def _as_square(s) -> np.ndarray:
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"similarity matrix must be square, got {s.shape}")
    return s


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row softmax, in place over ``logits``."""
    logits -= np.maximum.reduce(logits, axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= np.add.reduce(logits, axis=1, keepdims=True)
    return logits


def _rows_backward(probs: np.ndarray, dloss_dprobs: np.ndarray, tau: float,
                   out: np.ndarray) -> np.ndarray:
    """Chain a per-row gradient in probability space through the row softmax,
    into ``out``; its layout sets the order in which the rows are summed."""
    inner = np.add.reduce(np.multiply(dloss_dprobs, probs, out=out), axis=1, keepdims=True)
    np.subtract(dloss_dprobs, inner, out=out)
    out *= probs
    out /= tau
    return out


def matching_probs(s, tau: float, *, work=_fresh):
    """Row- and column-normalized matching probabilities.

    Returns ``(p_v2t, p_t2v)``: rows of ``p_v2t`` sum to one (captions
    scored per image), columns of ``p_t2v`` sum to one (images scored per
    caption). Computed with max-subtraction for stability. With a
    workspace ``work`` both live in it until its next use.
    """
    s = _as_square(s)
    require("tau", tau, "(0, inf)")
    n = s.shape[0]
    p_v2t = np.divide(s, tau, out=work("p_v2t", n, n))
    p_t2v = work("p_t2v", n, n)
    p_t2v[...] = p_v2t
    # the column softmax runs over the transposed view, as the rows of logits.T
    _softmax_rows(p_t2v.T)
    return _softmax_rows(p_v2t), p_t2v


def _hinge_terms(s, alpha: float, work):
    """Both hinge arguments of every pair against its hardest in-batch negatives.

    Returns ``(term_row, term_col, j_star, h_star)``: ``term_row[i]`` is
    ``alpha - s_ii + s[i, j_star[i]]`` for the row's hardest negative, and
    ``term_col[i]`` is ``alpha - s_ii + s[h_star[i], i]`` for the column's;
    ties pick the first index.
    """
    s = _as_square(s)
    n = s.shape[0]
    if n < 2:
        raise ValueError("need at least two pairs for in-batch negatives")
    require("alpha", alpha, "[0, inf)")
    off = work("off", n, n)
    off[...] = s
    off.reshape(-1)[::n + 1] = -np.inf
    j_star = off.argmax(axis=1)
    off_t = work("off_t", n, n)  # argmax over columns would copy them to rows
    off_t[...] = off.T
    h_star = off_t.argmax(axis=1)
    diag = s.diagonal()
    index = np.arange(n)
    return (alpha - diag + off[index, j_star], alpha - diag + off[h_star, index],
            j_star, h_star)


def per_pair_triplet_losses(s, alpha: float, *, work=_fresh) -> np.ndarray:
    """Vector of hinge losses, one per diagonal pair."""
    term_row, term_col, _, _ = _hinge_terms(s, alpha, work)
    return np.maximum(term_row, 0.0) + np.maximum(term_col, 0.0)


def triplet_loss_batch(s, alpha: float, *, work=_fresh):
    """Sum of per-pair hinge losses with its gradient; with a workspace
    ``work`` the gradient lives in it until its next use."""
    term_row, term_col, j_star, h_star = _hinge_terms(s, alpha, work)
    value = np.add.reduce(np.maximum(term_row, 0.0)) + np.add.reduce(np.maximum(term_col, 0.0))
    n = term_row.size
    # each update below names every cell at most once
    grad = work("grad", n, n)
    grad.fill(0.0)
    rows = (term_row > 0).nonzero()[0]
    cols = (term_col > 0).nonzero()[0]
    grad[rows, rows] -= 1.0
    grad[rows, j_star[rows]] += 1.0
    grad[cols, cols] -= 1.0
    grad[h_star[cols], cols] += 1.0
    return float(value), grad


def _infonce(p_v2t, p_t2v, tau: float, work):
    """:func:`warmup_loss`'s InfoNCE term, the mean cross-entropy against
    one-hot targets in both directions, from the matching probabilities."""
    n = p_v2t.shape[0]
    d_v2t, d_t2v = p_v2t.diagonal(), p_t2v.diagonal()
    log_diag = np.log(np.maximum(d_v2t, 1e-300)) + np.log(np.maximum(d_t2v, 1e-300))
    value = float(-(np.add.reduce(log_diag) / n))
    # (p_v2t - eye) + (p_t2v - eye): off the diagonal x - 0.0 is x exactly
    grad = np.add(p_v2t, p_t2v, out=work("nce", n, n))
    grad.reshape(-1)[::n + 1] = (d_v2t - 1.0) + (d_t2v - 1.0)
    grad /= n * tau
    return value, grad


def _rce(p_v2t, p_t2v, tau: float, eps: float, work):
    """:func:`warmup_loss`'s reversed cross-entropy term (prediction and label
    roles swapped, the one-hot labels bounded into ``[eps, 1 - eps]`` so every
    logarithm stays finite), from the matching probabilities, in closed form.

    ``log_y`` is ``log(eps)`` off the diagonal and ``log1p(-eps)`` on it, so
    each sum over it needs only the diagonals and the row (column) sums: row
    ``i`` of the row term's gradient is ``p_i * (log(eps) * (r_i - 1) + gap *
    (p_ii - [j == i])) / tau`` with ``gap = log1p(-eps) - log(eps)``, and
    column ``j`` of the column term's likewise.
    """
    n = p_v2t.shape[0]
    log_off, gap = np.log(eps), np.log1p(-eps) - np.log(eps)
    rows = log_off * (np.add.reduce(p_v2t, axis=1) - 1.0)
    cols = log_off * (np.add.reduce(p_t2v, axis=0) - 1.0)
    d_v2t, d_t2v = p_v2t.diagonal(), p_t2v.diagonal()
    value = float(-(log_off * 2 * n + np.add.reduce(rows + cols)
                    + gap * (np.add.reduce(d_v2t) + np.add.reduce(d_t2v))) / n)
    grad = np.multiply(p_v2t, (rows + gap * d_v2t)[:, None], out=work("rce", n, n))
    grad += np.multiply(p_t2v, cols + gap * d_t2v, out=work("rce_t2v", n, n))
    grad.flat[::n + 1] = (d_v2t * (rows + gap * (d_v2t - 1.0))
                          + d_t2v * (cols + gap * (d_t2v - 1.0)))
    grad /= n * tau
    return value, grad


def warmup_loss(s, tau: float, eps: float = 1e-7, rce_weight: float = 1.0, *,
                work=_fresh):
    """Overconfidence-resistant warm-up objective: InfoNCE + weighted RCE.

    Both terms read one set of matching probabilities. With a workspace
    ``work`` the gradient lives in it until its next use.
    """
    probs = matching_probs(s, tau, work=work)
    require("eps", eps, "(0, 0.5)")
    require("rce_weight", rce_weight, "[0, inf)")
    v1, g1 = _infonce(*probs, tau, work)
    v2, g2 = _rce(*probs, tau, eps, work)
    g2 *= rce_weight
    g1 += g2
    return v1 + rce_weight * v2, g1


def _kl_direction_terms(refined: np.ndarray, probs: np.ndarray, variant: str, bufs):
    """Per-row loss and d(loss)/d(probs) for one direction.

    ``refined`` rows are fixed targets; ``probs`` rows are model
    distributions. Both are floored and renormalized; the gradient treats
    the flooring as inactive, which it is away from softmax saturation.
    The four ``bufs`` are laid out like ``probs``; the third returns the gradient.
    """
    r = np.maximum(refined, _KL_FLOOR, out=bufs[0])
    r /= np.add.reduce(r, axis=-1, keepdims=True)
    p = np.maximum(probs, _KL_FLOOR, out=bufs[1])
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    ratio = np.divide(r, p, out=bufs[2])
    log_ratio = np.log(p if variant == "ce" else ratio, out=bufs[3])
    forward = np.add.reduce(np.multiply(r, log_ratio, out=r), axis=1)  # "ce": minus the loss
    if variant != "sym_kl":
        return -forward if variant == "ce" else forward, np.negative(ratio, out=ratio)
    # log(p / r) is -log(r / p), so one logarithm serves both directions
    backward = np.add.reduce(np.multiply(p, log_ratio, out=p), axis=1)
    np.negative(ratio, out=ratio)
    ratio -= log_ratio
    ratio += 1.0
    ratio *= 0.5
    return 0.5 * (forward - backward), ratio


def rematch_loss(refined_v2t, refined_t2v, s, tau: float, variant: str = "sym_kl", *,
                 work=_fresh):
    """Divergence between refined alignments and the model's probabilities.

    ``refined_v2t`` rows and ``refined_t2v`` columns must be valid
    distributions (see :func:`rematch.transport.normalize_plan`). The
    default variant symmetrizes the KL divergence; ``"kl"`` keeps only the
    forward term and ``"ce"`` scores cross-entropy against the refined
    targets. Value is the batch mean. With a workspace ``work`` the gradient
    lives in it until its next use.
    """
    s = _as_square(s)
    require("variant", variant, {"choices": _VARIANTS})
    refined_v2t = np.asarray(refined_v2t, dtype=np.float64)
    refined_t2v = np.asarray(refined_t2v, dtype=np.float64)
    if refined_v2t.shape != s.shape or refined_t2v.shape != s.shape:
        raise ValueError("refined alignments must match the similarity shape")
    for refined in (refined_v2t, refined_t2v):  # a NaN is left to the sums below
        if (not np.minimum.reduce(refined, axis=None, initial=np.inf) >= 0
                and np.logical_or.reduce(refined < 0, axis=None)):
            raise ValueError("refined alignments must be nonnegative")
    # written so that a NaN sum fails the test too
    if not (np.maximum.reduce(np.abs(np.add.reduce(refined_v2t, axis=1) - 1.0)) <= 1e-6
            and np.maximum.reduce(np.abs(np.add.reduce(refined_t2v, axis=0) - 1.0)) <= 1e-6):
        raise ValueError("refined alignments must be normalized distributions")
    n = s.shape[0]
    p_v2t, p_t2v = matching_probs(s, tau, work=work)
    a, b, rows, log, cols = (work(name, n, n) for name in _REMATCH_BUFFERS)
    # the column direction's buffers are F-ordered, as fresh ones would be
    row_terms, d_rows = _kl_direction_terms(refined_v2t, p_v2t, variant, (a, b, rows, log))
    col_terms, d_cols = _kl_direction_terms(refined_t2v.T, p_t2v.T, variant,
                                            (a.T, b.T, cols.T, log.T))
    value = float(np.add.reduce(row_terms) / n + np.add.reduce(col_terms) / n)
    grad = _rows_backward(p_v2t, d_rows, tau, a)
    grad += _rows_backward(p_t2v.T, d_cols, tau, b.T).T
    grad /= n
    return value, grad
