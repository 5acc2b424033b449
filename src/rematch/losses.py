"""Scalar training losses over a batch similarity matrix, with gradients.

All functions take an ``(n, n)`` similarity matrix ``s`` with the matched
pair of slot ``i`` on the diagonal, and return ``(value, grad)`` where
``grad`` has the shape of ``s``. Row direction reads captions for a given
image; the column direction reads images for a given caption.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "matching_probs",
    "per_pair_triplet_losses",
    "triplet_loss_batch",
    "infonce_loss",
    "rce_loss",
    "warmup_loss",
    "rematch_loss",
]

_KL_FLOOR = 1e-12


def _as_square(s) -> np.ndarray:
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"similarity matrix must be square, got {s.shape}")
    return s


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _rows_backward(probs: np.ndarray, dloss_dprobs: np.ndarray, tau: float) -> np.ndarray:
    """Chain a per-row gradient in probability space through the row softmax."""
    inner = (dloss_dprobs * probs).sum(axis=1, keepdims=True)
    return probs * (dloss_dprobs - inner) / tau


def matching_probs(s, tau: float):
    """Row- and column-normalized matching probabilities.

    Returns ``(p_v2t, p_t2v)``: rows of ``p_v2t`` sum to one (captions
    scored per image), columns of ``p_t2v`` sum to one (images scored per
    caption). Computed with max-subtraction for stability.
    """
    s = _as_square(s)
    if not (np.isfinite(tau) and tau > 0):
        raise ValueError(f"tau must be finite and positive, got {tau}")
    logits = s / tau
    p_v2t = _softmax_rows(logits)
    p_t2v = _softmax_rows(logits.T).T
    return p_v2t, p_t2v


def _hinge_terms(s, alpha: float):
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
    if not np.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    off = s.copy()
    np.fill_diagonal(off, -np.inf)
    j_star = off.argmax(axis=1)
    h_star = off.argmax(axis=0)
    diag = np.diag(s)
    index = np.arange(n)
    return (alpha - diag + off[index, j_star], alpha - diag + off[h_star, index],
            j_star, h_star)


def per_pair_triplet_losses(s, alpha: float) -> np.ndarray:
    """Vector of hinge losses, one per diagonal pair."""
    term_row, term_col, _, _ = _hinge_terms(s, alpha)
    return np.maximum(term_row, 0.0) + np.maximum(term_col, 0.0)


def triplet_loss_batch(s, alpha: float):
    """Sum of per-pair hinge losses with its gradient."""
    term_row, term_col, j_star, h_star = _hinge_terms(s, alpha)
    value = np.maximum(term_row, 0.0).sum() + np.maximum(term_col, 0.0).sum()
    n = term_row.size
    # each update below names every cell at most once
    grad = np.zeros((n, n))
    rows = np.flatnonzero(term_row > 0)
    cols = np.flatnonzero(term_col > 0)
    grad[rows, rows] -= 1.0
    grad[rows, j_star[rows]] += 1.0
    grad[cols, cols] -= 1.0
    grad[h_star[cols], cols] += 1.0
    return float(value), grad


def _infonce(p_v2t, p_t2v, tau: float):
    """:func:`infonce_loss` from the matching probabilities."""
    n = p_v2t.shape[0]
    diag_v2t = np.clip(np.diag(p_v2t), 1e-300, None)
    diag_t2v = np.clip(np.diag(p_t2v), 1e-300, None)
    value = float(-(np.log(diag_v2t) + np.log(diag_t2v)).mean())
    eye = np.eye(n)
    grad = ((p_v2t - eye) + (p_t2v - eye)) / (n * tau)
    return value, grad


def infonce_loss(s, tau: float):
    """Mean cross-entropy against one-hot targets, both directions."""
    return _infonce(*matching_probs(s, tau), tau)


def _bounded_onehot_logs(n: int, eps: float) -> np.ndarray:
    logs = np.full((n, n), np.log(eps))
    np.fill_diagonal(logs, np.log1p(-eps))
    return logs


def _check_eps(eps: float) -> None:
    if not 0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 0.5)")


def _rce(p_v2t, p_t2v, tau: float, eps: float):
    """:func:`rce_loss` from the matching probabilities."""
    n = p_v2t.shape[0]
    log_y = _bounded_onehot_logs(n, eps)
    value = float(-((p_v2t * log_y).sum() + (p_t2v * log_y).sum()) / n)
    grad_v2t = _rows_backward(p_v2t, -log_y, tau)
    grad_t2v = _rows_backward(p_t2v.T, -log_y, tau).T
    return value, (grad_v2t + grad_t2v) / n


def rce_loss(s, tau: float, eps: float = 1e-7):
    """Cross-entropy with prediction and label roles swapped.

    The one-hot labels are bounded into ``[eps, 1 - eps]`` so every
    logarithm stays finite; predictions are the matching probabilities.
    """
    s = _as_square(s)
    _check_eps(eps)
    return _rce(*matching_probs(s, tau), tau, eps)


def warmup_loss(s, tau: float, eps: float = 1e-7, rce_weight: float = 1.0):
    """Overconfidence-resistant warm-up objective: InfoNCE + weighted RCE.

    Both terms read one set of matching probabilities.
    """
    probs = matching_probs(s, tau)
    _check_eps(eps)
    v1, g1 = _infonce(*probs, tau)
    v2, g2 = _rce(*probs, tau, eps)
    return v1 + rce_weight * v2, g1 + rce_weight * g2


def _floor_distribution(dist: np.ndarray) -> np.ndarray:
    floored = np.maximum(dist, _KL_FLOOR)
    return floored / floored.sum(axis=-1, keepdims=True)


def _kl_direction_terms(refined: np.ndarray, probs: np.ndarray, variant: str):
    """Per-row loss and d(loss)/d(probs) for one direction.

    ``refined`` rows are fixed targets; ``probs`` rows are model
    distributions. Both are floored and renormalized; the gradient treats
    the flooring as inactive, which it is away from softmax saturation.
    """
    r = _floor_distribution(refined)
    p = _floor_distribution(probs)
    if variant not in ("sym_kl", "kl", "ce"):
        raise ValueError(f"unknown rematch variant {variant!r}")
    ratio = r / p
    if variant == "ce":
        return -(r * np.log(p)).sum(axis=1), -ratio
    forward = (r * np.log(ratio)).sum(axis=1)
    if variant == "kl":
        return forward, -ratio
    log_p_over_r = np.log(p / r)
    backward = (p * log_p_over_r).sum(axis=1)
    return 0.5 * (forward + backward), 0.5 * (-ratio + log_p_over_r + 1.0)


def rematch_loss(refined_v2t, refined_t2v, s, tau: float, variant: str = "sym_kl"):
    """Divergence between refined alignments and the model's probabilities.

    ``refined_v2t`` rows and ``refined_t2v`` columns must be valid
    distributions (see :func:`rematch.transport.normalize_plan`). The
    default variant symmetrizes the KL divergence; ``"kl"`` keeps only the
    forward term and ``"ce"`` scores cross-entropy against the refined
    targets. Value is the batch mean.
    """
    s = _as_square(s)
    n = s.shape[0]
    refined_v2t = np.asarray(refined_v2t, dtype=np.float64)
    refined_t2v = np.asarray(refined_t2v, dtype=np.float64)
    if refined_v2t.shape != s.shape or refined_t2v.shape != s.shape:
        raise ValueError("refined alignments must match the similarity shape")
    if np.any(refined_v2t < 0) or np.any(refined_t2v < 0):
        raise ValueError("refined alignments must be nonnegative")
    if (np.abs(refined_v2t.sum(axis=1) - 1.0).max() > 1e-6
            or np.abs(refined_t2v.sum(axis=0) - 1.0).max() > 1e-6):
        raise ValueError("refined alignments must be normalized distributions")

    p_v2t, p_t2v = matching_probs(s, tau)
    row_terms, d_rows = _kl_direction_terms(refined_v2t, p_v2t, variant)
    col_terms, d_cols = _kl_direction_terms(refined_t2v.T, p_t2v.T, variant)
    value = float(row_terms.mean() + col_terms.mean())
    grad = (_rows_backward(p_v2t, d_rows, tau)
            + _rows_backward(p_t2v.T, d_cols, tau).T) / n
    return value, grad

