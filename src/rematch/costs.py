"""Self-supervised transport-cost learner.

An elementwise affine-plus-softplus map turns a similarity matrix into a
positive cost matrix. Supervision comes from deliberately rebuilt batches
in which the genuinely matching image positions are known, so minimizing
the total cost charged at those positions teaches the map that high
similarity should mean cheap transport.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._settings import require
from .losses import _fresh

__all__ = [
    "CostNetParams",
    "cost_forward",
    "cost_grads",
    "reconstruct_pairs",
    "cost_net_step",
]

_PARAM_BOUND = 50.0


@dataclass(frozen=True)
class CostNetParams:
    """Slope and offset of the elementwise similarity-to-cost map."""

    w: float = -1.0
    b: float = 1.0


def _sigmoid(x):
    """The logistic function through ``exp(-|x|)``, which cannot overflow."""
    tail = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, tail) / (1.0 + tail)


def cost_forward(s, theta: CostNetParams, *, work=_fresh) -> np.ndarray:
    """Elementwise positive cost ``softplus(w * s + b)``, taken as
    ``max(x, 0) + log1p(exp(-|x|))``, which cannot overflow; with a
    workspace ``work`` the cost lives in it. The cost has the shape of ``s``."""
    s = np.asarray(s, dtype=np.float64)
    x, tail = work("cost", *s.shape), work("cost_tail", *s.shape)
    np.multiply(theta.w, s, out=x)
    x += theta.b
    np.abs(x, out=tail)
    np.negative(tail, out=tail)
    np.log1p(np.exp(tail, out=tail), out=tail)
    np.maximum(x, 0.0, out=x)
    x += tail
    return x


def cost_grads(s, theta: CostNetParams):
    """Elementwise derivatives ``(d cost / d w, d cost / d b)`` of the cost."""
    s = np.asarray(s, dtype=np.float64)
    sig = _sigmoid(theta.w * s + theta.b)  # d cost / d pre-activation
    return sig * s, sig


def reconstruct_pairs(v_matched, v_pool, reserve_ratio: float, rng):
    """Rebuild a matched batch with known supervision.

    Row ``j`` of ``v_matched`` is the true image of the batch's caption
    ``j``; the captions stay in place, so they are not an argument. A
    ``reserve_ratio`` fraction of caption slots (rounded half-up) keeps
    its true image; the rest get images sampled without replacement from
    ``v_pool``. A pool too small for that is used up and the remaining slots
    keep their true images too. All images are then dealt to random row
    positions, so the supervised cells land anywhere in the matrix, not just
    the diagonal. Returns ``(v_feats, (rows, cols))``: the rebuilt image rows
    and the supervised cells, in row order, where row ``rows[k]`` holds the
    true image of caption ``cols[k]``.
    """
    v_matched = np.asarray(v_matched, dtype=np.float64)
    v_pool = np.asarray(v_pool, dtype=np.float64)
    n = v_matched.shape[0]
    require("reserve_ratio", reserve_ratio, "(0, 1]")
    if v_pool.shape[1:] != v_matched.shape[1:]:
        raise ValueError(f"v_pool rows have shape {v_pool.shape[1:]}, "
                         f"v_matched rows {v_matched.shape[1:]}")
    rng = np.random.default_rng(rng)

    n_reserved = max(int(np.floor(reserve_ratio * n + 0.5)), n - v_pool.shape[0])
    reserved = np.sort(rng.permutation(n)[:n_reserved])
    positions = rng.permutation(n)
    kept_rows, substitute_rows = positions[:n_reserved], positions[n_reserved:]
    images = np.empty_like(v_matched)
    images[kept_rows] = v_matched[reserved]
    pool_pick = rng.choice(v_pool.shape[0], size=n - n_reserved, replace=False)
    images[substitute_rows] = v_pool[pool_pick]

    order = np.argsort(kept_rows)
    return images, (kept_rows[order], reserved[order])


def cost_net_step(theta: CostNetParams, sims, lr: float):
    """One descent step on the total cost charged at the supervised cells,
    whose similarities are ``sims``.

    With no supervised cells the parameters are returned unchanged.
    Parameters are clamped into ``[-_PARAM_BOUND, _PARAM_BOUND]``; the
    returned flag reports whether the clamp engaged. A non-finite gradient,
    from a NaN similarity, raises ``FloatingPointError``.
    """
    require("lr", lr, "(0, inf)")
    grad_w, grad_b = (float(np.add.reduce(g, axis=None)) for g in cost_grads(sims, theta))
    if not (math.isfinite(grad_w) and math.isfinite(grad_b)):
        raise FloatingPointError("non-finite gradient of the cost map")
    new_w = theta.w - lr * grad_w
    new_b = theta.b - lr * grad_b
    clipped = abs(new_w) > _PARAM_BOUND or abs(new_b) > _PARAM_BOUND
    new_w = float(min(max(new_w, -_PARAM_BOUND), _PARAM_BOUND))
    new_b = float(min(max(new_b, -_PARAM_BOUND), _PARAM_BOUND))
    return CostNetParams(new_w, new_b), clipped
