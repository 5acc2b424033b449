"""Self-supervised transport-cost learner.

An elementwise affine-plus-softplus map turns a similarity matrix into a
positive cost matrix. Supervision comes from deliberately rebuilt batches
in which the genuinely matching image positions are known, so minimizing
the total cost charged at those positions teaches the map that high
similarity should mean cheap transport.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._settings import require

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
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def cost_forward(s, theta: CostNetParams) -> np.ndarray:
    """Elementwise positive cost ``softplus(w * s + b)``."""
    s = np.asarray(s, dtype=np.float64)
    return np.logaddexp(0.0, theta.w * s + theta.b)


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
    the diagonal. Returns ``(v_feats, pi_sup)``: the rebuilt image rows and
    ``pi_sup[i, j] = 1`` iff the image in row ``i`` is the true match of
    caption ``j``.
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

    pi_sup = np.zeros((n, n))
    pi_sup[kept_rows, reserved] = 1.0
    return images, pi_sup


def cost_net_step(theta: CostNetParams, sims, pi_sup, lr: float,
                  bound: float = _PARAM_BOUND):
    """One descent step on the supervised transport cost.

    Gradient flows only through cells where ``pi_sup`` is 1; with no
    supervised cells the parameters are returned unchanged. Parameters are
    clamped into ``[-bound, bound]``; the returned flag reports whether the
    clamp engaged.
    """
    require("lr", lr, "(0, inf)")
    require("bound", bound, "(0, inf)")
    sims = np.asarray(sims, dtype=np.float64)
    pi_sup = np.asarray(pi_sup, dtype=np.float64)
    if sims.shape != pi_sup.shape:
        raise ValueError("similarity and supervision shapes disagree")
    d_w, d_b = cost_grads(sims, theta)
    grad_w = float((pi_sup * d_w).sum())
    grad_b = float((pi_sup * d_b).sum())
    new_w = theta.w - lr * grad_w
    new_b = theta.b - lr * grad_b
    clipped = abs(new_w) > bound or abs(new_b) > bound
    new_w = float(np.clip(new_w, -bound, bound))
    new_b = float(np.clip(new_b, -bound, bound))
    return CostNetParams(new_w, new_b), clipped
