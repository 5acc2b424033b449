"""Linear two-tower encoder with cosine similarity and hand-rolled backprop.

Each modality is projected by a single matrix, rows are normalized onto the
unit sphere, and similarity is the dot product of the embedded rows. Small
enough that every gradient is written out explicitly and checked against
finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._settings import require

__all__ = ["EncoderParams", "init_params", "similarity", "similarity_backward"]

_NORM_FLOOR = 1e-12
_INIT_SCALE = 0.1


@dataclass
class EncoderParams:
    """Projection matrices for the visual and text towers."""

    w_v: np.ndarray  # (d_in_v, d)
    w_t: np.ndarray  # (d_in_t, d)

    def copy(self) -> "EncoderParams":
        return EncoderParams(self.w_v.copy(), self.w_t.copy())


def init_params(d_in_v: int, d_in_t: int, d: int, rng) -> EncoderParams:
    """Gaussian init with deliberately small weights (scale 0.1).

    The gradient through row normalization scales inversely with the
    pre-normalization row norm, so a small scale gives plain gradient
    descent large effective early steps that anneal as the weights grow.
    This is what makes the small fixed learning rate workable without an
    adaptive optimizer.
    """
    require("d", d, 2)
    rng = np.random.default_rng(rng)
    w_v = rng.normal(scale=_INIT_SCALE / np.sqrt(d_in_v), size=(d_in_v, d))
    w_t = rng.normal(scale=_INIT_SCALE / np.sqrt(d_in_t), size=(d_in_t, d))
    return EncoderParams(w_v, w_t)


def _embed(feats: np.ndarray, weights: np.ndarray):
    raw = feats @ weights
    norms = np.linalg.norm(raw, axis=1)
    clipped = np.maximum(norms, _NORM_FLOOR)
    unit = raw / clipped[:, None]
    return unit, raw, norms


def similarity(params: EncoderParams, v_feats, t_feats):
    """Cosine similarity matrix of a feature batch, plus a backprop cache.

    Returns ``(s, cache)`` where ``s[i, j]`` compares visual row ``i`` with
    text row ``j``. Zero-norm embeddings are floored (and effectively
    produce zero similarity rows).
    """
    v_feats = np.asarray(v_feats, dtype=np.float64)
    t_feats = np.asarray(t_feats, dtype=np.float64)
    if v_feats.shape[1] != params.w_v.shape[0]:
        raise ValueError("visual feature width does not match the projection")
    if t_feats.shape[1] != params.w_t.shape[0]:
        raise ValueError("text feature width does not match the projection")
    unit_v, raw_v, norm_v = _embed(v_feats, params.w_v)
    unit_t, raw_t, norm_t = _embed(t_feats, params.w_t)
    s = unit_v @ unit_t.T
    cache = (v_feats, t_feats, unit_v, unit_t, norm_v, norm_t)
    return s, cache


def _unit_backward(grad_unit, unit, norms):
    # through row normalization: remove the radial component, scale by 1/|u|;
    # floored rows lose the radial correction (the norm is locally constant)
    clipped = np.maximum(norms, _NORM_FLOOR)
    radial = (grad_unit * unit).sum(axis=1, keepdims=True)
    correction = np.where((norms > _NORM_FLOOR)[:, None], radial * unit, 0.0)
    return (grad_unit - correction) / clipped[:, None]


def similarity_backward(cache, grad_s):
    """Gradients of a scalar loss w.r.t. both projections, given d(loss)/d(s)."""
    v_feats, t_feats, unit_v, unit_t, norm_v, norm_t = cache
    grad_s = np.asarray(grad_s, dtype=np.float64)
    grad_unit_v = grad_s @ unit_t
    grad_unit_t = grad_s.T @ unit_v
    grad_raw_v = _unit_backward(grad_unit_v, unit_v, norm_v)
    grad_raw_t = _unit_backward(grad_unit_t, unit_t, norm_t)
    return v_feats.T @ grad_raw_v, t_feats.T @ grad_raw_t

