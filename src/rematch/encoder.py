"""Linear two-tower encoder with cosine similarity and hand-rolled backprop.

Each modality is projected by a single matrix, rows are normalized onto the
unit sphere, and similarity is the dot product of the embedded rows. Small
enough that every gradient is written out explicitly and checked against
finite differences.
"""

from __future__ import annotations

import numpy as np

from ._settings import require
from .losses import _fresh

__all__ = ["EncoderParams", "init_params", "similarity", "similarity_backward"]

_NORM_FLOOR = 1e-12
_INIT_SCALE = 0.1


class EncoderParams:
    """Projection matrices of both towers: one array ``w`` of the visual rows over
    the text rows, whose blocks ``w_v`` (d_in_v, d) and ``w_t`` (d_in_t, d) view;
    the views are made wherever ``w`` is set."""

    def __init__(self, w_v: np.ndarray, w_t: np.ndarray):
        w, rows_v = np.concatenate((w_v, w_t)), len(w_v)
        self.w, self.rows_v, self.w_v, self.w_t = w, rows_v, w[:rows_v], w[rows_v:]

    def over(self, w: np.ndarray) -> "EncoderParams":
        """Parameters of the same blocks over ``w``, which is not copied."""
        params, rows_v = object.__new__(EncoderParams), self.rows_v
        params.w, params.rows_v, params.w_v, params.w_t = w, rows_v, w[:rows_v], w[rows_v:]
        return params

    def copy(self) -> "EncoderParams":
        return self.over(self.w.copy())


def _name_the_tower(params: EncoderParams, attempt, what: str, where: str = "") -> None:
    """Raise ``FloatingPointError`` naming the first tower, visual then text, for which
    ``attempt(tower, its rows of params.w)`` raises one or returns ``False``."""
    for tower, name in enumerate(("visual", "text")):
        rows = (slice(None, params.rows_v), slice(params.rows_v, None))[tower]
        failing = f"the {name} projection's {what}"
        try:
            finite = attempt(tower, rows)
        except FloatingPointError as exc:
            raise FloatingPointError(f"{failing} failed{where}: {exc}") from None
        if finite is False:  # the new weights of an update
            raise FloatingPointError(f"{failing} left non-finite weights{where}")


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


def _embed(params: EncoderParams, v_feats: np.ndarray, t_feats: np.ndarray, work) -> tuple:
    """``(unit, norms, clipped)``: both towers' unit-normalized rows stacked,
    visual first, in ``work``, and their norms before and after the floor; the
    squares behind the norms fill the backward's scratch. An overflow raises
    ``FloatingPointError`` naming its projection, whatever the warning filters are."""
    n_v, shape = len(v_feats), (len(v_feats) + len(t_feats), params.w.shape[1])
    raw = work("embed", *shape)
    with np.errstate(over="raise"):
        try:
            np.matmul(v_feats, params.w_v, out=raw[:n_v])
            np.matmul(t_feats, params.w_t, out=raw[n_v:])
            # np.linalg.norm(raw, axis=1)'s arithmetic, without its wrapper
            squares = np.multiply(raw, raw, out=work("unit_scratch", *shape))
            norms = np.sqrt(np.add.reduce(squares, axis=1))
        except FloatingPointError:  # name the first tower that fails on its own
            _name_the_tower(params, lambda tower, rows: np.linalg.norm(
                (v_feats, t_feats)[tower] @ params.w[rows], axis=1), "embedding")
            raise
        clipped = np.maximum(norms, _NORM_FLOOR)
        raw /= clipped[:, None]
    return raw, norms, clipped


def _pair_similarity(params: EncoderParams, v_feats, t_feats, work) -> np.ndarray:
    """Each visual row's similarity with its own text row, the diagonal of
    :func:`similarity`, as row dots of the embedding in ``work``."""
    unit = _embed(params, v_feats, t_feats, work)[0]
    return np.einsum("ij,ij->i", unit[:len(v_feats)], unit[len(v_feats):])


def similarity(params: EncoderParams, v_feats, t_feats, *, work=_fresh):
    """Cosine similarity matrix of a feature batch, plus a backprop cache.

    Returns ``(s, cache)`` where ``s[i, j]`` compares visual row ``i`` with
    text row ``j``. Zero-norm embeddings are floored (and effectively produce
    zero similarity rows). With a workspace ``work``, ``s``, the embedding and
    the backward scratch live in it until its next use.
    """
    v_feats = np.asarray(v_feats, dtype=np.float64)
    t_feats = np.asarray(t_feats, dtype=np.float64)
    for name, feats, weights in (("visual", v_feats, params.w_v), ("text", t_feats, params.w_t)):
        if feats.shape[1] != weights.shape[0]:
            raise ValueError(f"{name} feature width does not match the projection")
    unit, norms, clipped = _embed(params, v_feats, t_feats, work)
    n_v = len(v_feats)
    s = np.matmul(unit[:n_v], unit[n_v:].T, out=work("s", n_v, len(t_feats)))
    return s, (v_feats, t_feats, unit, norms, clipped, work)


def similarity_backward(cache, grad_s):
    """Gradients of a scalar loss w.r.t. both projections, given d(loss)/d(s)."""
    v_feats, t_feats, unit, norms, clipped, work = cache
    grad_s = np.asarray(grad_s, dtype=np.float64)
    n_v = v_feats.shape[0]
    grad_unit, scratch = work("grad_unit", *unit.shape), work("unit_scratch", *unit.shape)
    np.matmul(grad_s, unit[n_v:], out=grad_unit[:n_v])
    np.matmul(grad_s.T, unit[:n_v], out=grad_unit[n_v:])
    # through row normalization: remove the radial component, scale by 1/|u|;
    # floored rows lose the radial correction (the norm is locally constant)
    radial = np.add.reduce(np.multiply(grad_unit, unit, out=scratch), axis=1, keepdims=True)
    correction = np.multiply(radial, unit, out=scratch)
    if not np.minimum.reduce(norms, initial=np.inf) > _NORM_FLOOR:  # a NaN norm too
        correction[~(norms > _NORM_FLOOR)] = 0.0
    grad_unit -= correction
    grad_unit /= clipped[:, None]
    return v_feats.T @ grad_unit[:n_v], t_feats.T @ grad_unit[n_v:]
