"""End-to-end training loop for retrieval under partially mismatched pairs.

One run: warm up the encoders on all data with an overconfidence-resistant
loss, then per epoch (a) split the data into matched/mismatched subsets by
mixture-modeling per-pair losses, (b) per step teach the cost map on rebuilt
batches, rematch a mismatched batch through masked partial transport, and
update the encoders on the combined objective, (c) track validation recall
and keep the best checkpoint.

Three modes run the same epoch engine, one row each in ``_MODES``:

* ``rematch`` - the full loop above;
* ``naive``   - plain triplet training on all data, no identification;
* ``discard`` - identification as above, triplet training on the matched
  subset only.
"""

from __future__ import annotations

import json
import time
import zipfile
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import costs as costs_mod
from . import encoder as enc
from .data import (RECALL_CUTOFFS, PairDataset, atomic_write, identification_score,
                   recall_at_k)
from .losses import (
    _VARIANTS,
    per_pair_triplet_losses,
    rematch_loss,
    triplet_loss_batch,
    warmup_loss,
)
from .mixture import fit_bmm, mismatch_probabilities, partition
from ._settings import check, choice, count, real, switch
from .transport import SinkhornConfig, normalize_plan, partial_ot

__all__ = ["TrainConfig", "RunState", "init_state", "warmup", "per_sample_losses",
           "train_epoch", "evaluate", "run_experiment",
           "save_state", "load_state", "random_ranking_rsum"]

_STATE_VERSION = 2


class _Mode(NamedTuple):
    warmup: bool    # the first warmup_epochs train the warm-up objective
    identify: bool  # split rows by mismatch posterior, train on the matched ones
    rematch: bool   # sampled steps: cost-map update plus the rematch term


_MODES = {
    "rematch": _Mode(warmup=True, identify=True, rematch=True),
    "naive": _Mode(warmup=False, identify=False, rematch=False),
    "discard": _Mode(warmup=True, identify=True, rematch=False),
}

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


def _solver_setting(name: str, default):
    """A setting bounded like the :class:`SinkhornConfig` field ``name``."""
    solver_field = next(f for f in fields(SinkhornConfig) if f.name == name)
    return field(default=default, metadata=solver_field.metadata)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of a training run. Every field is overridable.

    Each field declares its valid values next to its default, and
    construction checks every field, raising ``ValueError`` that names the
    first one out of bounds. ``lam``, ``ot_max_iter`` and ``ot_tol`` are
    bounded like the :class:`SinkhornConfig` they build, once, as ``solver``.
    """

    warmup_epochs: int = count(5, least=0)
    train_epochs: int = count(35, least=1)
    lr_decay_epoch: int = count(15, least=1)      # 1-based epoch of the 10x cut
    batch_size: int = count(128, least=2)
    alpha: float = real(0.2, "[0, inf)")          # triplet margin
    tau: float = real(0.05, "(0, inf)")           # softmax temperature
    eps: float = real(1e-7, "(0, 0.5)")           # reversed cross-entropy label bound
    rho: float = real(0.1, "[0, 1]")              # transported mass budget
    lam: float = _solver_setting("lam", 0.01)     # entropic regularization
    reserve_ratio: float = real(0.5, "(0, 1]")    # kept-match fraction, rebuilt batches
    threshold: float = real(0.5, "[0, 1]")        # mismatch posterior split point
    lr_model: float = real(2e-4, "(0, inf)")
    lr_cost: float = real(2e-6, "(0, inf)")
    seed: int = count(0, least=0)
    embed_dim: int = count(16, least=2)
    rce_weight: float = real(1.0, "[0, inf)")     # reversed term's warm-up weight
    mode: str = choice("rematch", _MODES)
    cost_mode: str = choice("learned", ("learned", "cosine"))  # cosine: 1 - s
    mask_positives: bool = switch(True)
    partial: bool = switch(True)                  # False moves the full mass budget
    rematch_variant: str = choice("sym_kl", _VARIANTS)
    em_iters: int = count(30, least=1)
    em_tol: float = real(1e-6, "(0, inf)")
    ot_tol: float = _solver_setting("tol", 1e-6)
    ot_max_iter: int = _solver_setting("max_iter", 3000)
    val_frac: float = real(0.1, "(0, 1)")
    cost_bound: float = real(50.0, "(0, inf)")
    optimizer: str = choice("sgd", ("sgd", "adam"))  # adam evens the term scales

    def __post_init__(self):
        check(self)
        object.__setattr__(self, "solver", SinkhornConfig(
            lam=self.lam, max_iter=self.ot_max_iter, tol=self.ot_tol))

    @property
    def total_epochs(self) -> int:
        return self.warmup_epochs + self.train_epochs


@dataclass
class AdamState:
    """First/second moment accumulators for both projection matrices."""

    m_v: np.ndarray
    v_v: np.ndarray
    m_t: np.ndarray
    v_t: np.ndarray
    step: int = 0

    @classmethod
    def like(cls, params: enc.EncoderParams) -> "AdamState":
        return cls(np.zeros_like(params.w_v), np.zeros_like(params.w_v),
                   np.zeros_like(params.w_t), np.zeros_like(params.w_t))


@dataclass
class RunState:
    """Everything the loop owns: parameters, counters, and the RNG stream."""

    params: enc.EncoderParams
    theta: costs_mod.CostNetParams
    epoch: int
    rng: np.random.Generator
    history: list = field(default_factory=list)
    best_rsum: float = -1.0
    best_epoch: int = -1
    best_params: enc.EncoderParams | None = None
    clip_events: int = 0
    adam: AdamState | None = None


def init_state(cfg: TrainConfig, ds: PairDataset) -> RunState:
    rng = np.random.default_rng(cfg.seed)
    params = enc.init_params(ds.v_feats.shape[1], ds.t_feats.shape[1],
                             cfg.embed_dim, rng)
    state = RunState(params=params, theta=costs_mod.CostNetParams(),
                     epoch=0, rng=rng)
    if cfg.optimizer == "adam":
        state.adam = AdamState.like(params)
    return state


def _adam_update(moment, second, grad, step):
    moment *= _ADAM_BETA1
    moment += (1 - _ADAM_BETA1) * grad
    second *= _ADAM_BETA2
    second += (1 - _ADAM_BETA2) * grad * grad
    m_hat = moment / (1 - _ADAM_BETA1 ** step)
    v_hat = second / (1 - _ADAM_BETA2 ** step)
    return m_hat / (np.sqrt(v_hat) + _ADAM_EPS)


def _apply_update(state: RunState, cfg: TrainConfig, grad_w_v, grad_w_t,
                  lr: float) -> None:
    """One ``cfg.optimizer`` step on the encoder parameters; a non-finite
    gradient raises ``FloatingPointError`` naming its projection first."""
    for name, grad in (("visual", grad_w_v), ("text", grad_w_t)):
        if not np.all(np.isfinite(grad)):
            raise FloatingPointError(f"non-finite gradient in the {name} projection")
    if cfg.optimizer == "adam":
        adam = state.adam
        adam.step += 1
        grad_w_v = _adam_update(adam.m_v, adam.v_v, grad_w_v, adam.step)
        grad_w_t = _adam_update(adam.m_t, adam.v_t, grad_w_t, adam.step)
    state.params = enc.EncoderParams(state.params.w_v - lr * grad_w_v,
                                     state.params.w_t - lr * grad_w_t)


def split_indices(cfg: TrainConfig, ds: PairDataset):
    """Carve validation rows out of the corrupted pool, deterministically."""
    pool = ds.pool_indices
    val_rng = np.random.default_rng((cfg.seed, 0x5A11))
    n_val = int(round(cfg.val_frac * pool.size))
    val = np.sort(val_rng.choice(pool, size=n_val, replace=False))
    train = np.setdiff1d(pool, val)
    return train, val, ds.test_indices


def current_lr(cfg: TrainConfig, epoch_number: int) -> float:
    """Model learning rate for a 1-based epoch number."""
    return cfg.lr_model * (0.1 if epoch_number >= cfg.lr_decay_epoch else 1.0)


def _batches(indices: np.ndarray, batch_size: int, rng) -> list:
    """Shuffled batches of at least two pairs; a trailing singleton is folded
    into its neighbor, or dropped when it has none."""
    order = rng.permutation(indices)
    chunks = [order[i:i + batch_size] for i in range(0, order.size, batch_size)]
    if chunks and chunks[-1].size < 2:
        lone = chunks.pop()
        if chunks:
            chunks[-1] = np.concatenate([chunks[-1], lone])
    return chunks


def _step(state: RunState, ds: PairDataset, cfg: TrainConfig, terms,
          lr: float) -> float:
    """One encoder update on the summed loss of ``(batch, loss_fn)`` terms.

    Each ``loss_fn`` maps the batch's similarity matrix to its loss and the
    loss gradient w.r.t. the similarities; a term without a batch (``None``,
    see :func:`_sample`) adds nothing. Returns the summed loss.
    """
    value = 0.0
    grad_w_v = np.zeros_like(state.params.w_v)
    grad_w_t = np.zeros_like(state.params.w_t)
    for batch, loss_fn in terms:
        if batch is None:
            continue
        s, cache = enc.similarity(state.params, ds.v_feats[batch], ds.t_feats[batch])
        term, grad_s = loss_fn(s)
        term_v, term_t = enc.similarity_backward(cache, grad_s)
        value += term
        grad_w_v += term_v
        grad_w_t += term_t
    _apply_update(state, cfg, grad_w_v, grad_w_t, lr)
    return value


def _fit(state: RunState, ds: PairDataset, cfg: TrainConfig,
         indices: np.ndarray, loss_fn, lr: float) -> float:
    """One shuffled pass over ``indices``, one step per batch; the mean loss."""
    batches = _batches(indices, cfg.batch_size, state.rng)
    total = sum(_step(state, ds, cfg, [(batch, loss_fn)], lr) for batch in batches)
    return total / max(len(batches), 1)


def warmup(state: RunState, ds: PairDataset, cfg: TrainConfig,
           train_idx: np.ndarray) -> RunState:
    """Full-data epochs on the InfoNCE + reversed-cross-entropy objective."""
    for _ in range(cfg.warmup_epochs):
        _epoch(state, ds, cfg, train_idx, warm=True)
    return state


def per_sample_losses(state: RunState, ds: PairDataset, cfg: TrainConfig,
                      train_idx: np.ndarray) -> np.ndarray:
    """Triplet loss of every training pair, mined within fixed-seed batches.

    Returned in the order of ``train_idx``. The batching seed depends only
    on the run seed and the current epoch, so identification is reproducible
    no matter how the caller shuffled the data.
    """
    eval_rng = np.random.default_rng((cfg.seed, state.epoch, 0xE7A1))
    losses = np.zeros(train_idx.size)
    for pos in _batches(np.arange(train_idx.size), cfg.batch_size, eval_rng):
        batch = train_idx[pos]
        s, _ = enc.similarity(state.params, ds.v_feats[batch], ds.t_feats[batch])
        losses[pos] = per_pair_triplet_losses(s, cfg.alpha)
    return losses


def _identify(state: RunState, ds: PairDataset, cfg: TrainConfig,
              train_idx: np.ndarray):
    """Fit the loss mixture and split training rows by mismatch posterior;
    the matched and mismatched positions in ``train_idx``, and the fit."""
    losses = per_sample_losses(state, ds, cfg, train_idx)
    bmm = fit_bmm(losses, em_iters=cfg.em_iters, tol=cfg.em_tol,
                  rng_seed=cfg.seed)
    matched_pos, mismatched_pos = partition(mismatch_probabilities(bmm, losses),
                                            cfg.threshold)
    return matched_pos, mismatched_pos, bmm


def _sample(rng, indices: np.ndarray, size: int) -> np.ndarray | None:
    """A batch of up to ``size`` distinct rows of ``indices``, or ``None``
    without a draw when fewer than two are left: a batch has two pairs or
    more."""
    if indices.size < 2:
        return None
    return rng.choice(indices, size=min(size, indices.size), replace=False)


def _cost(state: RunState, cfg: TrainConfig, s: np.ndarray) -> np.ndarray:
    """Transport cost of similarities: the learned map, or ``1 - s``."""
    if cfg.cost_mode == "cosine":
        return 1.0 - s
    return costs_mod.cost_forward(s, state.theta)


def _pair_costs(state: RunState, ds: PairDataset, cfg: TrainConfig,
                indices: np.ndarray) -> np.ndarray:
    """Transport cost of each pair with itself (diagonal cells)."""
    s, _ = enc.similarity(state.params, ds.v_feats[indices], ds.t_feats[indices])
    return _cost(state, cfg, np.diag(s))


def _cost_gap(state: RunState, ds: PairDataset, cfg: TrainConfig,
              train_idx: np.ndarray) -> dict:
    pair_costs = _pair_costs(state, ds, cfg, train_idx)
    flags = ds.matched[train_idx]
    mean_matched = float(pair_costs[flags == 1].mean()) if (flags == 1).any() else 0.0
    mean_mismatched = float(pair_costs[flags == 0].mean()) if (flags == 0).any() else 0.0
    return {
        "mean_matched": mean_matched,
        "mean_mismatched": mean_mismatched,
        "gap": mean_mismatched - mean_matched,
    }


def _transport_mask(n: int, cfg: TrainConfig) -> np.ndarray:
    mask = np.ones((n, n), dtype=bool)
    if cfg.mask_positives:
        np.fill_diagonal(mask, False)
    return mask


def refine_batch(state: RunState, s_mis: np.ndarray, cfg: TrainConfig):
    """Masked partial transport over a mismatched batch's learned costs.

    Returns row- and column-normalized refined alignments.
    """
    n = s_mis.shape[0]
    mask = _transport_mask(n, cfg)
    marginal = np.full(n, 1.0 / n)
    rho = cfg.rho if cfg.partial else 1.0
    plan = partial_ot(_cost(state, cfg, s_mis), marginal, marginal, mask, rho=rho,
                      cfg=cfg.solver)
    refined_v2t, refined_t2v = normalize_plan(plan.plan, mask=mask)
    return refined_v2t, refined_t2v, plan


def _cost_update(state: RunState, ds: PairDataset, cfg: TrainConfig,
                 matched_batch: np.ndarray, mismatched_idx: np.ndarray):
    """One supervised descent step on the cost map from a rebuilt batch."""
    v_feats, pi_sup = costs_mod.reconstruct_pairs(
        ds.v_feats[matched_batch], ds.v_feats[mismatched_idx], cfg.reserve_ratio,
        state.rng)
    sims, _ = enc.similarity(state.params, v_feats, ds.t_feats[matched_batch])
    return costs_mod.cost_net_step(state.theta, sims, pi_sup, cfg.lr_cost,
                                   cfg.cost_bound)


def _rematch_steps(state: RunState, ds: PairDataset, cfg: TrainConfig,
                   train_idx: np.ndarray, matched_idx: np.ndarray,
                   mismatched_idx: np.ndarray, lr: float):
    """Sampled steps on the full objective; the mean loss and the solve counts.

    Every step draws its batches independently, in this order: a matched
    batch to teach the cost map, a mismatched batch for the rematch term,
    and a matched batch for the triplet term. A step whose transport solve
    did not converge skips the rematch term; ``{"solves", "unconverged"}``
    counts the solves and those skips.
    """
    solves = {"solves": 0, "unconverged": 0}

    def rematch_objective(s):
        refined_v2t, refined_t2v, plan = refine_batch(state, s, cfg)
        solves["solves"] += 1
        if not plan.converged:
            solves["unconverged"] += 1
            return 0.0, np.zeros_like(s)
        return rematch_loss(refined_v2t, refined_t2v, s, cfg.tau,
                            cfg.rematch_variant)

    terms = ((mismatched_idx, rematch_objective),
             (matched_idx, lambda s: triplet_loss_batch(s, cfg.alpha)))
    driver = matched_idx if matched_idx.size else train_idx
    steps = int(np.ceil(driver.size / cfg.batch_size))
    total = 0.0
    for _ in range(steps):
        if cfg.cost_mode == "learned":
            batch = _sample(state.rng, matched_idx, cfg.batch_size)
            if batch is not None:
                state.theta, clipped = _cost_update(state, ds, cfg, batch,
                                                    mismatched_idx)
                state.clip_events += int(clipped)
        batches = [(_sample(state.rng, pool, cfg.batch_size), loss_fn)
                   for pool, loss_fn in terms]
        total += _step(state, ds, cfg, batches, lr)
    return total / max(steps, 1), solves


def _epoch(state: RunState, ds: PairDataset, cfg: TrainConfig,
           train_idx: np.ndarray, warm: bool = False) -> dict:
    """One epoch of ``cfg.mode`` (or of warm-up); appends and returns its record."""
    mode = _MODES[cfg.mode]
    epoch_number = state.epoch + 1
    lr = current_lr(cfg, epoch_number)
    record = {"epoch": epoch_number, "phase": "warmup" if warm else "train", "lr": lr}
    rows = train_idx
    if mode.identify and not warm:
        matched_pos, mismatched_pos, bmm = _identify(state, ds, cfg, train_idx)
        rows, mismatched_idx = train_idx[matched_pos], train_idx[mismatched_pos]
        record["partition"] = {"matched": int(rows.size),
                               "mismatched": int(mismatched_idx.size)}
        record["identification"] = identification_score(
            mismatched_pos, ds.matched[train_idx])
    if warm:
        loss = _fit(state, ds, cfg, rows,
                    lambda s: warmup_loss(s, cfg.tau, cfg.eps, cfg.rce_weight), lr)
    elif mode.rematch:
        loss, record["transport"] = _rematch_steps(state, ds, cfg, train_idx, rows,
                                                   mismatched_idx, lr)
        record["bmm"] = None if bmm.degenerate else {
            "alpha_lo": bmm.alpha_lo, "beta_lo": bmm.beta_lo,
            "alpha_hi": bmm.alpha_hi, "beta_hi": bmm.beta_hi,
            "weight_hi": bmm.weight_hi, "mean_lo": bmm.mean_lo,
            "mean_hi": bmm.mean_hi, "em_iterations": len(bmm.loglik_trace),
        }
        record["cost_gap"] = _cost_gap(state, ds, cfg, train_idx)
        record["cost_params"] = {"w": state.theta.w, "b": state.theta.b}
    else:
        loss = _fit(state, ds, cfg, rows,
                    lambda s: triplet_loss_batch(s, cfg.alpha), lr)
    record["train_loss"] = loss
    state.epoch = epoch_number
    state.history.append(record)
    return record


def train_epoch(state: RunState, ds: PairDataset, cfg: TrainConfig,
                train_idx: np.ndarray) -> RunState:
    """One post-warm-up epoch of ``cfg.mode``, exactly as the full run trains it."""
    _epoch(state, ds, cfg, train_idx)
    return state


def evaluate(params: enc.EncoderParams, ds: PairDataset,
             indices: np.ndarray) -> dict:
    """Retrieval metrics over a one-to-one split."""
    s, _ = enc.similarity(params, ds.v_feats[indices], ds.t_feats[indices])
    return recall_at_k(s)


def random_ranking_rsum(n: int) -> float:
    """Expected recall sum of a uniformly random ranking."""
    return float(sum(2 * 100.0 * k / n for k in RECALL_CUTOFFS))


def _track_best(state: RunState, val_metrics: dict):
    if val_metrics["rsum"] > state.best_rsum:
        state.best_rsum = val_metrics["rsum"]
        state.best_epoch = state.epoch
        state.best_params = state.params.copy()


def run_experiment(cfg: TrainConfig, ds: PairDataset,
                   return_state: bool = False):
    """Train per the configured mode and return the metrics payload.

    The payload echoes the config and the dataset header, carries one
    record per epoch with its validation metrics, and reports final test
    metrics from the checkpoint with the highest validation recall sum
    (from the last warm-up epoch on). Wall-clock timing lives under the
    separate ``timing`` key so payloads stay comparable across runs.
    With ``return_state`` the final :class:`RunState` is returned alongside
    the payload.
    """
    started = time.time()
    train_idx, val_idx, test_idx = split_indices(cfg, ds)
    if min(train_idx.size, val_idx.size, test_idx.size) < 10:
        raise ValueError("splits too small; need at least 10 rows in each")
    state = init_state(cfg, ds)

    warm_epochs = cfg.warmup_epochs if _MODES[cfg.mode].warmup else 0
    for _ in range(cfg.total_epochs):
        record = _epoch(state, ds, cfg, train_idx, warm=state.epoch < warm_epochs)
        record["val"] = evaluate(state.params, ds, val_idx)
        if state.epoch >= warm_epochs:
            _track_best(state, record["val"])

    best_params = state.best_params if state.best_params is not None else state.params
    payload = {
        "schema": "run-metrics/1",
        "mode": cfg.mode,
        "config": asdict(cfg),
        "dataset": {
            "n": len(ds), "classes": int(ds.classes), "noise": float(ds.noise),
            "mrate": float(ds.mrate), "seed": int(ds.seed),
            "d_in_v": int(ds.v_feats.shape[1]), "d_in_t": int(ds.t_feats.shape[1]),
            "latent_dim": int(ds.latent_dim),
        },
        "splits": {"train": int(train_idx.size), "val": int(val_idx.size),
                   "test": int(test_idx.size)},
        "epochs": state.history,
        "best": {"epoch": state.best_epoch, "val_rsum": state.best_rsum},
        "test": evaluate(best_params, ds, test_idx),
        "random_baseline_rsum": random_ranking_rsum(test_idx.size),
        "cost_clip_events": state.clip_events,
        "timing": {"seconds": time.time() - started},
    }
    if return_state:
        return payload, state
    return payload


def save_state(state: RunState, cfg: TrainConfig, path: str) -> None:
    """Checkpoint the run as a compressed array archive (atomic write)."""
    payload = {
        "version": np.int64(_STATE_VERSION),
        "w_v": state.params.w_v,
        "w_t": state.params.w_t,
        "cost_w": np.float64(state.theta.w),
        "cost_b": np.float64(state.theta.b),
        "epoch": np.int64(state.epoch),
        "best_rsum": np.float64(state.best_rsum),
        "best_epoch": np.int64(state.best_epoch),
        "clip_events": np.int64(state.clip_events),
        "rng_state": np.array(json.dumps(state.rng.bit_generator.state)),
        "history": np.array(json.dumps(state.history)),
        "config": np.array(json.dumps(asdict(cfg))),
    }
    if state.best_params is not None:
        payload["best_w_v"] = state.best_params.w_v
        payload["best_w_t"] = state.best_params.w_t
    if state.adam is not None:
        payload["adam_m_v"] = state.adam.m_v
        payload["adam_v_v"] = state.adam.v_v
        payload["adam_m_t"] = state.adam.m_t
        payload["adam_v_t"] = state.adam.v_t
        payload["adam_step"] = np.int64(state.adam.step)
    with atomic_write(path, "wb") as handle:
        np.savez_compressed(handle, **payload)


def load_state(path: str):
    """Restore a checkpoint saved by :func:`save_state`.

    Returns ``(state, config)``; resuming training from the restored state
    reproduces the original run exactly. A checkpoint of another version,
    with a missing entry, or with a config that does not name exactly the
    :class:`TrainConfig` fields raises ``ValueError``, and so does a file
    that is not a zip archive or whose entries cannot be read.
    """
    with open(path, "rb") as handle:
        if not zipfile.is_zipfile(handle):
            raise ValueError(f"checkpoint {path} is not a zip archive")
    try:
        with np.load(path, allow_pickle=False) as archive:
            return _restore(archive, path)
    except ValueError:
        raise
    except Exception as exc:  # whatever a damaged archive makes zipfile or numpy raise
        raise ValueError(f"checkpoint {path} is damaged: "
                         f"{type(exc).__name__}: {exc}") from None


def _restore(archive, path: str):
    def entry(key):
        if key not in archive:
            raise ValueError(f"checkpoint {path} has no {key!r} entry")
        return archive[key]

    if int(entry("version")) != _STATE_VERSION:
        raise ValueError(f"unsupported checkpoint version {archive['version']}")
    config = json.loads(str(entry("config")[()]))
    known = {f.name for f in fields(TrainConfig)}
    unknown, missing = sorted(config.keys() - known), sorted(known - config.keys())
    if unknown or missing:
        raise ValueError(f"checkpoint {path} config: unknown keys {unknown}, "
                         f"missing keys {missing}")
    cfg = TrainConfig(**config)
    rng = np.random.default_rng()
    rng.bit_generator.state = json.loads(str(entry("rng_state")[()]))
    state = RunState(
        params=enc.EncoderParams(entry("w_v").copy(), entry("w_t").copy()),
        theta=costs_mod.CostNetParams(float(entry("cost_w")),
                                      float(entry("cost_b"))),
        epoch=int(entry("epoch")),
        rng=rng,
        history=json.loads(str(entry("history")[()])),
        best_rsum=float(entry("best_rsum")),
        best_epoch=int(entry("best_epoch")),
        clip_events=int(entry("clip_events")),
    )
    if "best_w_v" in archive:
        state.best_params = enc.EncoderParams(entry("best_w_v").copy(),
                                              entry("best_w_t").copy())
    if "adam_m_v" in archive:
        state.adam = AdamState(entry("adam_m_v").copy(),
                               entry("adam_v_v").copy(),
                               entry("adam_m_t").copy(),
                               entry("adam_v_t").copy(),
                               int(entry("adam_step")))
    return state, cfg
