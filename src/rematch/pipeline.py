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
from operator import attrgetter
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from . import costs as costs_mod
from . import encoder as enc
from .data import (RECALL_CUTOFFS, PairDataset, atomic_write, dataset_header,
                   identification_score, recall_at_k)
from .losses import (_VARIANTS, _Workspace, _fresh, per_pair_triplet_losses, rematch_loss,
                     triplet_loss_batch, warmup_loss)
from .mixture import (_SHAPE_MAX, _SHAPE_MIN, BetaMixture, fit_bmm,
                      mismatch_probabilities, partition)
from ._settings import check, choice, count, real, require, switch
from .transport import SinkhornConfig, normalize_plan, partial_ot

__all__ = ["TrainConfig", "RunState", "init_state", "warmup", "per_sample_losses",
           "train_epoch", "evaluate", "run_experiment",
           "save_state", "load_state", "random_ranking_rsum"]

_STATE_VERSION = 4


class _Mode(NamedTuple):
    # an identifying mode first trains warmup_epochs on the warm-up objective
    identify: bool  # split rows by mismatch posterior, train on the matched ones
    rematch: bool   # sampled steps: cost-map update plus the rematch term


_MODES = {
    "rematch": _Mode(identify=True, rematch=True),
    "naive": _Mode(identify=False, rematch=False),
    "discard": _Mode(identify=True, rematch=False),
}

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


# Implementation settings the method never varies: the training solves'
# marginal tolerance and iteration cap, the mixture fit's EM iteration cap, and
# the share of the corrupted pool held out for validation
_OT_TOL = 1e-6
_OT_MAX_ITER = 3000
_EM_ITERS = 30
_VAL_FRAC = 0.1

# an epoch record's fitted mixture, in BetaMixture's field order
_BMM_PARAMS = ("alpha_lo", "beta_lo", "alpha_hi", "beta_hi", "weight_hi")
# the values fit_bmm can return for each of them
_BMM_RULES = (f"[{_SHAPE_MIN}, {_SHAPE_MAX}]",) * 4 + ("[0, 1]",)
# the values cost_net_step can leave the cost map's slope and offset at
_COST_RULE = f"[{-costs_mod._PARAM_BOUND}, {costs_mod._PARAM_BOUND}]"


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of a training run. Every field is overridable.

    Each field declares its valid values next to its default, and
    construction checks every field, raising ``ValueError`` that names the
    first one out of bounds. A field with help text is a ``train`` and
    ``ablate`` flag, in field order; an ablation arm sets the others.
    """

    seed: int = count(0, least=0, help="run seed; drives init, batching, and sampling")
    warmup_epochs: int = count(5, least=0, help="initial full-data epochs on the "
                                                "overconfidence-resistant objective")
    train_epochs: int = count(35, least=1,
                              help="identification + rematching epochs after warm-up")
    lr_decay_epoch: int = count(15, least=1,
                                help="1-based epoch from which the model rate is cut 10x")
    batch_size: int = count(128, least=2,
                            help="pairs per step; also the negative-mining pool size")
    alpha: float = real(0.2, "[0, inf)", help="margin of the hinge ranking loss")
    tau: float = real(0.05, "(0, inf)",
                      help="softmax temperature of the matching probabilities")
    eps: float = real(1e-7, "(0, 0.5)", help="label bound of the reversed cross-entropy")
    rho: float = real(0.1, "[0, 1]",
                      help="mass budget moved by the partial transport solve")
    lam: float = real(0.01, "(0, inf)",
                      help="entropic regularization of the transport solve")
    reserve_ratio: float = real(0.5, "(0, 1]", help="kept-match fraction when "
                                                    "rebuilding supervision batches")
    threshold: float = real(0.5, "[0, 1]", help="mismatch-posterior split point")
    lr_model: float = real(2e-4, "(0, inf)", help="encoder learning rate")
    lr_cost: float = real(2e-6, "(0, inf)", help="cost-map learning rate")
    embed_dim: int = count(16, least=2, help="shared embedding dimension")
    rce_weight: float = real(1.0, "[0, inf)",
                             help="weight of the reversed term during warm-up")
    mode: str = choice("rematch", _MODES,
                       help="rematch = full loop; naive = triplet on all data; "
                            "discard = triplet on the identified matched subset")
    cost_mode: str = choice("learned", ("learned", "cosine"))  # cosine: 1 - s
    mask_positives: bool = switch(True)
    rematch_variant: str = choice("sym_kl", _VARIANTS)
    optimizer: str = choice("sgd", ("sgd", "adam"), help="encoder optimizer")

    def __post_init__(self):
        check(self)

    @property
    def total_epochs(self) -> int:
        return self.warmup_epochs + self.train_epochs


@dataclass
class AdamState:
    """First/second moment accumulators of both projections, in their layout."""

    m: enc.EncoderParams
    v: enc.EncoderParams
    step: int = 0


@dataclass
class RunState:
    """Everything the loop owns: parameters, counters, the RNG stream, and
    the workspace of the step's arrays (never checkpointed)."""

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
    work: _Workspace = field(default_factory=_Workspace, repr=False, compare=False)


def init_state(cfg: TrainConfig, ds: PairDataset) -> RunState:
    rng = np.random.default_rng(cfg.seed)
    params = enc.init_params(ds.v_feats.shape[1], ds.t_feats.shape[1], cfg.embed_dim, rng)
    state = RunState(params=params, theta=costs_mod.CostNetParams(), epoch=0, rng=rng)
    if cfg.optimizer == "adam":
        state.adam = AdamState(params.over(np.zeros_like(params.w)),
                               params.over(np.zeros_like(params.w)))
    return state


def _descend(weights, grad, moments, step: int, lr: float):
    """The weights after one step down ``grad``, plain or, with the moments
    ``(m, v)``, Adam's ``step``-th, and the new moments; inputs stay as they are."""
    if moments is not None:
        m, v = moments[0] * _ADAM_BETA1, moments[1] * _ADAM_BETA2
        m += (1 - _ADAM_BETA1) * grad
        v += (1 - _ADAM_BETA2) * grad * grad
        grad = m / (1 - _ADAM_BETA1 ** step) / (np.sqrt(v / (1 - _ADAM_BETA2 ** step)) + _ADAM_EPS)
        moments = m, v
    return weights - lr * grad, moments


def _apply_update(state: RunState, cfg: TrainConfig, grad, lr: float) -> None:
    """One ``cfg.optimizer`` step on both projections at once, on ``grad`` laid out
    as ``params.w``; the run moves to new arrays, and holders of the old ones keep
    them. A non-finite gradient, an overflow or a non-finite new weight raises
    ``FloatingPointError`` naming the projection and the epoch, and leaves the run
    state as it was."""
    adam, params = state.adam if cfg.optimizer == "adam" else None, state.params
    moments, step = (None, 0) if adam is None else ((adam.m.w, adam.v.w), adam.step + 1)
    with np.errstate(over="raise", invalid="raise"):
        try:
            updated, stepped = _descend(params.w, grad, moments, step, lr)
        except FloatingPointError:
            updated = None
        # as after a non-finite gradient
        if updated is None or not np.logical_and.reduce(np.isfinite(updated), axis=None):
            where = f" in epoch {state.epoch + 1}"
            if not np.isfinite(grad).all():
                name = "text" if np.isfinite(grad[:params.rows_v]).all() else "visual"
                raise FloatingPointError(f"non-finite gradient in the {name} projection{where}")
            enc._name_the_tower(params, lambda _, rows: bool(np.isfinite(_descend(
                params.w[rows], grad[rows], moments and tuple(part[rows] for part in moments),
                step, lr)[0]).all()), "update", where)
    if adam is not None:
        adam.m, adam.v, adam.step = params.over(stepped[0]), params.over(stepped[1]), step
    state.params = params.over(updated)


def split_indices(cfg: TrainConfig, ds: PairDataset):
    """Carve validation rows out of the corrupted pool, deterministically;
    a split of fewer than 10 rows, too few to score, raises ``ValueError``."""
    pool = ds.pool_indices
    val_rng = np.random.default_rng((cfg.seed, 0x5A11))
    n_val = int(round(_VAL_FRAC * pool.size))
    val = np.sort(val_rng.choice(pool, size=n_val, replace=False))
    train = np.setdiff1d(pool, val)
    if min(train.size, val.size, ds.test_indices.size) < 10:
        raise ValueError("splits too small; need at least 10 rows in each")
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
    # the gradient sum starts at zeros: each entry is 0.0 + its first term, as a fresh sum's
    value, grad = 0.0, state.params.over(np.zeros(state.params.w.shape))
    for batch, loss_fn in terms:
        if batch is None:
            continue
        s, cache = enc.similarity(state.params, ds.v_feats[batch], ds.t_feats[batch],
                                  work=state.work)
        term, grad_s = loss_fn(s)
        value += term
        for block, term_grad in zip((grad.w_v, grad.w_t), enc.similarity_backward(cache, grad_s)):
            block += term_grad
    _apply_update(state, cfg, grad.w, lr)
    return value


def _fit(state: RunState, ds: PairDataset, cfg: TrainConfig,
         indices: np.ndarray, loss_fn, lr: float) -> float:
    """One shuffled pass over ``indices``, one step per batch; the mean loss."""
    batches = _batches(indices, cfg.batch_size, state.rng)
    total = sum(_step(state, ds, cfg, [(batch, loss_fn)], lr) for batch in batches)
    return total / max(len(batches), 1)


def _warm_epochs(cfg: TrainConfig) -> int:
    """Leading epochs on the warm-up objective: those of an identifying mode."""
    return cfg.warmup_epochs if _MODES[cfg.mode].identify else 0


def warmup(state: RunState, ds: PairDataset, cfg: TrainConfig) -> RunState:
    """The warm-up epochs the run has left (InfoNCE + reversed cross-entropy
    on all training rows), as the full run trains them; naive has none."""
    while state.epoch < _warm_epochs(cfg):
        train_epoch(state, ds, cfg)
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
        s, _ = enc.similarity(state.params, ds.v_feats[batch], ds.t_feats[batch],
                              work=state.work)
        losses[pos] = per_pair_triplet_losses(s, cfg.alpha, work=state.work)
    return losses


def _identify(state: RunState, ds: PairDataset, cfg: TrainConfig,
              train_idx: np.ndarray):
    """Fit the loss mixture, from the fit the previous epoch recorded if any,
    and split training rows by mismatch posterior; the matched and
    mismatched positions in ``train_idx``, and the fit."""
    losses = per_sample_losses(state, ds, cfg, train_idx)
    last = state.history[-1].get("bmm") if state.history else None
    init = None if last is None else BetaMixture(*(last[key] for key in _BMM_PARAMS))
    bmm = fit_bmm(losses, em_iters=_EM_ITERS, init=init)
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


def _cost(state: RunState, cfg: TrainConfig, s: np.ndarray, work=_fresh) -> np.ndarray:
    """Transport cost of similarities, of their shape: the learned map, or
    ``1 - s``, in ``work``."""
    if cfg.cost_mode == "cosine":
        return np.subtract(1.0, s, out=work("cost", *np.shape(s)))
    return costs_mod.cost_forward(s, state.theta, work=work)


def _cost_gap(state: RunState, ds: PairDataset, cfg: TrainConfig,
              train_idx: np.ndarray) -> dict:
    """Mean transport cost of each training pair with itself, matched and mismatched."""
    # split_indices draws train_idx from the dataset's rows, so clipping never acts,
    # and unlike the default mode it places the rows without buffering a copy
    rows = []
    for name, feats in (("v_rows", ds.v_feats), ("t_rows", ds.t_feats)):
        feats = np.asarray(feats, dtype=np.float64)
        out = state.work(name, train_idx.size, feats.shape[1])
        rows.append(feats.take(train_idx, axis=0, out=out, mode="clip"))
    sims = enc._pair_similarity(state.params, *rows, state.work)
    pair_costs, flags = _cost(state, cfg, sims, state.work), ds.matched[train_idx]
    matched, mismatched = (float(pair_costs[flags == flag].mean()) if (flags == flag).any()
                           else 0.0 for flag in (1, 0))
    return {"mean_matched": matched, "mean_mismatched": mismatched, "gap": mismatched - matched}


def refine_batch(state: RunState, s_mis: np.ndarray, cfg: TrainConfig,
                 solver: SinkhornConfig):
    """Masked partial transport over a mismatched batch's learned costs.

    Returns the row- and column-normalized refined alignments, ``None`` for
    an unconverged plan, and the plan; all live in ``state.work``.
    """
    n = s_mis.shape[0]
    mask = ~np.eye(n, dtype=bool) if cfg.mask_positives else np.ones((n, n), dtype=bool)
    marginal = np.full(n, 1.0 / n)
    plan = partial_ot(_cost(state, cfg, s_mis, state.work), marginal, marginal, mask,
                      rho=cfg.rho, cfg=solver, work=state.work)
    if not plan.converged:
        return None, None, plan
    return (*normalize_plan(plan.plan, mask, work=state.work), plan)


def _cost_update(state: RunState, ds: PairDataset, cfg: TrainConfig,
                 matched_batch: np.ndarray, mismatched_idx: np.ndarray):
    """One supervised descent step on the cost map from a rebuilt batch; its
    gradient reads only the true pairs, so only they are scored."""
    v_feats, (rows, cols) = costs_mod.reconstruct_pairs(
        ds.v_feats[matched_batch], ds.v_feats[mismatched_idx], cfg.reserve_ratio,
        state.rng)
    sims = enc._pair_similarity(state.params, v_feats[rows], ds.t_feats[matched_batch[cols]],
                                state.work)
    return costs_mod.cost_net_step(state.theta, sims, cfg.lr_cost)


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
    solver = SinkhornConfig(lam=cfg.lam, max_iter=_OT_MAX_ITER, tol=_OT_TOL)

    def rematch_objective(s):
        refined_v2t, refined_t2v, plan = refine_batch(state, s, cfg, solver)
        solves["solves"] += 1
        if not plan.converged:
            solves["unconverged"] += 1
            return 0.0, np.zeros_like(s)
        return rematch_loss(refined_v2t, refined_t2v, s, cfg.tau, cfg.rematch_variant,
                            work=state.work)

    terms = ((mismatched_idx, rematch_objective),
             (matched_idx, lambda s: triplet_loss_batch(s, cfg.alpha, work=state.work)))
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
           train_idx: np.ndarray, val_idx: np.ndarray) -> None:
    """The run's next epoch, warm-up or ``cfg.mode`` by ``state.epoch``. It is
    validated and, from the last warm-up epoch on, kept if it is the best so
    far; appends its record to ``state.history``. An epoch with no converged
    rematch solve raises ``ValueError`` naming ``lam``."""
    mode = _MODES[cfg.mode]
    warm = state.epoch < _warm_epochs(cfg)
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
        record["bmm"] = None if bmm.degenerate else {
            **{key: getattr(bmm, key) for key in _BMM_PARAMS}, "mean_lo": bmm.mean_lo,
            "mean_hi": bmm.mean_hi, "em_iterations": len(bmm.loglik_trace)}
    if warm:
        loss = _fit(state, ds, cfg, rows,
                    lambda s: warmup_loss(s, cfg.tau, cfg.eps, cfg.rce_weight,
                                          work=state.work), lr)
    elif mode.rematch:
        loss, solves = _rematch_steps(state, ds, cfg, train_idx, rows, mismatched_idx, lr)
        record["transport"] = solves
        if 0 < solves["solves"] == solves["unconverged"]:
            raise ValueError(f"lam={cfg.lam!r}: no rematch solve of epoch {epoch_number} "
                             f"converged ({solves['solves']} tried); try a larger lam")
        record["cost_gap"] = _cost_gap(state, ds, cfg, train_idx)
        record["cost_params"] = {"w": state.theta.w, "b": state.theta.b}
    else:
        loss = _fit(state, ds, cfg, rows,
                    lambda s: triplet_loss_batch(s, cfg.alpha, work=state.work), lr)
    record["train_loss"] = loss
    record["val"] = evaluate(state.params, ds, val_idx)
    state.epoch = epoch_number
    state.history.append(record)
    if epoch_number >= _warm_epochs(cfg) and record["val"]["rsum"] > state.best_rsum:
        state.best_rsum, state.best_epoch = record["val"]["rsum"], epoch_number
        state.best_params = state.params.copy()


def train_epoch(state: RunState, ds: PairDataset, cfg: TrainConfig) -> RunState:
    """The run's next epoch, warm-up or ``cfg.mode``, exactly as the full run
    trains and validates it; a finished run raises ``ValueError``."""
    if state.epoch >= cfg.total_epochs:
        raise ValueError(f"the run is finished: epoch {state.epoch} of "
                         f"{cfg.total_epochs} total epochs")
    train_idx, val_idx, _ = split_indices(cfg, ds)
    _epoch(state, ds, cfg, train_idx, val_idx)
    return state


def evaluate(params: enc.EncoderParams, ds: PairDataset,
             indices: np.ndarray) -> dict:
    """Retrieval metrics over a one-to-one split."""
    s, _ = enc.similarity(params, ds.v_feats[indices], ds.t_feats[indices])
    return recall_at_k(s)


def random_ranking_rsum(n: int) -> float:
    """Expected recall sum of a uniformly random ranking."""
    return float(sum(2 * 100.0 * k / n for k in RECALL_CUTOFFS))


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
    state = init_state(cfg, ds)
    while state.epoch < cfg.total_epochs:
        _epoch(state, ds, cfg, train_idx, val_idx)
    payload = {
        "schema": "run-metrics/1",
        "mode": cfg.mode,
        "config": asdict(cfg),
        "dataset": dataset_header(ds),
        "splits": {"train": int(train_idx.size), "val": int(val_idx.size),
                   "test": int(test_idx.size)},
        "epochs": state.history,
        "best": {"epoch": state.best_epoch, "val_rsum": state.best_rsum},
        "test": evaluate(state.best_params, ds, test_idx),
        "random_baseline_rsum": random_ranking_rsum(test_idx.size),
        "cost_clip_events": state.clip_events,
        "timing": {"seconds": time.time() - started},
    }
    if return_state:
        return payload, state
    return payload


# how an entry is stored: what save_state stores, what load_state reads (a scalar as its number)
class _Kind(NamedTuple):
    store: Callable
    read: Callable


_INT, _REAL = _Kind(np.int64, np.ndarray.item), _Kind(np.float64, np.ndarray.item)
_MATRIX = _Kind(np.asarray, np.asarray)
_TEXT = _Kind(lambda value: np.array(json.dumps(value)), lambda array: json.loads(str(array)))
_CONFIG = _Kind(lambda cfg: _TEXT.store(asdict(cfg)), lambda array: _config(_TEXT.read(array)))
# when an entry is saved, in words and as a test of the run restored so far
_BEST = ("exactly when best_epoch != -1", lambda run: run.best_epoch != -1)
_ADAM = ("exactly when the optimizer is adam", lambda run: run.cfg.optimizer == "adam")


class _Entry(NamedTuple):
    """One checkpoint entry: name, storage kind, the check load_state holds it to, the path
    it fills in the run (state fields, ``cfg``, ``version``; ``None``: the name), when saved."""
    name: str
    kind: _Kind
    check: Callable = lambda where, value, run: None
    path: str | None = None
    saved: tuple = ("in every checkpoint", lambda run: True)


def _obeys(rule, per=None):
    """The check of a :func:`require` rule, or of the one ``rule(run)`` gives
    from the entries ``per`` names, which its error then names too."""
    def check(where, value, run):
        try:
            require(where, value, rule(run) if callable(rule) else rule)
        except ValueError as exc:
            if per is None:
                raise
            raise ValueError(f"{exc} (per {per})") from None
    return check


def _matrix(like=None, least=-np.inf):
    """The check of a finite float64 matrix with no value below ``least``,
    shaped like the run's weight at path ``like`` or of ``cfg.embed_dim`` columns;
    its error names the entry that sets the shape."""
    def check(where, value, run):
        shape = attrgetter(like)(run).shape if like else (*value.shape[:1], run.cfg.embed_dim)
        if (value.dtype != np.float64 or value.shape != shape
                or not np.all(np.isfinite(value) & (value >= least))):
            per = (f"shape per entry {next(e.name for e in _ENTRIES if e.path == like)!r}"
                   if like else "columns per entry 'config'")
            raise ValueError(f"{where} must be a finite float64 {shape} matrix of values >= "
                             f"{least}, got a {value.dtype} array of shape {value.shape} "
                             f"({per})")
    return check


def _config(echo) -> TrainConfig:
    """The config of an echo of every field; an unknown key raises TypeError."""
    if missing := sorted({f.name for f in fields(TrainConfig)} - echo.keys()):
        raise ValueError(f"missing keys {missing}")
    return TrainConfig(**echo)


def _check_history(where, history, run) -> None:
    """Records numbered 1..``run.epoch``, each mixture fit (a later EM start)
    ``None`` or one :func:`fit_bmm` can return."""
    if not (isinstance(history, list) and all(isinstance(r, dict) for r in history)
            and [r.get("epoch") for r in history] == list(range(1, run.epoch + 1))):
        raise ValueError(f"{where} must be a list of records numbered 1..{run.epoch} "
                         "(per entry 'epoch')")
    for record in history:
        for key, rule in zip(_BMM_PARAMS, _BMM_RULES) if record.get("bmm") is not None else ():
            require(f"{where} record {record['epoch']} has an invalid bmm block: {key}",
                    record["bmm"][key], rule)


# The checkpoint format, in the order load_state reads it: a check or a test of
# when an entry is saved reads only the entries above it.
_ENTRIES = (
    _Entry("version", _INT, _obeys(range(_STATE_VERSION, _STATE_VERSION + 1))),
    _Entry("config", _CONFIG, path="cfg"),
    _Entry("epoch", _INT, _obeys(lambda run: range(run.cfg.total_epochs + 1), "entry 'config'")),
    _Entry("history", _TEXT, _check_history),
    _Entry("rng_state", _TEXT, path="rng.bit_generator.state"),
    _Entry("w_v", _MATRIX, _matrix(), "params.w_v"),
    _Entry("w_t", _MATRIX, _matrix(), "params.w_t"),
    _Entry("cost_w", _REAL, _obeys(_COST_RULE), path="theta.w"),
    _Entry("cost_b", _REAL, _obeys(_COST_RULE), path="theta.b"),
    _Entry("clip_events", _INT, _obeys(0)),
    # -1 until the first epoch that can be kept (the range from it is empty), then one of those
    _Entry("best_epoch", _INT, _obeys(
        lambda run: range(max(_warm_epochs(run.cfg), 1), run.epoch + 1) or range(-1, 0),
        "entries 'config' and 'epoch'")),
    _Entry("best_rsum", _REAL, _obeys(lambda run: {"choices": (
        run.history[run.best_epoch - 1]["val"]["rsum"] if run.best_epoch > 0 else -1.0,)},
        "entries 'history' and 'best_epoch'")),
    _Entry("best_w_v", _MATRIX, _matrix("params.w_v"), "best_params.w_v", _BEST),
    _Entry("best_w_t", _MATRIX, _matrix("params.w_t"), "best_params.w_t", _BEST),
    _Entry("adam_m_v", _MATRIX, _matrix("params.w_v"), "adam.m.w_v", _ADAM),
    _Entry("adam_v_v", _MATRIX, _matrix("params.w_v", 0), "adam.v.w_v", _ADAM),
    _Entry("adam_m_t", _MATRIX, _matrix("params.w_t"), "adam.m.w_t", _ADAM),
    _Entry("adam_v_t", _MATRIX, _matrix("params.w_t", 0), "adam.v.w_t", _ADAM),
    _Entry("adam_step", _INT, _obeys(0), "adam.step", _ADAM),
)


def save_state(state: RunState, cfg: TrainConfig, path: str) -> None:
    """Checkpoint the run as a compressed array archive (atomic write)."""
    run = SimpleNamespace(**vars(state), cfg=cfg, version=_STATE_VERSION)
    with atomic_write(path, "wb") as handle:
        np.savez_compressed(handle, **{
            entry.name: entry.kind.store(attrgetter(entry.path or entry.name)(run))
            for entry in _ENTRIES if entry.saved[1](run)})


def load_state(path: str):
    """Restore a checkpoint saved by :func:`save_state` as ``(state, config)``;
    stepping the state with :func:`train_epoch` until ``config.total_epochs``
    ends exactly where the uninterrupted run does. An entry that is missing,
    should be absent or fails its check raises ``ValueError`` naming it, and
    so does a file that is not a zip archive or cannot be read."""
    with open(path, "rb") as handle:
        if not zipfile.is_zipfile(handle):
            raise ValueError(f"checkpoint {path} is not a zip archive")
    try:
        archive = np.load(path, allow_pickle=False)
    except Exception as exc:  # whatever a damaged archive makes zipfile or numpy raise
        raise ValueError(f"checkpoint {path} is damaged: {type(exc).__name__}: {exc}") from None
    with archive:
        return _restore(archive, path)


def _restore(archive, path: str):
    # entries fill a blank state, each projection's block apart until all are read;
    # the blank cost map is this restore's own
    blank = SimpleNamespace
    run = blank(**vars(RunState(blank(), costs_mod.CostNetParams(), 0, np.random.default_rng(),
                                best_params=blank(), adam=blank(m=blank(), v=blank()))))
    for entry in _ENTRIES:
        where, (words, saved) = f"checkpoint {path} entry {entry.name!r}", entry.saved
        owner, _, attr = (entry.path or entry.name).rpartition(".")
        if (entry.name in archive) != saved(run):
            raise ValueError(f"{where} must be saved {words}")
        if not saved(run):
            setattr(run, owner.partition(".")[0], None)
            continue
        try:
            value = entry.kind.read(archive[entry.name])
            entry.check(where, value, run)
            object.__setattr__(attrgetter(owner)(run) if owner else run, attr, value)
        except Exception as exc:  # a check's error names the entry; name it in any other
            named = isinstance(exc, ValueError) and str(exc).startswith(where)
            raise exc if named else ValueError(
                f"{where} is invalid: {type(exc).__name__}: {exc}") from None
    stacked = lambda blocks: blocks and enc.EncoderParams(blocks.w_v, blocks.w_t)
    run.params, run.best_params = stacked(run.params), stacked(run.best_params)
    run.adam = run.adam and AdamState(stacked(run.adam.m), stacked(run.adam.v), run.adam.step)
    return RunState(**{f.name: getattr(run, f.name) for f in fields(RunState)}), run.cfg
