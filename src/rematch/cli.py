"""Command-line front end: dataset generation, training, evaluation,
ablations, and the solver self-check.

Standard output carries exclusively the machine-readable payload (or the
path of the file it was written to); progress notes go to standard error.
Relative output paths resolve under ``$REMATCH_OUT_DIR`` when that variable
is set. Files are written atomically (temp file, then rename).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from .data import load_dataset, make_benchmark, save_dataset
from .flow_oracle import exact_ot_oracle
from .pipeline import (
    MODES,
    OPTIMIZERS,
    TrainConfig,
    evaluate,
    load_state,
    run_experiment,
    split_indices,
)
from .transport import SinkhornConfig, sinkhorn

OUT_DIR_ENV = "REMATCH_OUT_DIR"

ABLATION_ARMS = {
    "no-cost": {"cost_mode": "cosine"},
    "no-mask": {"mask_positives": False},
    "no-partial": {"partial": False},
    "kl": {"rematch_variant": "kl"},
    "infonce": {"rematch_variant": "ce"},
}


def _resolve_out(path: str) -> str:
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _dump_payload(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, default=_json_default)


def _emit(payload: dict, out: str | None) -> None:
    """Write the payload to ``out`` (printing the path) or to stdout."""
    text = _dump_payload(payload)
    if out is None:
        print(text)
        return
    out = _resolve_out(out)
    directory = os.path.dirname(os.path.abspath(out))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text + "\n")
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    print(out)


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    defaults = TrainConfig()
    parser.add_argument("--seed", type=int, default=defaults.seed,
                        help="run seed; drives init, batching, and sampling")
    parser.add_argument("--warmup-epochs", type=int, default=defaults.warmup_epochs,
                        help="initial full-data epochs on the overconfidence-"
                             "resistant objective")
    parser.add_argument("--train-epochs", type=int, default=defaults.train_epochs,
                        help="identification + rematching epochs after warm-up")
    parser.add_argument("--lr-decay-epoch", type=int, default=defaults.lr_decay_epoch,
                        help="1-based epoch from which the model rate is cut 10x")
    parser.add_argument("--batch-size", type=int, default=defaults.batch_size,
                        help="pairs per step; also the negative-mining pool size")
    parser.add_argument("--alpha", type=float, default=defaults.alpha,
                        help="margin of the hinge ranking loss")
    parser.add_argument("--tau", type=float, default=defaults.tau,
                        help="softmax temperature of the matching probabilities")
    parser.add_argument("--eps", type=float, default=defaults.eps,
                        help="label bound of the reversed cross-entropy")
    parser.add_argument("--rho", type=float, default=defaults.rho,
                        help="mass budget moved by the partial transport solve")
    parser.add_argument("--lambda", dest="lam", type=float, default=defaults.lam,
                        help="entropic regularization of the transport solve")
    parser.add_argument("--reserve-ratio", type=float, default=defaults.reserve_ratio,
                        help="kept-match fraction when rebuilding supervision batches")
    parser.add_argument("--threshold", type=float, default=defaults.threshold,
                        help="mismatch-posterior split point")
    parser.add_argument("--lr-model", type=float, default=defaults.lr_model,
                        help="encoder learning rate")
    parser.add_argument("--lr-cost", type=float, default=defaults.lr_cost,
                        help="cost-map learning rate")
    parser.add_argument("--embed-dim", type=int, default=defaults.embed_dim,
                        help="shared embedding dimension")
    parser.add_argument("--rce-weight", type=float, default=defaults.rce_weight,
                        help="weight of the reversed term during warm-up")
    parser.add_argument("--mode", choices=MODES, default=defaults.mode,
                        help="rematch = full loop; naive = triplet on all data; "
                             "discard = triplet on the identified matched subset")
    parser.add_argument("--optimizer", choices=OPTIMIZERS, default=defaults.optimizer,
                        help="encoder optimizer")
    parser.add_argument("--em-iters", type=int, default=defaults.em_iters,
                        help="mixture-fit iteration cap")
    parser.add_argument("--ot-tol", type=float, default=defaults.ot_tol,
                        help="marginal tolerance of training-loop transport solves")
    parser.add_argument("--ot-max-iter", type=int, default=defaults.ot_max_iter,
                        help="iteration cap of training-loop transport solves")
    parser.add_argument("--val-frac", type=float, default=defaults.val_frac,
                        help="fraction of the corrupted pool held out for validation")
    parser.add_argument("--state-out", default=None,
                        help="optional checkpoint file to write after training")


def _config_from_args(args, overrides=None) -> TrainConfig:
    fields = dict(
        warmup_epochs=args.warmup_epochs, train_epochs=args.train_epochs,
        lr_decay_epoch=args.lr_decay_epoch, batch_size=args.batch_size,
        alpha=args.alpha, tau=args.tau, eps=args.eps, rho=args.rho,
        lam=args.lam, reserve_ratio=args.reserve_ratio,
        threshold=args.threshold, lr_model=args.lr_model, lr_cost=args.lr_cost,
        seed=args.seed, embed_dim=args.embed_dim, rce_weight=args.rce_weight,
        mode=args.mode, optimizer=args.optimizer, em_iters=args.em_iters,
        ot_tol=args.ot_tol, ot_max_iter=args.ot_max_iter, val_frac=args.val_frac,
    )
    fields.update(overrides or {})
    return TrainConfig(**fields)


def _cmd_gen(args) -> int:
    ds = make_benchmark(n=args.n, classes=args.classes, noise=args.noise,
                        mrate=args.mrate, rng_seed=args.seed,
                        test_frac=args.test_frac, d_in_v=args.d_in_v,
                        d_in_t=args.d_in_t, latent_dim=args.latent_dim)
    out = _resolve_out(args.out)
    directory = os.path.dirname(os.path.abspath(out))
    os.makedirs(directory, exist_ok=True)
    save_dataset(ds, out)
    _note(f"wrote {len(ds)} pairs ({(ds.matched == 0).sum()} mismatched)")
    print(out)
    return 0


def _run_training(args, overrides=None) -> int:
    ds = load_dataset(args.data)
    cfg = _config_from_args(args, overrides)
    _note(f"training mode={cfg.mode} on {args.data} "
          f"({cfg.warmup_epochs}+{cfg.train_epochs} epochs)")
    payload, state = run_experiment(cfg, ds, return_state=True)
    if overrides:
        payload["ablation"] = args.arm
    if args.state_out:
        from .pipeline import save_state
        save_state(state, cfg, _resolve_out(args.state_out))
        _note(f"checkpoint written to {args.state_out}")
    _emit(payload, args.out)
    return 0


def _cmd_train(args) -> int:
    return _run_training(args)


def _cmd_ablate(args) -> int:
    return _run_training(args, ABLATION_ARMS[args.arm])


def _cmd_eval(args) -> int:
    ds = load_dataset(args.data)
    state, cfg = load_state(args.state)
    params = state.best_params if state.best_params is not None else state.params
    _, _, test_idx = split_indices(cfg, ds)
    payload = {
        "schema": "eval-metrics/1",
        "data": args.data,
        "state": args.state,
        "epoch": state.epoch,
        "test": evaluate(params, ds, test_idx),
    }
    _emit(payload, args.out)
    return 0


def _cmd_oracle_check(args) -> int:
    cfg = SinkhornConfig(lam=args.lam, max_iter=args.max_iter, tol=args.tol)
    max_gap = 0.0
    max_violation = 0.0
    all_converged = True
    for seed in range(args.instances):
        rng = np.random.default_rng((args.seed, seed))
        cost = rng.uniform(0, 1, (args.size, args.size))
        marginal = np.full(args.size, 1.0 / args.size)
        result = sinkhorn(cost, marginal, marginal, cfg=cfg)
        all_converged &= result.converged
        violation = max(np.abs(result.plan.sum(1) - marginal).max(),
                        np.abs(result.plan.sum(0) - marginal).max())
        optimum = (exact_ot_oracle(cost, marginal, marginal,
                                   mass_scale=args.size).plan * cost).sum()
        gap = ((result.plan * cost).sum() - optimum) / max(abs(optimum), 1e-12)
        max_gap = max(max_gap, gap)
        max_violation = max(max_violation, violation)
    payload = {
        "schema": "oracle-check/1",
        "instances": args.instances,
        "size": args.size,
        "lam": args.lam,
        "max_relative_gap": max_gap,
        "max_marginal_violation": max_violation,
        "all_converged": all_converged,
        "pass": bool(max_gap < 1e-3 and all_converged),
    }
    _emit(payload, args.out)
    return 0 if payload["pass"] else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rematch",
        description="Identify, rematch, and train through mismatched "
                    "cross-modal pairs.",
        epilog=f"Relative output paths resolve under ${OUT_DIR_ENV} when set.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a corrupted paired dataset")
    gen.add_argument("--n", type=int, required=True, help="number of pairs")
    gen.add_argument("--classes", type=int, default=10,
                     help="latent semantic classes")
    gen.add_argument("--noise", type=float, default=0.1,
                     help="feature noise scale")
    gen.add_argument("--mrate", type=float, required=True,
                     help="fraction of training captions to permute")
    gen.add_argument("--seed", type=int, default=0, help="generator seed")
    gen.add_argument("--out", required=True, help="output dataset file")
    gen.add_argument("--d-in-v", type=int, default=32,
                     help="visual feature width")
    gen.add_argument("--d-in-t", type=int, default=32, help="text feature width")
    gen.add_argument("--latent-dim", type=int, default=8,
                     help="latent prototype dimension")
    gen.add_argument("--test-frac", type=float, default=0.2,
                     help="clean fraction held out before corruption")
    gen.set_defaults(func=_cmd_gen)

    train = sub.add_parser("train", help="train a retrieval model")
    train.add_argument("--data", required=True, help="dataset file from gen")
    train.add_argument("--out", default=None,
                       help="metrics JSON file (stdout when omitted)")
    _add_train_flags(train)
    train.set_defaults(func=_cmd_train)

    ablate = sub.add_parser("ablate", help="train with one component toggled")
    ablate.add_argument("--arm", choices=sorted(ABLATION_ARMS), required=True,
                        help="no-cost: similarity-derived cost; no-mask: open "
                             "diagonal; no-partial: full mass budget; kl: "
                             "forward divergence only; infonce: cross-entropy "
                             "rematch term")
    ablate.add_argument("--data", required=True, help="dataset file from gen")
    ablate.add_argument("--out", default=None,
                        help="metrics JSON file (stdout when omitted)")
    _add_train_flags(ablate)
    ablate.set_defaults(func=_cmd_ablate)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    ev.add_argument("--data", required=True, help="dataset file from gen")
    ev.add_argument("--state", required=True, help="checkpoint from train")
    ev.add_argument("--out", default=None,
                    help="metrics JSON file (stdout when omitted)")
    ev.set_defaults(func=_cmd_eval)

    oracle = sub.add_parser("oracle-check",
                            help="compare the scaling solver against the exact "
                                 "flow solver")
    oracle.add_argument("--instances", type=int, default=100,
                        help="number of random instances")
    oracle.add_argument("--size", type=int, default=4, help="instance side length")
    oracle.add_argument("--lambda", dest="lam", type=float, default=0.001,
                        help="entropic regularization")
    oracle.add_argument("--tol", type=float, default=1e-9,
                        help="marginal convergence tolerance")
    oracle.add_argument("--max-iter", type=int, default=5000,
                        help="iteration cap per instance")
    oracle.add_argument("--seed", type=int, default=0, help="instance seed base")
    oracle.add_argument("--out", default=None,
                        help="report JSON file (stdout when omitted)")
    oracle.set_defaults(func=_cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, FloatingPointError) as exc:
        _note(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
