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
from dataclasses import fields

import numpy as np

from ._settings import require
from .data import atomic_write, load_dataset, make_benchmark, save_dataset
from .flow_oracle import exact_ot_oracle
from .pipeline import (TrainConfig, evaluate, load_state, run_experiment, save_state,
                       split_indices)
from .transport import SinkhornConfig, marginal_violation, sinkhorn

OUT_DIR_ENV = "REMATCH_OUT_DIR"

ABLATION_ARMS = {
    "no-cost": {"cost_mode": "cosine"},
    "no-mask": {"mask_positives": False},
    "no-partial": {"rho": 1.0},
    "kl": {"rematch_variant": "kl"},
    "infonce": {"rematch_variant": "ce"},
}


def _resolve_out(path: str) -> str:
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(payload: dict, out: str | None) -> None:
    """Write the payload to ``out`` (printing the path) or to stdout."""
    text = json.dumps(payload, sort_keys=True)
    if out is None:
        print(text)
        return
    out = _resolve_out(out)
    with atomic_write(out) as handle:
        handle.write(text + "\n")
    print(out)


def _note(message: str) -> None:
    print(message, file=sys.stderr)


# Each TrainConfig field with help text is a training flag, in field order: it
# sets the field of its name and takes the field's type, default and choices.
# The flag is the field name with dashes, apart from ``lam``'s --lambda.
_TRAIN_FLAGS = tuple(setting for setting in fields(TrainConfig) if setting.metadata["help"])
_FLAG_NAMES = {"lam": "--lambda"}


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    for setting in _TRAIN_FLAGS:
        flag = _FLAG_NAMES.get(setting.name, "--" + setting.name.replace("_", "-"))
        parser.add_argument(flag, dest=setting.name, type=setting.metadata.get("type"),
                            choices=setting.metadata.get("choices"),
                            default=setting.default, help=setting.metadata["help"])
    parser.add_argument("--state-out", default=None,
                        help="optional checkpoint file to write after training")


def _cmd_gen(args) -> int:
    # a flag left out is not in args, so make_benchmark's or generate's default holds
    options = {key: value for key, value in vars(args).items()
               if key in ("test_frac", "d_in_v", "d_in_t", "latent_dim")}
    ds = make_benchmark(n=args.n, classes=args.classes, noise=args.noise,
                        mrate=args.mrate, rng_seed=args.seed, **options)
    out = _resolve_out(args.out)
    save_dataset(ds, out)
    _note(f"wrote {len(ds)} pairs ({(ds.matched == 0).sum()} mismatched)")
    print(out)
    return 0


def _cmd_train(args) -> int:
    """``train``, and ``ablate`` with its arm's settings winning over a flag."""
    flags = {setting.name: getattr(args, setting.name) for setting in _TRAIN_FLAGS}
    cfg = TrainConfig(**{**flags, **ABLATION_ARMS.get(args.arm, {})})
    ds = load_dataset(args.data)
    _note(f"training mode={cfg.mode} on {args.data} "
          f"({cfg.warmup_epochs}+{cfg.train_epochs} epochs)")
    payload, state = run_experiment(cfg, ds, return_state=True)
    if args.arm:
        payload["ablation"] = args.arm
    _emit(payload, args.out)
    if args.state_out:
        state_out = _resolve_out(args.state_out)
        save_state(state, cfg, state_out)
        _note(f"checkpoint written to {state_out}")
    return 0


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
    require("--instances", args.instances, 1)
    require("--size", args.size, 1)
    max_gap = 0.0
    max_violation = 0.0
    all_converged = True
    for seed in range(args.instances):
        rng = np.random.default_rng((args.seed, seed))
        cost = rng.uniform(0, 1, (args.size, args.size))
        marginal = np.full(args.size, 1.0 / args.size)
        result = sinkhorn(cost, marginal, marginal, cfg=cfg)
        all_converged &= result.converged
        violation = marginal_violation(result.plan, marginal, marginal)
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
    gen.add_argument("--d-in-v", type=int, default=argparse.SUPPRESS, help="visual feature width")
    gen.add_argument("--d-in-t", type=int, default=argparse.SUPPRESS, help="text feature width")
    gen.add_argument("--latent-dim", type=int, default=argparse.SUPPRESS,
                     help="latent prototype dimension")
    gen.add_argument("--test-frac", type=float, default=argparse.SUPPRESS,
                     help="clean fraction held out before corruption")
    gen.set_defaults(func=_cmd_gen)

    train = sub.add_parser("train", help="train a retrieval model")
    train.add_argument("--data", required=True, help="dataset file from gen")
    train.add_argument("--out", default=None,
                       help="metrics JSON file (stdout when omitted)")
    _add_train_flags(train)
    train.set_defaults(func=_cmd_train, arm=None)

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
    ablate.set_defaults(func=_cmd_train)

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
    except (ValueError, OSError, FloatingPointError) as exc:
        _note(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
