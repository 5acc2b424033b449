"""The benchmark's workloads: the inputs each one makes and the checks on its outputs.

A workload turns the benchmark seed into a fixed list of units. One pass
runs every unit once; a unit is what the benchmark times and checks as one
piece:

* ``desk-rematch``   - one ``run_experiment`` call in ``rematch`` mode on one
  desk-scale dataset;
* ``desk-baselines`` - one ``run_experiment`` call in ``naive`` or
  ``discard`` mode on one desk-scale dataset;
* ``solver-certify`` - one certification case: a balanced 4x4 ``sinkhorn``
  solve checked against ``exact_ot_oracle`` and one masked ``partial_ot``
  instance solved and checked at each budget of acceptance criterion 2.

Every call into the library goes through the module object, so
the traced run's wrappers see the benchmark's own calls too."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

import rematch.data as data
import rematch.flow_oracle as flow_oracle
import rematch.pipeline as pipeline
import rematch.transport as transport

# acceptance-suite training config and dataset (criteria 5 and 7)
DESK_TRAIN = dict(optimizer="adam", warmup_epochs=15, train_epochs=25, lr_decay_epoch=20)
DESK_DATA = dict(n=500, classes=10, noise=0.1)
SMOKE_TRAIN = dict(optimizer="adam", warmup_epochs=2, train_epochs=2, lr_decay_epoch=3,
                   batch_size=32)
SMOKE_DATA = dict(n=200, classes=5, noise=0.1)
MRATES = (0.4, 0.6)

# Dataset seeds per pass, each at both corruption rates. The work of a
# training run changes with its dataset (the share of pairs identified sets
# how many steps an epoch takes), so more seeds keep the figures of one
# benchmark seed closer to those of another; fewer keep the pass short. A
# rematch run takes ~4 s, so its pass of three seeds already fills the window.
REMATCH_SEEDS = 3
BASELINE_SEEDS = 4
CERTIFY_CASES = 16

# criterion 1: balanced solves against the exact solver
BALANCED = transport.SinkhornConfig(lam=0.001, max_iter=5000, tol=1e-9)
BALANCED_SIDE = 4
# criterion 2: masked partial solves and their invariants
PARTIAL = transport.SinkhornConfig(lam=0.02, max_iter=20000, tol=1e-9)
RHOS = (0.1, 0.25, 0.5)
MASS_TOL = 1e-6


@dataclass
class Outcome:
    """What one unit produced: failed checks, a fingerprint of its output,
    the seconds of each call it made, how many items it processed, and the
    quality figures the report shows."""

    problems: list = field(default_factory=list)
    fingerprint: str = ""
    call_seconds: list = field(default_factory=list)
    items: int = 0
    quality: dict = field(default_factory=dict)

    def note(self, name: str, value: float) -> None:
        self.quality.setdefault(name, []).append(float(value))


@dataclass(frozen=True)
class Unit:
    key: str
    run: Callable[[], Outcome]


@dataclass(frozen=True)
class Workload:
    name: str
    call: str            # what one entry of Outcome.call_seconds times
    build: Callable[[int, bool], list]


def _digest(*chunks: bytes) -> str:
    sha = hashlib.sha256()
    for chunk in chunks:
        sha.update(chunk)
    return sha.hexdigest()


def _plain(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _all_finite(value) -> bool:
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_all_finite(v) for v in value)
    if isinstance(value, (float, np.floating)):
        return math.isfinite(value)
    return True


def _dataset_seeds(seed: int, count: int) -> list:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _training_unit(mode: str, mrate: float, dataset_seed: int, smoke: bool) -> Unit:
    ds = data.make_benchmark(mrate=mrate, rng_seed=dataset_seed,
                             **(SMOKE_DATA if smoke else DESK_DATA))
    cfg = pipeline.TrainConfig(seed=dataset_seed, mode=mode,
                               **(SMOKE_TRAIN if smoke else DESK_TRAIN))

    def run() -> Outcome:
        out = Outcome()
        started = perf_counter()
        try:
            payload = pipeline.run_experiment(cfg, ds)
        except Exception as exc:  # a failed run is counted, not fatal
            out.problems.append(f"run raised {type(exc).__name__}: {exc}")
            return out
        out.call_seconds.append(perf_counter() - started)
        if not _all_finite(payload["epochs"]):
            out.problems.append("non-finite value in the epoch records")
        rsum = payload["test"]["rsum"]
        if not rsum > payload["random_baseline_rsum"]:
            out.problems.append(f"test rsum {rsum} does not beat random "
                                f"{payload['random_baseline_rsum']}")
        out.items = cfg.total_epochs * payload["splits"]["train"]
        out.note("test_rsum", rsum)
        final = payload["epochs"][-1].get("identification")
        if final is not None:
            out.note("ident_f1", final["f1"])
        payload.pop("timing")
        out.fingerprint = _digest(json.dumps(payload, sort_keys=True, default=_plain).encode())
        return out

    return Unit(f"{mode}/mrate={mrate}/seed={dataset_seed}", run)


def _training_units(modes: tuple, count: int):
    def build(seed: int, smoke: bool) -> list:
        seeds = _dataset_seeds(seed, 1 if smoke else count)
        return [_training_unit(mode, mrate, dataset_seed, smoke)
                for dataset_seed in seeds for mrate in MRATES for mode in modes]
    return build


def _random_open_mask(rng, n: int) -> np.ndarray:
    """Diagonal-zero mask with extra random closures, rows/cols kept open
    (the instance family of acceptance criterion 2)."""
    mask = np.ones((n, n), dtype=int)
    np.fill_diagonal(mask, 0)
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.15:
                trial = mask.copy()
                trial[i, j] = 0
                if trial.sum(axis=1).min() >= 2 and trial.sum(axis=0).min() >= 2:
                    mask = trial
    return mask


def _balanced_check(cost: np.ndarray, out: Outcome) -> bytes:
    side = cost.shape[0]
    marginal = np.full(side, 1.0 / side)
    result = transport.sinkhorn(cost, marginal, marginal, cfg=BALANCED)
    violation = transport.marginal_violation(result.plan, marginal, marginal)
    optimum = float((flow_oracle.exact_ot_oracle(cost, marginal, marginal,
                                                 mass_scale=side).plan * cost).sum())
    gap = float((result.plan * cost).sum()) - optimum
    # entropic bound: <P_lam, C> - OPT <= lam * H(P_lam) <= lam * log(open cells)
    bound = BALANCED.lam * math.log(cost.size)
    if not result.converged:
        out.problems.append(f"balanced solve did not converge ({result.iterations} iterations)")
    if violation > BALANCED.tol:
        out.problems.append(f"balanced marginal violation {violation:.3e} > tol")
    if gap > bound:
        out.problems.append(f"oracle cost gap {gap:.3e} above the entropic bound {bound:.3e}")
    out.note("oracle_gap", gap / max(abs(optimum), 1e-12))
    return result.plan.tobytes()


def _partial_check(cost: np.ndarray, mask: np.ndarray, rho: float, out: Outcome) -> bytes:
    side = cost.shape[0]
    marginal = np.full(side, 1.0 / side)
    result = transport.partial_ot(cost, marginal, marginal, mask, rho=rho, cfg=PARTIAL)
    mass_err = abs(float(result.plan.sum()) - rho)
    cap = max((result.plan.sum(axis=1) - marginal).max(),
              (result.plan.sum(axis=0) - marginal).max())
    label = f"partial side={side} rho={rho}"
    if not result.converged:
        out.problems.append(f"{label}: did not converge ({result.iterations} iterations)")
    if mass_err >= MASS_TOL:
        out.problems.append(f"{label}: block mass off by {mass_err:.3e}")
    if cap >= MASS_TOL:
        out.problems.append(f"{label}: marginal cap exceeded by {cap:.3e}")
    if np.any(result.plan[mask == 0] != 0.0):
        out.problems.append(f"{label}: mass in a closed cell")
    out.note("mass_err", mass_err)
    return result.plan.tobytes()


def _certify_unit(seed: int, case: int) -> Unit:
    rng = np.random.default_rng((seed, case))
    balanced_cost = rng.uniform(0, 1, (BALANCED_SIDE, BALANCED_SIDE))
    side = int(rng.integers(4, 9))
    partial_cost = rng.uniform(0, 1, (side, side))
    mask = _random_open_mask(rng, side)

    def run() -> Outcome:
        out = Outcome()
        plans = []
        checks = [lambda: _balanced_check(balanced_cost, out)]
        checks += [lambda rho=rho: _partial_check(partial_cost, mask, rho, out) for rho in RHOS]
        for check in checks:
            started = perf_counter()
            try:
                plans.append(check())
            except Exception as exc:  # a failed solve is counted, not fatal
                out.problems.append(f"solve raised {type(exc).__name__}: {exc}")
                continue
            out.call_seconds.append(perf_counter() - started)
            out.items += 1
        out.fingerprint = _digest(*plans)
        return out

    return Unit(f"certify/seed={seed}/case={case}", run)


def _certify_units(seed: int, smoke: bool) -> list:
    return [_certify_unit(seed, case) for case in range(2 if smoke else CERTIFY_CASES)]


WORKLOADS = {
    "desk-rematch": Workload("desk-rematch", "run",
                             _training_units(("rematch",), REMATCH_SEEDS)),
    "desk-baselines": Workload("desk-baselines", "run",
                               _training_units(("naive", "discard"), BASELINE_SEEDS)),
    "solver-certify": Workload("solver-certify", "solve", _certify_units),
}
