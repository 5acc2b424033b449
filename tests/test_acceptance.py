"""Acceptance suite: one test per release criterion, at fixed tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion. The robustness grid (criteria 5 and 7) trains 30 models and
dominates the runtime; everything else is fast.
"""

import json
import time

import numpy as np
import pytest

import rematch.encoder as enc
from rematch.costs import CostNetParams, cost_forward, cost_grads
from rematch.data import make_benchmark, identification_score
from rematch.flow_oracle import exact_ot_oracle
from rematch.losses import rematch_loss, triplet_loss_batch
from rematch.mixture import fit_bmm, mismatch_probabilities, partition
from rematch.pipeline import TrainConfig, run_experiment
import rematch.pipeline as pl
from rematch.transport import SinkhornConfig, normalize_plan, partial_ot, sinkhorn

from warmup_terms import infonce_loss, rce_loss

# configuration used for the training-based criteria: the adaptive optimizer
# (the option the encoder design allows) with a longer warm-up, which keeps
# identification reliable at the 0.6 mismatch rate on every seed
ROBUST = dict(optimizer="adam", warmup_epochs=15, train_epochs=25,
              lr_decay_epoch=20)
DATASET = dict(n=500, classes=10, noise=0.1)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_sinkhorn_matches_exact_solver():
    started = time.monotonic()
    cfg = SinkhornConfig(lam=0.001, max_iter=5000, tol=1e-9)
    worst_gap = 0.0
    worst_violation = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        cost = rng.uniform(0, 1, (4, 4))
        marginal = np.full(4, 0.25)
        result = sinkhorn(cost, marginal, marginal, cfg=cfg)
        assert result.converged, f"instance {seed} did not converge"
        violation = max(np.abs(result.plan.sum(1) - marginal).max(),
                        np.abs(result.plan.sum(0) - marginal).max())
        optimum = (exact_ot_oracle(cost, marginal, marginal,
                                   mass_scale=4).plan * cost).sum()
        gap = ((result.plan * cost).sum() - optimum) / max(abs(optimum), 1e-12)
        worst_gap = max(worst_gap, gap)
        worst_violation = max(worst_violation, violation)
    elapsed = time.monotonic() - started
    ok = worst_gap < 1e-3 and worst_violation < 1e-9 and elapsed < 5.0
    report(1, ok, f"gap={worst_gap:.2e} violation={worst_violation:.2e} "
                  f"time={elapsed:.2f}s over 100 instances")


def _random_open_mask(rng, n):
    """Diagonal-zero mask with extra random closures, rows/cols kept open."""
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


def test_criterion_2_partial_transport_invariants():
    cfg = SinkhornConfig(lam=0.02, max_iter=20000, tol=1e-9)
    worst_mass = 0.0
    worst_cap = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 9))
        cost = rng.uniform(0, 1, (n, n))
        mask = _random_open_mask(rng, n)
        marginal = np.full(n, 1.0 / n)
        for rho in (0.1, 0.25, 0.5):
            result = partial_ot(cost, marginal, marginal, mask, rho=rho, cfg=cfg)
            assert result.converged
            worst_mass = max(worst_mass, abs(result.plan.sum() - rho))
            worst_cap = max(worst_cap,
                            (result.plan.sum(1) - marginal).max(),
                            (result.plan.sum(0) - marginal).max())
            assert np.all(result.plan[mask == 0] == 0.0)
    # full-budget reduction against the plain solver
    rng = np.random.default_rng(1234)
    cost = rng.uniform(0, 1, (6, 6))
    mask = 1 - np.eye(6, dtype=int)
    marginal = np.full(6, 1.0 / 6)
    direct = sinkhorn(cost, marginal, marginal, mask,
                      SinkhornConfig(lam=0.02, max_iter=20000, tol=1e-10))
    reduced = partial_ot(cost, marginal, marginal, mask, rho=1.0,
                         cfg=SinkhornConfig(lam=0.02, max_iter=20000, tol=1e-10))
    reduction_gap = np.abs(direct.plan - reduced.plan).max()
    ok = worst_mass < 1e-6 and worst_cap < 1e-6 and reduction_gap < 1e-6
    report(2, ok, f"mass_err={worst_mass:.2e} cap_excess={worst_cap:.2e} "
                  f"reduction_gap={reduction_gap:.2e}")


def test_criterion_3_mixture_recovery():
    worst_mean_err = 0.0
    worst_f1 = 1.0
    monotone = True
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = 2000
        from_hi = rng.random(n) < 0.5
        draws = np.where(from_hi, rng.beta(8, 2, n), rng.beta(2, 8, n))
        bmm = fit_bmm(draws, em_iters=100, tol=1e-8)
        worst_mean_err = max(worst_mean_err, abs(bmm.mean_lo - 0.2),
                             abs(bmm.mean_hi - 0.8))
        trace = np.asarray(bmm.loglik_trace)
        monotone &= bool(np.all(np.diff(trace) >= -1e-12))
        posteriors = mismatch_probabilities(bmm, draws)
        _, flagged = partition(posteriors, 0.5)
        predicted = np.zeros(n, dtype=bool)
        predicted[flagged] = True
        tp = (predicted & from_hi).sum()
        fp = (predicted & ~from_hi).sum()
        fn = (~predicted & from_hi).sum()
        worst_f1 = min(worst_f1, 2 * tp / (2 * tp + fp + fn))
    ok = worst_mean_err < 0.05 and worst_f1 >= 0.95 and monotone
    report(3, ok, f"mean_err={worst_mean_err:.3f} min_f1={worst_f1:.3f} "
                  f"monotone={monotone}")


def _fd_matrix(fn, x, h=1e-6):
    grad = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        up = x.copy()
        up[idx] += h
        down = x.copy()
        down[idx] -= h
        grad[idx] = (fn(up) - fn(down)) / (2 * h)
    return grad


def _rel_err(analytic, numeric):
    return np.abs(analytic - numeric).max() / max(np.abs(numeric).max(), 1e-12)


def _no_ties(s, gap=1e-3):
    off = s + np.where(np.eye(s.shape[0], dtype=bool), -np.inf, 0.0)
    by_row = np.sort(off, axis=1)
    by_col = np.sort(off, axis=0)
    return min((by_row[:, -1] - by_row[:, -2]).min(),
               (by_col[-1] - by_col[-2]).min()) > gap


def _refined_for(rng, n):
    plan = rng.uniform(0, 1, (n, n)) * (1 - np.eye(n))
    return normalize_plan(plan)


def test_criterion_4_gradient_suite():
    tolerance = 1e-4
    worst = {}

    # triplet: 100 tie-free seeded inputs
    err, seed, checked = 0.0, 0, 0
    while checked < 100:
        s = np.random.default_rng(seed).uniform(-1, 1, (4, 4))
        seed += 1
        if not _no_ties(s):
            continue
        value_grad = triplet_loss_batch(s, 0.2)
        err = max(err, _rel_err(value_grad[1],
                                _fd_matrix(lambda x: triplet_loss_batch(x, 0.2)[0], s)))
        checked += 1
    worst["triplet"] = err

    for name, fn in (("infonce", lambda x: infonce_loss(x, 0.5)),
                     ("rce", lambda x: rce_loss(x, 0.5, 1e-7))):
        err = 0.0
        for seed in range(100):
            s = np.random.default_rng(seed).uniform(-1, 1, (4, 4))
            err = max(err, _rel_err(fn(s)[1], _fd_matrix(lambda x: fn(x)[0], s)))
        worst[name] = err

    err = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        s = rng.uniform(-1, 1, (3, 3))
        refined_v2t, refined_t2v = _refined_for(rng, 3)
        fn = lambda x: rematch_loss(refined_v2t, refined_t2v, x, 0.5)
        err = max(err, _rel_err(fn(s)[1], _fd_matrix(lambda x: fn(x)[0], s)))
    worst["rematch"] = err

    err = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        s = rng.uniform(-1, 1, (4, 4))
        pi_sup = np.zeros((4, 4))
        pi_sup[np.arange(4), rng.permutation(4)] = (rng.random(4) < 0.7)
        theta = CostNetParams(float(rng.normal(-1, 0.3)), float(rng.normal(0, 0.5)))
        dw_cells, db_cells = cost_grads(s, theta)
        analytic = np.array([(pi_sup * dw_cells).sum(), (pi_sup * db_cells).sum()])
        h = 1e-6
        numeric = np.array([
            ((pi_sup * cost_forward(s, CostNetParams(theta.w + h, theta.b))).sum()
             - (pi_sup * cost_forward(s, CostNetParams(theta.w - h, theta.b))).sum())
            / (2 * h),
            ((pi_sup * cost_forward(s, CostNetParams(theta.w, theta.b + h))).sum()
             - (pi_sup * cost_forward(s, CostNetParams(theta.w, theta.b - h))).sum())
            / (2 * h),
        ])
        err = max(err, np.abs(analytic - numeric).max()
                  / max(np.abs(numeric).max(), 1e-12))
    worst["cost_net"] = err

    # encoder chain: loss(similarity(params)) against finite differences in
    # the projection weights, cycling the loss families
    rng_master = np.random.default_rng(777)
    losses = [lambda s: infonce_loss(s, 0.5),
              lambda s: rce_loss(s, 0.5, 1e-7),
              lambda s: rematch_loss(*_refined_for(np.random.default_rng(5), 3),
                                     s, 0.5),
              lambda s: triplet_loss_batch(s, 0.2)]
    err = 0.0
    checked = 0
    seed = 0
    while checked < 100:
        seed += 1
        rng = np.random.default_rng(seed)
        params = enc.init_params(5, 5, 4, rng)
        v = rng.normal(size=(3, 5))
        t = rng.normal(size=(3, 5))
        loss_fn = losses[checked % len(losses)]
        s, cache = enc.similarity(params, v, t)
        if loss_fn is losses[3] and not _no_ties(s, gap=1e-2):
            continue
        _, grad_s = loss_fn(s)
        grad_w_v, grad_w_t = enc.similarity_backward(cache, grad_s)

        def value(p):
            return loss_fn(enc.similarity(p, v, t)[0])[0]

        for attr, analytic in (("w_v", grad_w_v), ("w_t", grad_w_t)):
            numeric = np.zeros_like(analytic)
            h = 1e-6
            for idx in np.ndindex(*numeric.shape):
                up = params.copy()
                getattr(up, attr)[idx] += h
                down = params.copy()
                getattr(down, attr)[idx] -= h
                numeric[idx] = (value(up) - value(down)) / (2 * h)
            err = max(err, _rel_err(analytic, numeric))
        checked += 1
    worst["encoder_chain"] = err

    ok = all(value < tolerance for value in worst.values())
    detail = " ".join(f"{k}={v:.1e}" for k, v in worst.items())
    report(4, ok, detail)


@pytest.fixture(scope="module")
def robustness_grid():
    """Criterion-5 training grid: 2 rates x 3 modes x 5 seeds."""
    started = time.monotonic()
    grid = {}
    for mrate in (0.4, 0.6):
        for mode in ("rematch", "naive", "discard"):
            runs = []
            for seed in range(5):
                ds = make_benchmark(mrate=mrate, rng_seed=seed, **DATASET)
                cfg = TrainConfig(seed=seed, mode=mode, **ROBUST)
                runs.append(run_experiment(cfg, ds))
            grid[(mrate, mode)] = runs
    grid["elapsed"] = time.monotonic() - started
    return grid


def test_criterion_5_desk_scale_robustness(robustness_grid):
    details = []
    ok = robustness_grid["elapsed"] < 600
    for mrate in (0.4, 0.6):
        means = {mode: np.mean([run["test"]["rsum"]
                                for run in robustness_grid[(mrate, mode)]])
                 for mode in ("rematch", "naive", "discard")}
        naive_margin = means["rematch"] - means["naive"]
        discard_margin = means["rematch"] - means["discard"]
        ok = ok and naive_margin >= 10 and discard_margin > 0
        details.append(f"mrate={mrate}: rsum={means['rematch']:.1f} "
                       f"naive+{naive_margin:.1f} discard+{discard_margin:.1f}")
    details.append(f"time={robustness_grid['elapsed']:.0f}s")
    report(5, ok, "; ".join(details))


def test_criterion_6_identification_regression():
    ds = make_benchmark(mrate=0.4, rng_seed=0, **DATASET)
    cfg = TrainConfig(seed=0)  # library defaults throughout
    train_idx, _, _ = pl.split_indices(cfg, ds)
    state = pl.init_state(cfg, ds)
    pl.warmup(state, ds, cfg)
    _, mismatched_pos, _ = pl._identify(state, ds, cfg, train_idx)
    score = identification_score(mismatched_pos, ds.matched[train_idx])
    frozen = 0.9198606271777003  # first measurement, kept as regression value
    ok = score["f1"] >= 0.8 and abs(score["f1"] - frozen) < 1e-9
    report(6, ok, f"f1={score['f1']:.4f} (frozen {frozen:.4f})")


def test_criterion_7_cost_separation(robustness_grid):
    final_gaps = []
    first_gaps = []
    for mrate in (0.4, 0.6):
        for run in robustness_grid[(mrate, "rematch")]:
            train_records = [r for r in run["epochs"] if "cost_gap" in r]
            first_gaps.append(train_records[0]["cost_gap"]["gap"])
            final_gaps.append(train_records[-1]["cost_gap"]["gap"])
    final_gaps = np.asarray(final_gaps)
    first_gaps = np.asarray(first_gaps)
    ok = bool(np.all(final_gaps > 0) and np.all(final_gaps > first_gaps))
    report(7, ok, f"final gap in [{final_gaps.min():.3f}, {final_gaps.max():.3f}], "
                  f"growth in [{(final_gaps - first_gaps).min():.3f}, "
                  f"{(final_gaps - first_gaps).max():.3f}] over 10 runs")


def test_criterion_8_untransported_rows_flatten():
    # costs mimic a trained map over a mismatched batch: saturated high
    # values except a few genuine rematch candidates
    rng = np.random.default_rng(0)
    n = 8
    cost = 1.0 + 0.03 * rng.uniform(0, 1, (n, n))
    for row, col in ((0, 3), (1, 6), (2, 1), (3, 5)):
        cost[row, col] = 0.75
    mask = 1 - np.eye(n, dtype=int)
    marginal = np.full(n, 1.0 / n)
    result = partial_ot(cost, marginal, marginal, mask, rho=0.25,
                        cfg=SinkhornConfig(lam=0.07, max_iter=20000, tol=1e-10))
    rows, _ = normalize_plan(result.plan, mask=mask)
    untransported = result.plan.sum(axis=1) < 0.25 / n * 0.5
    transported = ~untransported
    averaged = rows[untransported].mean(axis=0)
    support = mask[untransported].astype(bool).any(axis=0)
    deviation = np.abs(np.where(support, averaged - 1.0 / (n - 1), 0.0)).max()

    # ranked-profile comparison: untransported rows sit nearer to uniform
    # than transported rows sit to a point mass
    ranked_untransported = np.sort(rows[untransported], axis=1)[:, ::-1].mean(axis=0)
    ranked_transported = np.sort(rows[transported], axis=1)[:, ::-1].mean(axis=0)
    uniform_ref = np.concatenate([np.full(n - 1, 1.0 / (n - 1)), [0.0]])
    onehot_ref = np.zeros(n)
    onehot_ref[0] = 1.0
    flat_dev = np.abs(ranked_untransported - uniform_ref).max()
    point_dev = np.abs(ranked_transported - onehot_ref).max()

    ok = (untransported.sum() >= 3 and deviation < 0.1 and flat_dev < point_dev)
    report(8, ok, f"avg deviation={deviation:.3f} "
                  f"(ranked: flat={flat_dev:.3f} < point={point_dev:.3f})")


def test_criterion_9_determinism():
    ds = make_benchmark(n=200, classes=5, noise=0.1, mrate=0.4, rng_seed=3)
    cfg = TrainConfig(seed=3, optimizer="adam", warmup_epochs=3, train_epochs=3,
                      lr_decay_epoch=4, batch_size=32)
    payloads = []
    for _ in range(2):
        payload = run_experiment(cfg, ds)
        payload.pop("timing")
        payloads.append(json.dumps(payload, sort_keys=True))
    ok = payloads[0] == payloads[1]
    report(9, ok, f"payloads identical ({len(payloads[0])} bytes)")
