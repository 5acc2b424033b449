"""Partial transport through the virtual-node reduction.

Only a budget of mass rho moves; the rest is absorbed by one virtual row
and one virtual column appended to the problem. The demo sweeps the budget,
verifies the marginal caps, and shows the signature behavior of rows the
budget skips: their normalized profiles flatten toward uniform, which is
what makes them act like label smoothing when used as soft targets.

Run:  python3 demos/02_partial_transport_budget.py
"""

import numpy as np

from rematch.transport import SinkhornConfig, extend_partial, normalize_plan, partial_ot

np.set_printoptions(precision=3, suppress=True)

rng = np.random.default_rng(0)
n = 8
# mimic a trained cost map over a mismatched batch: saturated high costs,
# except a few genuinely compatible pairs that are cheaper to connect
cost = 1.0 + 0.03 * rng.uniform(0, 1, (n, n))
candidates = ((0, 3), (1, 6), (2, 1), (3, 5))
for row, col in candidates:
    cost[row, col] = 0.75
mask = 1 - np.eye(n, dtype=int)
marginal = np.full(n, 1.0 / n)

# --- the extension, spelled out ---------------------------------------------
cost_ext, p_ext, q_ext, mask_ext = extend_partial(cost, marginal, marginal,
                                                  mask, rho=0.25)
print(f"extended problem: {cost_ext.shape[0]}x{cost_ext.shape[1]}")
print(f"virtual source mass {p_ext[-1]:.3f}, virtual target mass {q_ext[-1]:.3f}")
print(f"border cost {cost_ext[0, -1]:.3f}, corner cost {cost_ext[-1, -1]:.3f}")

# --- budget sweep -------------------------------------------------------------
print(f"\n{'rho':>6} {'moved':>8} {'max row sum':>12} {'rows used':>10}")
cfg = SinkhornConfig(lam=0.07, max_iter=20000, tol=1e-10)
for rho in (0.0, 0.1, 0.25, 0.5, 1.0):
    result = partial_ot(cost, marginal, marginal, mask, rho=rho, cfg=cfg)
    used = int((result.plan.sum(axis=1) > rho / n * 0.5).sum()) if rho else 0
    print(f"{rho:>6} {result.plan.sum():>8.4f} {result.plan.sum(axis=1).max():>12.4f} "
          f"{used:>10}")

# --- who gets the budget ------------------------------------------------------
result = partial_ot(cost, marginal, marginal, mask, rho=0.25, cfg=cfg)
print("\nrow mass at rho=0.25 (candidate rows soak up the budget):")
print(result.plan.sum(axis=1))

rows, _ = normalize_plan(result.plan, mask=mask)
untransported = result.plan.sum(axis=1) < 0.25 / n * 0.5
print("\nnormalized profile of one transported row (a near point mass):")
print(rows[0])
print("normalized profile of one untransported row (near uniform over the "
      "unmasked cells, 1/7 = 0.143):")
print(rows[np.flatnonzero(untransported)[0]])

deviation = np.abs(rows[untransported]
                   - np.where(mask[untransported].astype(bool), 1 / (n - 1), 0)).max()
print(f"\nmax deviation of untransported rows from uniform: {deviation:.3f}")
