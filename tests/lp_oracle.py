"""Exact transport optima by linear programming, and feasible roundings of
entropic plans, for tests.

The balanced LP and the masked partial LP (rows and columns capped by their
mass, a fixed total) are built over the open cells as sparse matrices and
solved by HiGHS (Huangfu & Hall, Math. Prog. Comp. 2018).
"""

import numpy as np
import scipy.sparse
from scipy.optimize import linprog


def lp_optimum(cost, p, q, mask, rho=None) -> float:
    """min <C, P> over plans P >= 0 on the open cells whose rows and columns
    sum to p and q (``rho`` None), or stay within them and move ``rho`` in
    all; ``rho="most"`` maximizes the mass instead, and returns it. None
    when no plan is feasible."""
    rows, cols = np.nonzero(mask)
    if rows.size == 0:
        # no open cell: the empty plan moves nothing and costs nothing
        if rho == "most":
            return 0.0
        feasible = not (np.any(p) or np.any(q)) if rho is None else rho == 0
        return 0.0 if feasible else None
    cells = np.arange(rows.size)
    sums = scipy.sparse.vstack([
        scipy.sparse.csr_array((np.ones(rows.size), (rows, cells)), shape=(len(p), rows.size)),
        scipy.sparse.csr_array((np.ones(rows.size), (cols, cells)), shape=(len(q), rows.size))])
    marginals = np.concatenate([p, q])
    problem = (dict(A_eq=sums, b_eq=marginals) if rho is None
               else dict(A_ub=sums, b_ub=marginals) if rho == "most"
               else dict(A_ub=sums, b_ub=marginals, A_eq=np.ones((1, rows.size)), b_eq=[rho]))
    objective = -np.ones(rows.size) if rho == "most" else np.asarray(cost)[rows, cols]
    result = linprog(objective, bounds=(0, None), method="highs", **problem)
    assert result.status in (0, 2), result.message  # 2: infeasible
    if result.status == 2:
        return None
    return -result.fun if rho == "most" else result.fun


def _shrink(plan, p, q):
    """The plan with its rows, then its columns, scaled down to at most p and q."""
    rows = plan.sum(axis=1)
    plan = plan * np.divide(p, rows, out=np.ones_like(p), where=rows > p)[:, None]
    cols = plan.sum(axis=0)
    return plan * np.divide(q, cols, out=np.ones_like(q), where=cols > q)


def round_balanced(plan, p, q):
    """A plan with marginals p and q near ``plan`` (Altschuler, Weed & Rigollet,
    NeurIPS 2017, Alg. 2): shrink, then add the rank-one remainder."""
    plan = _shrink(plan, p, q)
    short_r, short_c = p - plan.sum(axis=1), q - plan.sum(axis=0)
    return plan + np.outer(short_r, short_c) / short_c.sum() if short_c.sum() > 0 else plan


def round_partial(plan, p, q, rho, mask):
    """A plan within p and q that moves ``rho`` on the open cells: shrink, then
    scale a surplus away, or spread the shortfall in proportion to the slack."""
    plan = _shrink(plan, p, q)
    if plan.sum() >= rho:
        return plan * (rho / plan.sum())
    fill = np.outer(p - plan.sum(axis=1), q - plan.sum(axis=0)) * mask
    return plan + (rho - plan.sum()) * fill / fill.sum()
