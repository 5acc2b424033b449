"""Entropy-regularized optimal transport with plan masking and partial transport.

The solver couples two discrete mass distributions through a cost matrix,
optionally forbidding individual cells via a binary mask, and supports a
partial variant that moves only a fixed mass budget. The partial problem is
reduced to a standard balanced problem by appending one virtual row and one
virtual column that absorb the untransported mass.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass
from typing import NamedTuple

import numpy as np

from ._settings import check, count, real, require

__all__ = [
    "InfeasibleProblemError",
    "SinkhornConfig",
    "TransportPlan",
    "sinkhorn",
    "extend_partial",
    "partial_ot",
    "normalize_plan",
    "marginal_violation",
]


class InfeasibleProblemError(ValueError):
    """Raised when the masked transport problem admits no feasible plan."""


@dataclass(frozen=True)
class SinkhornConfig:
    """Solver settings.

    Parameters
    ----------
    lam : float
        Entropic regularization strength. Must be positive and finite.
    max_iter : int
        Iteration cap, counting scaling sweeps and Newton steps together.
        At least 1.
    tol : float
        Convergence threshold on the summed absolute row and column
        residuals of the current plan. It also bounds the worst marginal
        violation and, for :func:`partial_ot`, how far the transported mass
        can miss the budget beyond the entropic corner mass. Must be
        positive and finite.
    """

    lam: float = real(MISSING, "(0, inf)")
    max_iter: int = count(1000, least=1)
    tol: float = real(1e-9, "(0, inf)")

    def __post_init__(self):
        check(self)


@dataclass(frozen=True)
class TransportPlan:
    """A (possibly partial) transport plan with convergence metadata."""

    plan: np.ndarray
    converged: bool
    iterations: int


def _as_measure(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"{name} must be a vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite entries")
    if np.any(x < 0):
        raise ValueError(f"{name} contains negative mass")
    if x.sum() <= 0:
        raise ValueError(f"{name} carries no mass")
    return x


def _as_cost(cost) -> np.ndarray:
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"cost must be a matrix, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost contains non-finite entries")
    return cost


def _as_mask(mask, shape) -> np.ndarray:
    if mask is None:
        return np.ones(shape, dtype=bool)
    mask = np.asarray(mask)
    if mask.shape != shape:
        raise ValueError(f"mask shape {mask.shape} does not match cost shape {shape}")
    if mask.dtype == bool:
        return mask
    if not np.all((mask == 0) | (mask == 1)):
        raise ValueError("mask must be binary")
    return mask.astype(bool)


def marginal_violation(plan: np.ndarray, p: np.ndarray, q: np.ndarray) -> float:
    """Worst absolute deviation of the plan's marginals from (p, q)."""
    return _marginal_fit(plan, p, q).worst


def _check_feasible(mask: np.ndarray, p: np.ndarray, q: np.ndarray, tol: float):
    """Every positive-mass row/column needs an open cell in a positive-mass column/row."""
    usable = mask & (p > 0)[:, None] & (q > 0)[None, :]
    for name, axis, mass in (("rows", 1, p), ("columns", 0, q)):
        dead = (~usable.any(axis=axis)) & (mass > tol)
        if dead.any():
            raise InfeasibleProblemError(
                f"{name} {np.flatnonzero(dead).tolist()} carry mass but have no "
                "unmasked cell whose row and column both carry mass"
            )


# Only a safeguard since the partial reduction starts in the right gauge
# (see default_xi): a full Newton step from a far start can move a scaling
# exponent by orders of magnitude more than the linearized marginals can be
# trusted for, so the line search starts at the step that changes no cell's
# log-mass by more than this, instead of halving down to it one plan at a
# time.
_MAX_LOG_STEP = 64.0


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    """``log(sum(exp(x), axis))`` by max shift; all -inf slices give -inf."""
    peak = x.max(axis=axis, keepdims=True)
    peak[~np.isfinite(peak)] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.exp(x - peak).sum(axis=axis)) + peak.squeeze(axis)


def _realize(log_kernel, log_a, log_b):
    out = np.add(log_a[:, None], log_kernel)
    out += log_b[None, :]
    return np.exp(out, out=out)


def _sweep(log_kernel, log_p, log_q, log_b):
    """One log-domain scaling sweep: fit the rows, then the columns.

    A zero-mass slice with no reachable cell computes -inf - -inf, which
    ``np.where`` discards.
    """
    with np.errstate(invalid="ignore"):
        log_a = np.where(np.isneginf(log_p), -np.inf,
                         log_p - _logsumexp(log_kernel + log_b[None, :], axis=1))
    if not np.all(log_a < np.inf):
        raise InfeasibleProblemError("scaling collapsed: a-update unbounded")
    with np.errstate(invalid="ignore"):
        log_b = np.where(np.isneginf(log_q), -np.inf,
                         log_q - _logsumexp(log_kernel + log_a[:, None], axis=0))
    if not np.all(log_b < np.inf):
        raise InfeasibleProblemError("scaling collapsed: b-update unbounded")
    return log_a, log_b


# From this many free columns on, the Newton direction comes from conjugate
# gradients instead of a dense factorization. A CG step is two
# matrix-vector products, O(k^2) against the O(k^3) of forming and
# factorizing the Schur complement, but each step costs ~20 us of numpy
# call overhead. On training-shaped directions (costs U(1, 1.6), lam 0.01,
# rho 0.1, diagonal closed; a 2-vCPU Xeon, one BLAS thread) dense was the
# faster up to 41 free columns, CG from 53 on, and either in between.
_CG_MIN_DIM = 48
# The forcing term's cap (Dembo, Eisenstat & Steihaug): a CG direction d
# leaves ||J d + F|| <= min(_ETA_MAX, ||F||) * ||F||. A forcing term of
# O(||F||) keeps Newton's local convergence quadratic; the cap only binds
# far from the solution.
_ETA_MAX = 0.1


def _newton_direction(plan, rows, cols, res_r, res_c, damping):
    """Solve ``(J + damping I) [dx; dy] = -F``, ``F = [res_r; res_c]``.

    ``J = [[diag(rows), plan], [plan.T, diag(cols)]]`` is the Jacobian of the
    row and column sums with respect to the row and column exponents. Its row
    block is diagonal, so the rows are eliminated, leaving the column Schur
    system ``S dy = b`` with ``S = diag(cols + damping) - plan.T
    diag(1 / (rows + damping)) plan``. Below ``_CG_MIN_DIM`` columns ``S`` is
    formed and factorized, and the direction is exact to rounding. From
    there on :func:`_schur_cg` solves it inexactly, to the forcing term
    ``||S dy - b|| <= min(_ETA_MAX, ||F||) * ||F||``; since ``dx`` is
    recovered from ``dy`` exactly, ``S dy - b`` is the residual of the whole
    damped system. Raises ``LinAlgError`` when the system cannot be solved
    so, which the caller takes as a stall.
    """
    inv_r = 1.0 / (rows + damping)
    rhs = plan.T @ (inv_r * res_r) - res_c
    if cols.size < _CG_MIN_DIM:
        scaled = plan * np.sqrt(inv_r)[:, None]
        schur = -(scaled.T @ scaled)  # one symmetric product (syrk)
        schur.flat[::schur.shape[0] + 1] += cols + damping
        dy = np.linalg.solve(schur, rhs)
    else:
        norm_f = np.sqrt(res_r @ res_r + res_c @ res_c)
        dy = _schur_cg(plan, inv_r, cols, damping, rhs,
                       min(_ETA_MAX, norm_f) * norm_f)
    dx = -inv_r * (res_r + plan @ dy)
    return dx, dy


def _schur_cg(plan, inv_r, cols, damping, rhs, bound):
    """Jacobi-preconditioned CG on ``S dy = rhs`` until ``||S dy - rhs|| <= bound``.

    ``S v = (cols + damping) * v - plan.T @ (inv_r * (plan @ v))`` is never
    formed. Its diagonal, ``cols + damping - sum_i plan_ij^2 * inv_r_i``, is
    at least the damping, because no cell exceeds its row sum; rounding can
    cancel it, so it is floored there. Starts from ``dy = 0``; raises
    ``LinAlgError`` on a curvature ``d.S d <= 0`` or when ``4 k`` steps leave
    the residual above ``bound``.
    """
    k = rhs.size
    diag_c = cols + damping
    precond = 1.0 / np.maximum(diag_c - inv_r @ (plan * plan), damping)
    dy = np.zeros(k)
    res = rhs.copy()
    z = precond * res
    d = z.copy()
    rz = res @ z
    steps = 0
    while not res @ res <= bound * bound:
        if steps == 4 * k:
            raise np.linalg.LinAlgError(f"CG missed the forcing term in {steps} steps")
        steps += 1
        sd = diag_c * d - plan.T @ (inv_r * (plan @ d))
        curvature = d @ sd
        if not curvature > 0:
            raise np.linalg.LinAlgError("CG met non-positive curvature")
        alpha = rz / curvature
        dy += alpha * d
        res -= alpha * sd
        z = precond * res
        rz, rz_old = res @ z, rz
        d = z + (rz / rz_old) * d
    return dy


def _free(mass: np.ndarray):
    """Index of the positive entries of ``mass``; a slice when all are."""
    return slice(None) if mass.min() > 0 else np.flatnonzero(mass > 0)


class _Fit(NamedTuple):
    """A plan's row and column sums and how far they miss (p, q)."""

    rows: np.ndarray
    cols: np.ndarray
    worst: float     # the marginal_violation
    residual: float  # summed absolute deviation of the rows and the columns


def _marginal_fit(plan, p, q) -> _Fit:
    """Every marginal figure the solver reads, from one pair of reductions.

    A non-finite plan has a non-finite row and column sum, so its ``worst``
    is inf or NaN, and the line search never accepts it.
    """
    rows = plan.sum(axis=1)
    cols = plan.sum(axis=0)
    dev_r = np.abs(rows - p)
    dev_c = np.abs(cols - q)
    return _Fit(rows, cols, float(max(dev_r.max(), dev_c.max())),
                float(dev_r.sum() + dev_c.sum()))


def _newton_step(log_kernel, p, q, free, log_a, log_b, plan, fit: _Fit):
    """One damped Newton step on the scaling exponents, or ``None`` on a stall.

    Only the ``free`` (positive-mass) rows and columns move; zero-mass ones
    stay frozen at -inf. The step is a backtracking line search on the worst
    marginal violation; a singular system or a search that finds no
    improving step is a stall. Returns the new exponents, their plan and its
    fit.
    """
    free_r, free_c = free
    rows = fit.rows[free_r]
    cols = fit.cols[free_c]
    damping = 1e-12 * max(rows.max(), cols.max(), 1e-30)
    try:
        dx, dy = _newton_direction(plan[free_r][:, free_c], rows, cols,
                                   rows - p[free_r], cols - q[free_c], damping)
    except np.linalg.LinAlgError:
        return None
    # the largest |dx_i + dy_j|; the gauge shift dx + c, dy - c drops out
    span = max(dx.max() + dy.max(), -(dx.min() + dy.min()))
    step = min(1.0, _MAX_LOG_STEP / span) if span > 0 else 1.0
    for _ in range(60):
        cand_a = log_a.copy()
        cand_b = log_b.copy()
        cand_a[free_r] += step * dx
        cand_b[free_c] += step * dy
        with np.errstate(over="ignore"):
            cand_plan = _realize(log_kernel, cand_a, cand_b)
            cand_fit = _marginal_fit(cand_plan, p, q)
        if cand_fit.worst < fit.worst:
            return cand_a, cand_b, cand_plan, cand_fit
        step *= 0.5
    return None


def _solve(cost, p, q, mask, cfg: SinkhornConfig):
    """One log-domain sweep, then Newton steps, then sweeps once Newton stalls.

    Alternating scaling stalls at O(1/iteration) on near-degenerate instances
    (permutation-support optima), so after the first sweep the equilibration
    runs as damped Newton on the same marginal equations; the fixed point and
    the diag(a) K diag(b) output form are unchanged. Inputs are validated by
    the caller. Every iteration, a stalled Newton step included, counts
    toward ``cfg.max_iter`` and is followed by a convergence check.
    """
    log_kernel = np.where(mask, -cost / cfg.lam, -np.inf)
    _check_feasible(mask, p, q, cfg.tol)
    with np.errstate(divide="ignore"):
        log_p = np.log(p)
        log_q = np.log(q)
    log_b = np.where(np.isneginf(log_q), -np.inf, 0.0)
    free = _free(p), _free(q)
    log_a, plan, fit = None, None, _Fit(None, None, np.inf, np.inf)
    iterations, stalled = 0, False
    while iterations < cfg.max_iter and fit.residual > cfg.tol:
        iterations += 1
        if iterations == 1 or stalled:
            log_a, log_b = _sweep(log_kernel, log_p, log_q, log_b)
            plan = _realize(log_kernel, log_a, log_b)
            fit = _marginal_fit(plan, p, q)
        else:
            step = _newton_step(log_kernel, p, q, free, log_a, log_b, plan, fit)
            stalled = step is None  # the stalled step counts; sweeps take over
            if not stalled:
                log_a, log_b, plan, fit = step
    return plan, fit.residual <= cfg.tol, iterations


def _validate(cost, p, q, mask):
    cost = _as_cost(cost)
    p = _as_measure(p, "p")
    q = _as_measure(q, "q")
    m, n = cost.shape
    if p.shape[0] != m or q.shape[0] != n:
        raise ValueError(
            f"dimension mismatch: cost is {m}x{n}, p has {p.shape[0]}, q has {q.shape[0]}"
        )
    return cost, p, q, _as_mask(mask, cost.shape)


def sinkhorn(cost, p, q, mask=None, cfg: SinkhornConfig | None = None) -> TransportPlan:
    """Solve the entropy-regularized, optionally masked, balanced problem.

    Scales the masked Gibbs kernel ``K = mask * exp(-cost / lam)`` to the
    marginals: one log-domain row/column sweep, then damped Newton on the
    scaling exponents, and further sweeps should Newton stall. The returned
    plan is ``diag(a) K diag(b)``; masked cells are exactly zero. Iteration
    stops at the first of convergence (summed absolute row and column
    residuals <= ``cfg.tol``) or ``cfg.max_iter``.

    Parameters
    ----------
    cost : (m, n) array_like
        Finite transport costs per unit mass.
    p, q : array_like
        Source and target mass vectors; totals must agree within ``cfg.tol``.
    mask : (m, n) array_like of {0, 1}, optional
        Cells where transport is forbidden (0). Defaults to all-ones.
    cfg : SinkhornConfig

    Returns
    -------
    TransportPlan

    Raises
    ------
    ValueError
        On dimension mismatch or mass imbalance beyond ``cfg.tol``.
    InfeasibleProblemError
        When a positive-mass row/column has no usable kernel entry, or the
        scaling collapses.
    """
    if cfg is None:
        raise ValueError("cfg is required")
    cost, p, q, mask = _validate(cost, p, q, mask)
    if abs(p.sum() - q.sum()) > max(cfg.tol, 1e-12 * p.sum()):
        raise ValueError(
            f"mass imbalance: sum(p)={p.sum():.17g} vs sum(q)={q.sum():.17g}"
        )
    plan, converged, iterations = _solve(cost, p, q, mask, cfg)
    return TransportPlan(plan=plan, converged=converged, iterations=iterations)


# the border cost stays positive, as in the construction of the reduction
_XI_FLOOR = 1e-12
# a row or column of a plan whose sum is at most this per cell counts as
# untransported
_PLAN_FLOOR = 1e-12


def default_xi(cost: np.ndarray) -> float:
    """Virtual-node border cost: the cheapest real cost, floored just above 0.

    The border cost is a free gauge. Every feasible plan of the extended
    problem puts ``|p| + |q| - 2 * rho`` of its mass on border cells (the
    corner counting twice), so changing ``xi`` adds only a constant to the
    entropic objective and leaves the optimal plan as it is; in the dual, it
    shifts both virtual potentials by the change. Pricing the border like the
    cheapest real cell starts the scaling with the real block and the border
    on one scale, close to the optimum, instead of the block ``exp(-gap /
    lam)`` below it.
    """
    return max(float(np.min(cost)), _XI_FLOOR)


def extend_partial(cost, p, q, mask=None, rho: float = 0.0):
    """Reduce a partial problem to a balanced one via one virtual node per side.

    The cost matrix gains a border row/column priced at ``xi =
    default_xi(cost)`` and a corner cell priced at ``2 * xi + max(cost) +
    1``, dearer than any detour through the border and a real cell; the
    border and corner are never masked. The virtual column absorbs
    ``|p| - rho`` source mass and the virtual row supplies ``|q| - rho``
    target mass, so exactly ``rho`` moves inside the original block at the
    optimum. Any ``xi > 0`` gives the same optimal plan, because the border
    carries a fixed total mass (see :func:`default_xi`); this one only makes
    the solve start close to it.

    Returns
    -------
    (cost_ext, p_ext, q_ext, mask_ext)
        Arrays of shape (m+1, n+1), (m+1,), (n+1,), (m+1, n+1).
    """
    return _extend(*_validate(cost, p, q, mask), rho)


def _extend(cost, p, q, mask, rho):
    """:func:`extend_partial` on validated arrays."""
    m, n = cost.shape
    mass_p = p.sum()
    mass_q = q.sum()
    budget = min(mass_p, mass_q)
    require("rho", rho, "[0, inf)")
    if rho > budget + 1e-12:
        raise ValueError(f"rho={rho} outside [0, min(|p|, |q|)={budget:.17g}]")
    rho = min(rho, budget)
    xi = default_xi(cost)
    a_big = float(cost.max()) + 1.0

    cost_ext = np.empty((m + 1, n + 1))
    cost_ext[:m, :n] = cost
    cost_ext[:m, n] = xi
    cost_ext[m, :n] = xi
    cost_ext[m, n] = 2.0 * xi + a_big

    p_ext = np.concatenate([p, [mass_q - rho]])
    q_ext = np.concatenate([q, [mass_p - rho]])

    mask_ext = np.ones((m + 1, n + 1), dtype=bool)
    mask_ext[:m, :n] = mask
    return cost_ext, p_ext, q_ext, mask_ext


def partial_ot(cost, p, q, mask=None, rho: float = 0.0,
               cfg: SinkhornConfig | None = None) -> TransportPlan:
    """Move exactly ``rho`` mass at minimal entropic cost, masked cells closed.

    Solves the virtual-node extension with :func:`sinkhorn` and returns the
    original block of the extended plan. Row sums never exceed ``p`` and
    column sums never exceed ``q``; the block total is ``rho`` up to solver
    tolerance.
    """
    cost, p, q, mask = _validate(cost, p, q, mask)
    if rho == 0:
        return TransportPlan(plan=np.zeros(cost.shape), converged=True, iterations=0)
    solved = sinkhorn(*_extend(cost, p, q, mask, rho), cfg)
    m, n = cost.shape
    return TransportPlan(plan=solved.plan[:m, :n].copy(), converged=solved.converged,
                         iterations=solved.iterations)


def normalize_plan(plan, mask=None):
    """The plan's row-stochastic and column-stochastic forms, in that order.

    A row (column) whose sum is at most ``1e-12`` per cell is replaced by the
    uniform distribution over its unmasked cells, so untransported slices
    still yield valid distributions.

    Parameters
    ----------
    plan : (m, n) array_like of nonnegative reals
    mask : optional binary matrix restricting the uniform fallback support.
    """
    plan = np.asarray(plan, dtype=np.float64)
    if plan.ndim != 2:
        raise ValueError("plan must be a matrix")
    if not np.all(np.isfinite(plan)):
        raise ValueError("plan contains non-finite entries")
    if np.any(plan < 0):
        raise ValueError("plan entries must be nonnegative")
    mask = _as_mask(mask, plan.shape)
    return _row_stochastic(plan, mask), _row_stochastic(plan.T, mask.T).T


def _row_stochastic(work: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """:func:`normalize_plan`'s row form of a checked plan."""
    support = mask.astype(np.float64)
    sums = work.sum(axis=1)
    length = work.shape[1]
    low = sums <= _PLAN_FLOOR * length
    counts = support.sum(axis=1)
    if np.any(low & (counts == 0)):
        raise ValueError("cannot fall back to uniform: a slice has no unmasked cells")
    safe = np.where(low, 1.0, sums)
    out = work / safe[:, None]
    fallback = support / np.where(counts == 0, 1.0, counts)[:, None]
    return np.where(low[:, None], fallback, out)
