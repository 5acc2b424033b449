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
from .losses import _Workspace

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
    if not np.isfinite(x).all():
        raise ValueError(f"{name} contains non-finite entries")
    if (x < 0).any():
        raise ValueError(f"{name} contains negative mass")
    if np.add.reduce(x) <= 0:
        raise ValueError(f"{name} carries no mass")
    return x


def _as_cost(cost) -> np.ndarray:
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"cost must be a matrix, got shape {cost.shape}")
    if not np.isfinite(cost).all():
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
    if not ((mask == 0) | (mask == 1)).all():
        raise ValueError("mask must be binary")
    return mask.astype(bool)


def marginal_violation(plan: np.ndarray, p: np.ndarray, q: np.ndarray) -> float:
    """Worst absolute deviation of the plan's marginals from (p, q)."""
    return _marginal_fit(plan, p, q).worst


def _check_feasible(mask: np.ndarray, p: np.ndarray, q: np.ndarray):
    """Every positive-mass row/column needs an open cell in a positive-mass column/row."""
    live_p, live_q = p > 0, q > 0  # a boolean product ORs the ANDs
    for name, live, reached in (("rows", live_p, mask @ live_q),
                                ("columns", live_q, live_p @ mask)):
        dead = live > reached  # live and not reached
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
# The linear tail of a near-permutation solve, such as criterion 1's 4x4
# solves at lam 0.001: once the plan's support is right, each full Newton
# step moves the log-mass of the cells that must vanish by about 1, as
# Newton does on e^x = c far above c, so the worst violation falls by 1/e a
# step along a residual that no longer turns, and _newton_step extrapolates.
# The three constants were measured on the 100 criterion-1 solves (2,253
# iterations without the rule, 1,102 with it) and on 1,200 balanced
# instances of side 4-12 at lam 1e-3 to 1e-2 (27,104 and 19,361).
#
# A full step that lowers the worst violation by less than 1 / _TAIL_DROP
# may be in the tail, which lowers it by e. Anything from 0.02 to 0.3 took
# the same iterations on both sets. At 0.1, 1,218 of the 2,850 full steps of
# 12 desk-scale rematch runs went on to the cosine test, and one passed it.
_TAIL_DROP = 0.1
# The residual F = (rows - p, cols - q) must keep its direction to this
# cosine; in the tail it reads 1 to six digits. On the 1,200 instances 0.99
# took 19,302 iterations but tried 41,582 plans against 39,662, and 0.9999
# tried 39,150 but took 19,521 iterations.
_TAIL_COSINE = 0.999
# Each extrapolation trial multiplies the accepted step by this. On the
# 1,200 instances 4 took 19,063 iterations and 16 took 20,908, and each made
# two instances slower than plain Newton; 8 made none.
_TAIL_GROWTH = 8.0


def _logsumexp(x: np.ndarray, axis: int, out=None) -> np.ndarray:
    """``log(sum(exp(x), axis))`` by max shift, through ``out`` (``x`` may be
    it); all -inf slices give -inf."""
    peak = np.maximum.reduce(x, axis=axis, keepdims=True)
    peak[~np.isfinite(peak)] = 0.0
    shifted = np.subtract(x, peak, out=out)
    with np.errstate(divide="ignore"):
        total = np.add.reduce(np.exp(shifted, out=shifted), axis=axis)
        return np.log(total) + peak.squeeze(axis)


def _realize(log_kernel, log_a, log_b, out):
    np.add(log_a[:, None], log_kernel, out=out)
    out += log_b[None, :]
    return np.exp(out, out=out)


def _sweep(log_kernel, log_p, log_q, log_b, scratch):
    """One log-domain scaling sweep: fit the rows, then the columns, summing
    the kernel and the other side's exponents in ``scratch``.

    A zero-mass slice with no reachable cell computes -inf - -inf, which
    ``np.where`` discards; the caller ignores the invalid-value warning.
    """
    shifted = np.add(log_kernel, log_b[None, :], out=scratch)
    log_a = np.where(log_p == -np.inf, -np.inf,
                     log_p - _logsumexp(shifted, axis=1, out=shifted))
    if not np.maximum.reduce(log_a) < np.inf:  # NaN fails too
        raise InfeasibleProblemError("scaling collapsed: a-update unbounded")
    shifted = np.add(log_kernel, log_a[:, None], out=scratch)
    log_b = np.where(log_q == -np.inf, -np.inf,
                     log_q - _logsumexp(shifted, axis=0, out=shifted))
    if not np.maximum.reduce(log_b) < np.inf:
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


def _newton_direction(plan, rows, cols, res_r, res_c, damping, scratch=None):
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
    so, which the caller takes as a stall. CG squares the plan into ``scratch``.
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
                       min(_ETA_MAX, norm_f) * norm_f, scratch)
    dx = -inv_r * (res_r + plan @ dy)
    return dx, dy


def _schur_cg(plan, inv_r, cols, damping, rhs, bound, scratch=None):
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
    precond = 1.0 / np.maximum(diag_c - inv_r @ np.multiply(plan, plan, out=scratch),
                               damping)
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
    return slice(None) if np.minimum.reduce(mass) > 0 else np.flatnonzero(mass > 0)


class _Fit(NamedTuple):
    """A plan's row and column sums and how far they miss (p, q)."""

    rows: np.ndarray
    cols: np.ndarray
    res_r: np.ndarray  # rows - p
    res_c: np.ndarray  # cols - q
    worst: float     # the marginal_violation
    residual: float  # summed absolute deviation of the rows and the columns


def _marginal_fit(plan, p, q) -> _Fit:
    """Every marginal figure the solver reads, from one pair of reductions.

    A non-finite plan has a non-finite row and column sum, so its ``worst``
    is inf or NaN, and the line search never accepts it.
    """
    rows = np.add.reduce(plan, axis=1)
    cols = np.add.reduce(plan, axis=0)
    res_r, res_c = rows - p, cols - q
    dev_r, dev_c = np.abs(res_r), np.abs(res_c)
    return _Fit(rows, cols, res_r, res_c,
                float(max(np.maximum.reduce(dev_r), np.maximum.reduce(dev_c))),
                float(np.add.reduce(dev_r) + np.add.reduce(dev_c)))


def _in_linear_tail(fit: _Fit, cand_fit: _Fit) -> bool:
    """Whether an accepted step is in the linear tail: the worst violation
    fell by less than ``1 / _TAIL_DROP`` and the residual ``F = (rows - p,
    cols - q)`` kept its direction to cosine ``_TAIL_COSINE``."""
    if cand_fit.worst <= _TAIL_DROP * fit.worst:
        return False
    dot = fit.res_r @ cand_fit.res_r + fit.res_c @ cand_fit.res_c
    norms = ((fit.res_r @ fit.res_r + fit.res_c @ fit.res_c)
             * (cand_fit.res_r @ cand_fit.res_r + cand_fit.res_c @ cand_fit.res_c))
    return dot >= _TAIL_COSINE * np.sqrt(norms)


def _newton_step(log_kernel, p, q, free, log_a, log_b, plan, fit: _Fit, out):
    """One damped Newton step on the scaling exponents, or ``None`` on a stall.

    Only the ``free`` (positive-mass) rows and columns move; zero-mass ones
    stay frozen at -inf. The step length comes from a search on the worst
    marginal violation: it halves from the full step (or the log-step cap)
    down to the first trial that lowers the violation. Should the first
    trial itself be accepted, yet lower the violation by less than ``1 /
    _TAIL_DROP`` along an unchanged residual direction, the step is in the
    linear tail: the same direction is tried at ``_TAIL_GROWTH``,
    ``_TAIL_GROWTH^2``, ... times the step, up to the cap, for as long as
    each trial lowers the violation further. A singular system or a search
    that finds no improving step is a stall.
    Trials are written alternately into the C-contiguous ``out`` and the
    spent ``plan``. Returns the new exponents, their plan and fit, and the
    other buffer. The caller ignores floating-point errors.
    """
    free_r, free_c = free
    rows = fit.rows[free_r]
    cols = fit.cols[free_c]
    damping = 1e-12 * max(np.maximum.reduce(rows), np.maximum.reduce(cols), 1e-30)
    # no trial has been written yet, so the direction may use out's memory
    scratch = out.reshape(-1)[:rows.size * cols.size].reshape(rows.size, cols.size)
    try:
        dx, dy = _newton_direction(plan[free_r][:, free_c], rows, cols,
                                   fit.res_r[free_r], fit.res_c[free_c], damping, scratch)
    except np.linalg.LinAlgError:
        return None
    # the direction at full length, 0 on the frozen exponents: -inf + 0 stays -inf
    full_x, full_y = np.zeros(log_a.size), np.zeros(log_b.size)
    full_x[free_r], full_y[free_c] = dx, dy

    def trial(step, buffer):
        cand_a = log_a + step * full_x
        cand_b = log_b + step * full_y
        cand_plan = _realize(log_kernel, cand_a, cand_b, buffer)
        return cand_a, cand_b, cand_plan, _marginal_fit(cand_plan, p, q)

    # the largest |dx_i + dy_j|; the gauge shift dx + c, dy - c drops out
    span = max(np.maximum.reduce(dx) + np.maximum.reduce(dy),
               -(np.minimum.reduce(dx) + np.minimum.reduce(dy)))
    cap = _MAX_LOG_STEP / span if span > 0 else 1.0
    step = full = min(1.0, cap)
    for _ in range(60):
        best = trial(step, out)
        if best[3].worst < fit.worst:
            break
        step *= 0.5
    else:
        return None
    spare = plan
    if step == full and _in_linear_tail(fit, best[3]):
        while step < cap:
            step = min(step * _TAIL_GROWTH, cap)
            further = trial(step, spare)
            if not further[3].worst < best[3].worst:
                break
            best, spare = further, best[2]
    return (*best, spare)


def _solve(cost, p, q, mask, cfg: SinkhornConfig, work):
    """One log-domain sweep, then Newton steps, then sweeps once Newton stalls.

    Alternating scaling stalls at O(1/iteration) on near-degenerate instances
    (permutation-support optima), so after the first sweep the equilibration
    runs as damped Newton on the same marginal equations; the fixed point and
    the diag(a) K diag(b) output form are unchanged. Inputs are validated by
    the caller. Every iteration, a stalled Newton step included, counts
    toward ``cfg.max_iter`` and is followed by a convergence check. The
    log-kernel (in place when ``cost`` is ``work("kernel")``) and two plans,
    the current one and a spare for sweeps and trials, live in ``work``.
    """
    log_kernel = np.negative(cost, out=work("kernel", *cost.shape))
    log_kernel /= cfg.lam
    log_kernel[~mask] = -np.inf
    _check_feasible(mask, p, q)
    free = _free(p), _free(q)
    log_a, fit = None, _Fit(None, None, None, None, np.inf, np.inf)
    # the first iteration sweeps, so the first plan is never read
    plan, spare = work("plan", *cost.shape), work("plan_next", *cost.shape)
    iterations, stalled = 0, False
    # log(0), -inf - -inf of a frozen slice and overflowing trial plans are expected
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_p = np.log(p)
        log_q = np.log(q)
        log_b = np.where(log_q == -np.inf, -np.inf, 0.0)
        while iterations < cfg.max_iter and fit.residual > cfg.tol:
            iterations += 1
            if iterations == 1 or stalled:
                log_a, log_b = _sweep(log_kernel, log_p, log_q, log_b, spare)
                plan, spare = _realize(log_kernel, log_a, log_b, spare), plan
                fit = _marginal_fit(plan, p, q)
            else:
                step = _newton_step(log_kernel, p, q, free, log_a, log_b, plan, fit, spare)
                stalled = step is None  # the stalled step counts; sweeps take over
                if not stalled:
                    log_a, log_b, plan, fit, spare = step
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
    mass_p, mass_q = np.add.reduce(p), np.add.reduce(q)
    if abs(mass_p - mass_q) > max(cfg.tol, 1e-12 * mass_p):
        raise ValueError(f"mass imbalance: sum(p)={mass_p:.17g} vs sum(q)={mass_q:.17g}")
    plan, converged, iterations = _solve(cost, p, q, mask, cfg, _Workspace())
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
    return max(float(np.minimum.reduce(cost, axis=None)), _XI_FLOOR)


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
    return _extend(*_validate(cost, p, q, mask), rho, _Workspace())


def _extend(cost, p, q, mask, rho, work):
    """:func:`extend_partial` on validated arrays; the extended cost goes to
    ``work("kernel")``, where :func:`_solve` turns it into its log-kernel."""
    m, n = cost.shape
    mass_p, mass_q = np.add.reduce(p), np.add.reduce(q)
    budget = min(mass_p, mass_q)
    require("rho", rho, "[0, inf)")
    if rho > budget + 1e-12:
        raise ValueError(f"rho={rho} outside [0, min(|p|, |q|)={budget:.17g}]")
    rho = min(rho, budget)
    xi = default_xi(cost)
    a_big = float(np.maximum.reduce(cost, axis=None)) + 1.0

    cost_ext = work("kernel", m + 1, n + 1)
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
               cfg: SinkhornConfig | None = None, *, work=None) -> TransportPlan:
    """Move exactly ``rho`` mass at minimal entropic cost, masked cells closed.

    Returns the original block of ``sinkhorn(*extend_partial(cost, p, q,
    mask, rho), cfg)``, bit for bit, as a view of the extended plan. Row sums
    never exceed ``p`` and column sums never exceed ``q``; the block total is
    ``rho`` up to solver tolerance. The private solver core ``_solve`` takes
    the extension, valid and balanced by construction, without a second
    check. With a workspace ``work`` the solve's matrices live in it.
    """
    cost, p, q, mask = _validate(cost, p, q, mask)
    if rho == 0:
        return TransportPlan(plan=np.zeros(cost.shape), converged=True, iterations=0)
    if cfg is None:
        raise ValueError("cfg is required")
    work = _Workspace() if work is None else work
    extended = _extend(cost, p, q, mask, rho, work)
    if not np.isfinite(extended[0][-1, -1]):  # the one cell that can overflow
        raise ValueError("cost contains non-finite entries")
    plan, converged, iterations = _solve(*extended, cfg, work)
    m, n = cost.shape
    return TransportPlan(plan=plan[:m, :n], converged=converged, iterations=iterations)


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
    return _normalize(plan, _as_mask(mask, plan.shape), _Workspace())


def _normalize(plan: np.ndarray, mask: np.ndarray, work):
    """:func:`normalize_plan` of a finite nonnegative plan and a boolean mask
    of its shape, both forms in ``work`` until its next use."""
    m, n = plan.shape  # the column form is F-ordered, as a fresh one would be
    return (_row_stochastic(plan, mask, work("v2t", m, n)),
            _row_stochastic(plan.T, mask.T, work("t2v", m, n).T).T)


def _row_stochastic(plan: np.ndarray, mask: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The row form of a checked plan, into ``out``."""
    sums = plan.sum(axis=1)
    low = sums <= _PLAN_FLOOR * plan.shape[1]
    np.copyto(out, plan)  # dividing a strided plan would buffer a copy of it
    out /= np.where(low, 1.0, sums)[:, None]
    if low.any():
        counts = mask[low].sum(axis=1)
        if np.any(counts == 0):
            raise ValueError("cannot fall back to uniform: a slice has no unmasked cells")
        out[low] = mask[low] / counts[:, None]
    return out
