"""Exact small-instance transport solver used as an independent check.

Solves the masked transportation LP as an assignment problem over mass
units. Masses are rationalized by an integer scale; row i becomes
``p[i] * mass_scale`` unit rows and column j ``q[j] * mass_scale`` unit
columns. Costs are rationalized separately at fine resolution, and a
shortest-augmenting-path Hungarian method finds the min-cost perfect
matching of the units in int64 arithmetic, so the optimum is exact. Summing
the units back gives an exact vertex of the transportation polytope whose
objective is the LP optimum up to the cost quantization (~1e-12 per unit
mass). Needs nothing beyond numpy.

Deliberately shares no code with the scaling solver in
:mod:`rematch.transport`.
"""

from __future__ import annotations

import numpy as np

from .transport import InfeasibleProblemError, TransportPlan, _as_cost, _as_mask, _as_measure

__all__ = ["exact_ot_oracle"]

_MAX_SIDE = 16
_MAX_UNITS = 256
_MAX_ABS_COST = 1e3
_COST_RESOLUTION = 10 ** 12
_UNREACHED = np.iinfo(np.int64).max


def exact_ot_oracle(cost, p, q, mask=None, mass_scale: int = 1) -> TransportPlan:
    """Exact minimum-cost transport on a small masked instance.

    Parameters
    ----------
    cost : (m, n) array_like
        Finite costs within ``±1000``; may be negative.
    p, q : array_like
        Mass vectors that become integers after multiplication by
        ``mass_scale`` (each entry within ``1e-9 * mass_scale``), with equal
        integer totals of at most 256 units.
    mask : optional binary matrix; masked cells never carry mass.
    mass_scale : int
        Denominator that rationalizes the masses.

    Returns
    -------
    TransportPlan
        ``converged`` is always True; ``iterations`` is 0. The objective
        ``(plan * cost).sum()`` is the LP optimum.

    Raises
    ------
    ValueError
        On oversized instances, costs out of range, masses that are not
        multiples of ``1 / mass_scale``, more than 256 mass units, or scaled
        masses that do not balance.
    InfeasibleProblemError
        When no plan meets both marginals on the open cells.

    Notes
    -----
    For U mass units the matching takes at most U(U+1)/2 numpy steps over
    vectors of length U, O(U^3) in all. At the 256-unit cap (16x16 at 16
    units per side) the slowest instances found (costs ``i * j``) take
    0.3-0.5 s on a 2-vCPU host; 4x4 at one unit per side takes about
    0.2 ms.
    """
    cost = _as_cost(cost)
    p = _as_measure(p, "p")
    q = _as_measure(q, "q")
    m, n = cost.shape
    if m > _MAX_SIDE or n > _MAX_SIDE:
        raise ValueError(f"oracle is restricted to instances up to {_MAX_SIDE}x{_MAX_SIDE}")
    if p.shape[0] != m or q.shape[0] != n:
        raise ValueError("dimension mismatch between cost and measures")
    mask = _as_mask(mask, cost.shape)
    if not isinstance(mass_scale, (int, np.integer)) or mass_scale < 1:
        raise ValueError(f"mass_scale must be a positive integer, got {mass_scale!r}")
    if np.abs(cost).max() > _MAX_ABS_COST:
        raise ValueError(f"oracle costs must lie within ±{_MAX_ABS_COST:g}")

    int_p = _units(p, mass_scale, "p")
    int_q = _units(q, mass_scale, "q")
    if int_p.sum() != int_q.sum():
        raise ValueError(
            "rounding imbalance: scaled masses disagree "
            f"({int(int_p.sum())} vs {int(int_q.sum())})"
        )
    if int_p.sum() > _MAX_UNITS:
        raise ValueError(
            f"oracle is restricted to {_MAX_UNITS} mass units, got {int(int_p.sum())}"
        )

    rows = np.repeat(np.arange(m), int_p)
    cols = np.repeat(np.arange(n), int_q)
    weight = np.rint(cost * _COST_RESOLUTION).astype(np.int64)
    col_of_row = _min_cost_matching(weight[np.ix_(rows, cols)], mask[np.ix_(rows, cols)])

    units = np.zeros((m, n), dtype=np.int64)
    np.add.at(units, (rows, cols[col_of_row]), 1)
    return TransportPlan(plan=units / mass_scale, converged=True, iterations=0)


def _units(x: np.ndarray, mass_scale, name: str) -> np.ndarray:
    scaled = x * mass_scale
    units = np.rint(scaled)
    off = np.abs(scaled - units).max()
    if off > 1e-9 * max(1, mass_scale):
        raise ValueError(
            f"{name} is not a multiple of 1/mass_scale ({name} * {mass_scale} "
            f"is {off:.3g} off an integer)"
        )
    return units.astype(np.int64)


def _min_cost_matching(weight: np.ndarray, open_: np.ndarray) -> np.ndarray:
    """Min-weight perfect matching of a square int64 matrix on its open cells.

    Shortest augmenting paths with dual potentials (the Hungarian method):
    each row in turn grows a Dijkstra tree over reduced costs until it
    reaches a free column, then the matching is flipped along the path and
    the potentials updated, which keeps every reduced cost nonnegative. All
    arithmetic is int64, so path lengths and the optimum are exact. Returns
    the column matched to each row.
    """
    size = weight.shape[0]
    u = np.zeros(size, dtype=np.int64)
    v = np.zeros(size, dtype=np.int64)
    row_of_col = np.full(size, -1)
    col_of_row = np.full(size, -1)
    for start in range(size):
        dist = np.full(size, _UNREACHED)
        via = np.zeros(size, dtype=np.int64)
        done = np.zeros(size, dtype=bool)
        row, reach = start, 0
        while True:
            # distances through `row`, reached at `reach` from `start`
            through = reach - u[row] + weight[row] - v
            closer = open_[row] & ~done & (through < dist)
            dist[closer] = through[closer]
            via[closer] = row
            pending = np.where(done, _UNREACHED, dist)
            col = int(pending.argmin())
            reach = int(pending[col])
            if reach == _UNREACHED:
                raise InfeasibleProblemError("masked flow problem is infeasible")
            done[col] = True
            if row_of_col[col] < 0:
                break
            row = int(row_of_col[col])
        # dual update: every scanned node moves by how much sooner it was
        # reached; a scanned row was reached through its matched column
        u[start] += reach
        matched = done & (row_of_col >= 0)
        u[row_of_col[matched]] += reach - dist[matched]
        v[done] -= reach - dist[done]
        # flip the matching along the path back to `start`
        while True:
            row = int(via[col])
            row_of_col[col] = row
            col, col_of_row[row] = col_of_row[row], col
            if row == start:
                break
    return col_of_row
