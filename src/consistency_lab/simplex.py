"""Dense simplex solver for the small linear programs used here.

It solves ``min c.x`` subject to ``A x <= b``, ``0 <= x <= u`` with ``b >= 0``,
the form of the hull LP, starting from the feasible slack basis. The bounds
``u`` stay out of the tableau (Dantzig's upper-bounding technique): a
nonbasic variable sits at 0 or at its bound, and one at its bound is replaced
by ``u - x``, which negates its column. The ratio test lets the entering
variable flip to its own bound and a basic variable leave at its upper bound.
Instances have at most a few hundred variables, so a plain tableau method is
fast, dependency-free, and easy to audit. Pivoting uses Dantzig's rule with a
largest-pivot tie-break for numerical stability, and falls back to Bland's
anti-cycling rule when the objective stalls on a long run of degenerate
pivots. The point and the row multipliers are refined against the final
signed basis on the original rows, so that the rounding of many pivots does
not reach them.

``solve_lp_prefixes`` solves the LPs of the leading rows ``1..r`` of one
system for every ``r`` from a first prefix on, growing one tableau a row at
a time. The optimal basis of a prefix, with the next row's slack added as
its basic variable, stays dual feasible, so dual simplex pivots restart it;
``solve_lp`` is the case of one prefix, all the rows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError

#: Reduced costs and pivot entries within this of zero count as zero.
_TOL = 1e-9

#: Pivots plus bound flips after which the solver gives up.
_MAX_ITERATIONS = 20000

#: Degenerate pivots tolerated before switching to Bland's rule.
_STALL_LIMIT = 100

#: Entries smaller than this are flushed to zero after each pivot.
_FLUSH = 1e-13

#: Refinement steps from the final basis; each shrinks the error by the factor
#: ``|I - inverse @ basis|``, at worst about 1e-4 on the hull LPs.
_REFINE_STEPS = 4

#: Largest residual left by refinement, relative to ``1 + max |rhs|``.
_RESIDUAL_TOL = 1e-12

#: A dual simplex pivot entry must reach this share of the largest entry of its row.
_DUAL_PIVOT = 1e-7


@dataclass(frozen=True)
class LpResult:
    """Optimal point of ``min c.x  s.t.  A_ub x <= b_ub,  0 <= x <= upper``.

    ``duals`` holds one multiplier per ``A_ub`` row: the rate of change of the
    optimum with the row's right-hand side, so ``<= 0``. ``iterations`` counts
    pivots plus bound flips.
    """

    x: np.ndarray
    objective: float
    iterations: int
    duals: np.ndarray


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    pivot_row = tableau[row]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.multiply.outer(factors, pivot_row)
    np.copyto(tableau, 0.0, where=np.abs(tableau) < _FLUSH)
    tableau[row, col] = 1.0
    basis[row] = col


def _flip(tableau: np.ndarray, sign: np.ndarray, col, bound) -> None:
    """Substitute ``bound - x`` for the variable of ``col``, moving it to its other
    bound; ``col`` and ``bound`` may also be arrays, one entry per variable."""
    tableau[:, -1] -= np.dot(tableau[:, col], bound)
    tableau[:, col] *= -1.0
    sign[col] = -sign[col]


def _run_simplex(tableau, basis, sign, upper):
    """Minimize over the canonical tableau, whose last row holds the reduced costs
    and minus the objective; returns the number of pivots plus bound flips."""
    rows, ncols = basis.size, upper.size
    costs, rhs = tableau[-1, :ncols], tableau[:rows, -1]
    no_ratio = np.full(rows, np.inf)
    iterations = 0
    stall = 0
    last_objective = 0.0
    while True:
        bland = stall > _STALL_LIMIT
        if bland:
            entering = int((costs < -_TOL).argmax())
        else:
            entering = int(costs.argmin())
        if costs[entering] >= -_TOL:
            return iterations
        # A positive entry lets its basic variable fall to 0, a negative one
        # lifts it to its bound; the entering variable may reach its own.
        column = tableau[:rows, entering]
        size = np.abs(column)
        room = np.where(column > 0.0, rhs, upper[basis] - rhs)
        ratios = np.divide(room, size, out=no_ratio.copy(), where=size > _TOL)
        step = ratios.min()
        if upper[entering] <= step:
            if upper[entering] == np.inf:
                raise NumericError("LP is unbounded below")
            _flip(tableau, sign, entering, upper[entering])
        else:
            near = (ratios <= step + _TOL).nonzero()[0]
            if bland:
                leaving = int(near[basis[near].argmin()])
            else:
                leaving = int(near[size[near].argmax()])
            at_bound = column[leaving] < 0.0
            left = basis[leaving]
            _pivot(tableau, basis, leaving, entering)
            if at_bound:
                _flip(tableau, sign, left, upper[left])
        objective = -tableau[-1, -1]
        if objective >= last_objective - 1e-12:
            stall += 1
        else:
            stall = 0
        last_objective = objective
        iterations += 1
        if iterations > _MAX_ITERATIONS:
            raise NumericError(
                f"simplex exceeded {_MAX_ITERATIONS} iterations, tableau {rows}x{ncols}"
            )


def _run_dual(tableau, basis, sign, upper):
    """Restore ``0 <= rhs <= upper`` of the basic variables by dual simplex
    pivots, keeping the reduced costs ``>= 0``; returns the number of pivots
    plus bound flips.

    The leaving row has the largest violation relative to the norm of its row
    of the basis inverse, the slack block (dual steepest edge). A basic
    variable above its bound is first replaced by ``u - x``, which lies below
    0, so every leaving variable leaves at 0. The columns that raise it, with
    entries of at least ``_DUAL_PIVOT`` of the row's largest, are taken in
    the order of their ratios of reduced cost to entry: each one whose flip
    to its own bound leaves the row still below 0 flips, and the first that
    does not enters, ties within ``_TOL`` going to the largest entry. After a
    stall, Bland's rule picks the lowest violated basic variable and the
    lowest column of least ratio, without flips.
    """
    rows = basis.size
    costs, rhs = tableau[-1, :-1], tableau[:rows, -1]
    inverse = tableau[:rows, -rows - 1 : -1]
    iterations = 0
    stall = 0
    last_objective = -tableau[-1, -1]
    while True:
        bland = stall > _STALL_LIMIT
        above = rhs - upper[basis]
        violation = np.maximum(-rhs, above)
        if bland:
            leaving = int(np.where(violation > _TOL, basis, basis.max() + 1).argmin())
        else:
            weights = np.square(inverse).sum(axis=1)
            leaving = int((np.maximum(violation, 0.0) ** 2 / weights).argmax())
        if violation[leaving] <= _TOL:
            return iterations
        if above[leaving] > 0.0:
            left = basis[leaving]
            _flip(tableau, sign, left, upper[left])
            tableau[leaving] *= -1.0
        row = tableau[leaving, :-1]
        eligible = (row < -_DUAL_PIVOT * np.abs(row).max()).nonzero()[0]
        size = -row[eligible]
        ratios = np.maximum(costs[eligible], 0.0) / size
        if bland:
            order, passed = np.argsort(ratios, kind="stable"), 0
        else:
            order = np.lexsort((-size, ratios))
            short = rhs[leaving] + np.cumsum(size[order] * upper[eligible[order]])
            passed = int(np.searchsorted(short >= 0.0, True))
        if passed == eligible.size:
            raise NumericError(
                f"dual simplex broke down on row {leaving}, {violation[leaving]:.3e} outside its "
                f"bounds, tableau {rows}x{costs.size}: no column can enter, although x = 0 is "
                "feasible, so rounding broke the ratio test"
            )
        near = order[passed:][ratios[order[passed:]] <= ratios[order[passed]] + _TOL]
        entering = int(eligible[near.min() if bland else near[size[near].argmax()]])
        if passed:
            flipped = eligible[order[:passed]]
            _flip(tableau, sign, flipped, upper[flipped])
        _pivot(tableau, basis, leaving, entering)
        objective = -tableau[-1, -1]
        if objective <= last_objective + 1e-12:
            stall += 1
        else:
            stall = 0
        last_objective = objective
        iterations += passed + 1
        if iterations > _MAX_ITERATIONS:
            raise NumericError(
                f"dual simplex exceeded {_MAX_ITERATIONS} iterations, tableau {rows}x{costs.size}"
            )


def _add_row(tableau, basis, sign, bound, a, b):
    """The tableau, basis, signs and bounds with the row ``a x <= b`` appended,
    its slack basic: the row is written in the current signed variables, a
    variable at its bound contributing ``a_j u_j`` to the right-hand side,
    and the basic columns are eliminated. The new slack column extends the
    identity of the old ones, so the slack block still holds the inverse of
    the signed basis."""
    rows, ncols, n = basis.size, sign.size, a.size
    grown = np.zeros((rows + 2, ncols + 2))
    grown[:rows, :ncols], grown[:rows, -1] = tableau[:rows, :-1], tableau[:rows, -1]
    grown[-1, :ncols], grown[-1, -1] = tableau[-1, :-1], tableau[-1, -1]
    flipped = sign[:n] < 0.0
    new = grown[rows]
    new[:n] = a * sign[:n]
    new[ncols] = 1.0
    new[-1] = b - a[flipped] @ bound[:n][flipped]
    new -= new[basis] @ grown[:rows]
    np.copyto(new, 0.0, where=np.abs(new) < _FLUSH)
    new[basis] = 0.0
    new[ncols] = 1.0
    return grown, np.append(basis, ncols), np.append(sign, 1.0), np.append(bound, np.inf)


def _refine(matrix: np.ndarray, inverse: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix @ z = rhs`` by iterative refinement from an approximate inverse.

    Only matrix-vector products run, so no LAPACK call wakes the BLAS threads,
    which would spin on a spare core after each solve.
    """
    z = inverse @ rhs
    for _ in range(_REFINE_STEPS):
        z = z + inverse @ (rhs - matrix @ z)
    residual = float(np.abs(rhs - matrix @ z).max())
    if residual > _RESIDUAL_TOL * (1.0 + float(np.abs(rhs).max())):
        raise NumericError(f"final basis refinement left residual {residual:.3e} ({rhs.size} rows)")
    return z


def _finite(name: str, values: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{name} must be finite")
    return values


def _optimum(c, A, b, tableau, basis, sign, bound, iterations) -> LpResult:
    """The solved tableau's point and multipliers, refined against ``A`` and ``b``.

    A variable at its bound was replaced by ``bound - x``, which negated its
    column; the slack columns, never flipped, started as the identity and so
    hold the inverse of the final signed basis, with the rounding of every
    pivot in it.
    """
    m, n = A.shape
    body = np.hstack([A, np.eye(m)])
    cost = np.concatenate([c, np.zeros(m)])
    flipped = sign < 0.0
    final = body[:, basis] * sign[basis]
    inverse = tableau[:m, n : n + m]
    y = np.zeros(n + m)
    y[basis] = _refine(final, inverse, b - body[:, flipped] @ bound[flipped])
    duals = _refine(final.T, inverse.T, (sign * cost)[basis])
    solution = np.where(flipped, bound - y, y)[:n]
    return LpResult(x=solution, objective=float(c @ solution), iterations=iterations, duals=duals)


def solve_lp_prefixes(c, A_ub, b_ub, upper=None, first=1) -> list:
    """``solve_lp`` on the leading ``first``, ``first + 1``, ..., all rows of ``A_ub``.

    The first prefix is solved from the slack basis. Each further row is
    added to the solved tableau of the prefix before it, with its own slack
    as the new basic variable; dual simplex pivots then restore feasibility
    and the primal loop confirms optimality. Every prefix's point and
    multipliers are refined against its own rows, with the residual check of
    ``solve_lp``, and its ``iterations`` count its own restart. Raises as
    ``solve_lp`` does, and ``ValidationError`` when ``first`` is not a row
    count from 1 to all.
    """
    c = _finite("c", np.asarray(c, dtype=float))
    n = c.size
    A = _finite("A_ub", np.atleast_2d(np.asarray(A_ub, dtype=float)))
    b = _finite("b_ub", np.asarray(b_ub, dtype=float))
    m = b.size
    if A.shape != (m, n) or b.ndim != 1:
        raise ValidationError("A_ub/b_ub shapes inconsistent with objective")
    if m == 0:
        raise ValidationError("LP needs at least one constraint")
    if np.any(b < 0.0):
        raise ValidationError("solve_lp needs b_ub >= 0, so that the slack basis is feasible")
    u = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
    if u.shape != (n,) or not np.all(u >= 0.0):
        raise ValidationError("upper needs one bound >= 0 per variable")
    if not 1 <= first <= m:
        raise ValidationError(f"first must be a row count from 1 to {m}, got {first}")

    tableau = np.vstack([
        np.column_stack([A[:first], np.eye(first), b[:first]]),
        np.concatenate([c, np.zeros(first + 1)]),
    ])
    basis = n + np.arange(first)
    bound = np.concatenate([u, np.full(first, np.inf)])
    sign = np.ones(n + first)
    results = []
    for rows in range(first, m + 1):
        if rows > first:
            tableau, basis, sign, bound = _add_row(tableau, basis, sign, bound, A[rows - 1], b[rows - 1])
        iterations = _run_dual(tableau, basis, sign, bound)
        iterations += _run_simplex(tableau, basis, sign, bound)
        results.append(_optimum(c, A[:rows], b[:rows], tableau, basis, sign, bound, iterations))
    return results


def solve_lp(c, A_ub, b_ub, upper=None) -> LpResult:
    """Minimize ``c.x`` subject to ``A_ub x <= b_ub`` and ``0 <= x <= upper``, with ``b_ub >= 0``.

    ``upper`` may hold ``inf``; ``None`` leaves every variable unbounded above.
    The tableau ``[A_ub | I | b_ub]`` starts from the slack basis, feasible since
    ``b_ub >= 0``; the bounds stay out of it. Raises ``ValidationError`` naming
    the argument on a non-finite ``c``, ``A_ub`` or ``b_ub``, and on a negative
    right-hand side, a negative or NaN bound, or inconsistent shapes;
    ``NumericError`` on unboundedness, iteration overrun or a dual ratio test
    that rounding leaves without an entering column.
    """
    return solve_lp_prefixes(c, A_ub, b_ub, upper, first=max(np.size(b_ub), 1))[0]
