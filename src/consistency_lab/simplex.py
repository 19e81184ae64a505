"""Dense two-phase simplex solver for the tiny linear programs used here.

Instances have at most a few hundred variables, so a plain tableau method is
fast, dependency-free, and easy to audit. Pivoting uses Dantzig's rule with a
largest-pivot tie-break for numerical stability, and falls back to Bland's
anti-cycling rule when the objective stalls on a long run of degenerate
pivots. When phase 1 does not run, the point and the row multipliers are
refined against the final basis on the original rows, so that the rounding of
many pivots does not reach them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericError, ValidationError

DEFAULT_TOL = 1e-9

#: Degenerate pivots tolerated before switching to Bland's rule.
_STALL_LIMIT = 100

#: Entries smaller than this are flushed to zero after each pivot.
_FLUSH = 1e-13

#: Refinement steps from the final basis; each shrinks the error by the factor
#: ``|I - inverse @ basis|``, at worst about 1e-4 on the hull LPs.
_REFINE_STEPS = 4

#: Largest residual left by refinement, relative to ``1 + max |rhs|``.
_RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class LpResult:
    """Optimal point of ``min c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0``.

    ``duals`` holds one multiplier per ``A_ub`` row: the rate of change of the
    optimum with the row's right-hand side, so ``<= 0``. It is ``None`` when
    phase 1 ran (equality rows or a negative right-hand side).
    """

    x: np.ndarray
    objective: float
    iterations: int
    duals: Optional[np.ndarray]


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    pivot_row = tableau[row]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, pivot_row)
    tableau[np.abs(tableau) < _FLUSH] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col


def _run_simplex(tableau, basis, cost, ncols, tol, max_iterations):
    """Minimize ``cost`` over the canonical tableau; returns iteration count."""
    iterations = 0
    stall = 0
    last_objective = None
    while True:
        reduced = cost[:ncols] - cost[basis] @ tableau[:, :ncols]
        bland = stall > _STALL_LIMIT
        entering = -1
        if bland:
            for j in range(ncols):
                if reduced[j] < -tol:
                    entering = j
                    break
        else:
            j = int(np.argmin(reduced))
            if reduced[j] < -tol:
                entering = j
        if entering < 0:
            return iterations
        column = tableau[:, entering]
        eligible = np.flatnonzero(column > tol)
        if eligible.size == 0:
            raise NumericError("LP is unbounded below")
        ratios = tableau[eligible, -1] / column[eligible]
        near = eligible[ratios <= ratios.min() + tol]
        if bland:
            leaving = int(near[np.argmin(basis[near])])
        else:
            leaving = int(near[np.argmax(column[near])])
        _pivot(tableau, basis, leaving, entering)
        objective = float(cost[basis] @ tableau[:, -1])
        if last_objective is not None and objective >= last_objective - 1e-12:
            stall += 1
        else:
            stall = 0
        last_objective = objective
        iterations += 1
        if iterations > max_iterations:
            raise NumericError(f"simplex exceeded {max_iterations} iterations")


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


def _rows(A, b, n, name):
    """``(A, b)`` as float arrays with ``n`` columns; empty when ``A`` is None."""
    if A is None:
        return np.zeros((0, n)), np.zeros(0)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float)
    if A.shape != (b.size, n):
        raise ValidationError(f"{name} shapes inconsistent with objective")
    return A, b


def solve_lp(
    c,
    A_ub: Optional[np.ndarray] = None,
    b_ub: Optional[np.ndarray] = None,
    A_eq: Optional[np.ndarray] = None,
    b_eq: Optional[np.ndarray] = None,
    tol: float = DEFAULT_TOL,
    max_iterations: int = 20000,
) -> LpResult:
    """Solve a small dense LP in the standard nonnegative form.

    Phase 1 finds a basic feasible point through artificial variables; it is
    skipped when every right-hand side is >= 0 and there are no equality rows.
    Phase 2 optimizes the caller's objective. Raises ``NumericError`` with
    diagnostics on infeasibility, unboundedness, or iteration overrun.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    A_ub, b_ub = _rows(A_ub, b_ub, n, "A_ub/b_ub")
    A_eq, b_eq = _rows(A_eq, b_eq, n, "A_eq/b_eq")
    n_ub = b_ub.size
    m = n_ub + b_eq.size
    if m == 0:
        raise ValidationError("LP needs at least one constraint")

    # Columns: original vars, slacks for <= rows, artificials as needed.
    body = np.zeros((m, n + n_ub))
    body[:, :n] = np.vstack([A_ub, A_eq])
    body[np.arange(n_ub), n + np.arange(n_ub)] = 1.0
    b = np.concatenate([b_ub, b_eq])
    flip = b < 0.0

    needs_artificial = [i >= n_ub or flip[i] for i in range(m)]
    n_art = sum(needs_artificial)
    tableau = np.zeros((m, n + n_ub + n_art + 1))
    tableau[:, : n + n_ub] = np.where(flip[:, None], -body, body)
    tableau[:, -1] = np.abs(b)
    basis = np.zeros(m, dtype=int)
    art = 0
    for i in range(m):
        if needs_artificial[i]:
            col = n + n_ub + art
            tableau[i, col] = 1.0
            basis[i] = col
            art += 1
        else:
            basis[i] = n + i

    total_cols = n + n_ub + n_art
    iterations = 0
    if n_art:
        phase1_cost = np.zeros(total_cols)
        phase1_cost[n + n_ub :] = 1.0
        iterations += _run_simplex(tableau, basis, phase1_cost, total_cols, tol, max_iterations)
        residual = float(phase1_cost[basis] @ tableau[:, -1])
        if residual > 1e3 * tol:
            raise NumericError(f"LP infeasible (phase-1 residual {residual:.3e})")
        # Drive leftover artificials out of the basis; drop redundant rows.
        keep = np.ones(m, dtype=bool)
        for i in range(m):
            if basis[i] >= n + n_ub:
                pivot_col = next(
                    (j for j in range(n + n_ub) if abs(tableau[i, j]) > tol), None
                )
                if pivot_col is None:
                    keep[i] = False
                else:
                    _pivot(tableau, basis, i, pivot_col)
        if not keep.all():
            tableau = tableau[keep]
            basis = basis[keep]
            m = int(keep.sum())

    if np.any(basis >= n + n_ub):
        raise NumericError("artificial variable stuck in basis")
    work = tableau[:, : n + n_ub + 1].copy()
    work[:, -1] = tableau[:, -1]
    phase2_cost = np.zeros(n + n_ub)
    phase2_cost[:n] = c
    iterations += _run_simplex(work, basis, phase2_cost, n + n_ub, tol, max_iterations)

    x = np.zeros(n + n_ub)
    duals = None
    if n_art:
        x[basis] = work[:, -1]
    else:
        # The slack columns started as the identity, so they hold the inverse
        # of the final basis, with the rounding of every pivot in it.
        final = body[:, basis]
        inverse = work[:, n : n + n_ub]
        x[basis] = _refine(final, inverse, b)
        duals = _refine(final.T, inverse.T, phase2_cost[basis])
    solution = x[:n]
    return LpResult(
        x=solution, objective=float(c @ solution), iterations=iterations, duals=duals
    )
