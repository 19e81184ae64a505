"""Dense simplex solver for the small linear programs used here.

It solves ``min c.x`` subject to ``A x <= b``, ``x >= 0`` with ``b >= 0``, the
form of the hull LP, starting from the feasible slack basis. Instances have at
most a few hundred variables, so a plain tableau method is fast,
dependency-free, and easy to audit. Pivoting uses Dantzig's rule with a
largest-pivot tie-break for numerical stability, and falls back to Bland's
anti-cycling rule when the objective stalls on a long run of degenerate
pivots. The point and the row multipliers are refined against the final basis
on the original rows, so that the rounding of many pivots does not reach them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError

#: Reduced costs and pivot entries within this of zero count as zero.
_TOL = 1e-9

#: Pivots after which the solver gives up.
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


@dataclass(frozen=True)
class LpResult:
    """Optimal point of ``min c.x  s.t.  A_ub x <= b_ub,  x >= 0``.

    ``duals`` holds one multiplier per ``A_ub`` row: the rate of change of the
    optimum with the row's right-hand side, so ``<= 0``.
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
    tableau -= np.outer(factors, pivot_row)
    tableau[np.abs(tableau) < _FLUSH] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col


def _run_simplex(tableau, basis, cost, ncols):
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
                if reduced[j] < -_TOL:
                    entering = j
                    break
        else:
            j = int(np.argmin(reduced))
            if reduced[j] < -_TOL:
                entering = j
        if entering < 0:
            return iterations
        column = tableau[:, entering]
        eligible = np.flatnonzero(column > _TOL)
        if eligible.size == 0:
            raise NumericError("LP is unbounded below")
        ratios = tableau[eligible, -1] / column[eligible]
        near = eligible[ratios <= ratios.min() + _TOL]
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
        if iterations > _MAX_ITERATIONS:
            raise NumericError(f"simplex exceeded {_MAX_ITERATIONS} iterations")


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


def solve_lp(c, A_ub, b_ub) -> LpResult:
    """Minimize ``c.x`` subject to ``A_ub x <= b_ub`` and ``x >= 0``, with ``b_ub >= 0``.

    The tableau ``[A_ub | I | b_ub]`` starts from the slack basis, feasible since
    ``b_ub >= 0``. Raises ``ValidationError`` on a negative right-hand side or
    inconsistent shapes, ``NumericError`` on unboundedness or iteration overrun.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    A = np.atleast_2d(np.asarray(A_ub, dtype=float))
    b = np.asarray(b_ub, dtype=float)
    m = b.size
    if A.shape != (m, n) or b.ndim != 1:
        raise ValidationError("A_ub/b_ub shapes inconsistent with objective")
    if m == 0:
        raise ValidationError("LP needs at least one constraint")
    if np.any(b < 0.0):
        raise ValidationError("solve_lp needs b_ub >= 0, so that the slack basis is feasible")

    body = np.hstack([A, np.eye(m)])
    tableau = np.column_stack([body, b])
    basis = n + np.arange(m)
    cost = np.concatenate([c, np.zeros(m)])
    iterations = _run_simplex(tableau, basis, cost, n + m)

    # The slack columns started as the identity, so they hold the inverse of
    # the final basis, with the rounding of every pivot in it.
    final = body[:, basis]
    inverse = tableau[:, n : n + m]
    x = np.zeros(n + m)
    x[basis] = _refine(final, inverse, b)
    duals = _refine(final.T, inverse.T, cost[basis])
    solution = x[:n]
    return LpResult(x=solution, objective=float(c @ solution), iterations=iterations, duals=duals)
