"""Adaptive Simpson quadrature with a certified absolute tolerance.

No computation of the package calls it; the tests use it as an oracle.
"""
from __future__ import annotations

from typing import Callable

from .errors import NumericError

#: Default absolute tolerance for cell integrals.
DEFAULT_TOL = 1e-10

_MAX_DEPTH = 60


def _simpson(f: Callable[[float], float], a: float, fa: float, b: float, fb: float):
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, fa, b, fb, m, fm, whole, tol, depth, min_depth):
    lm, flm, left = _simpson(f, a, fa, m, fm)
    rm, frm, right = _simpson(f, m, fm, b, fb)
    delta = left + right - whole
    if depth >= min_depth and abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth >= _MAX_DEPTH:
        raise NumericError(
            f"adaptive Simpson did not converge on [{a}, {b}] "
            f"(residual {abs(delta):.3e} at depth {depth})"
        )
    half = 0.5 * tol
    return _adaptive(f, a, fa, m, fm, lm, flm, left, half, depth + 1, min_depth) + _adaptive(
        f, m, fm, b, fb, rm, frm, right, half, depth + 1, min_depth
    )


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = DEFAULT_TOL,
    min_depth: int = 0,
) -> float:
    """Integrate ``f`` over ``[a, b]`` to absolute accuracy ``tol``.

    Recursive Simpson with the standard Richardson acceptance test.
    ``min_depth`` forces that many bisection levels before the acceptance test
    may fire; oscillatory integrands whose zeros align with the dyadic nodes
    would otherwise be accepted as identically zero. Raises ``NumericError``
    if the depth limit is hit.
    """
    if not b > a:
        raise ValueError(f"empty integration interval [{a}, {b}]")
    if min_depth > _MAX_DEPTH - 10:
        raise ValueError(f"min_depth={min_depth} too deep")
    fa, fb = f(a), f(b)
    m, fm, whole = _simpson(f, a, fa, b, fb)
    return _adaptive(f, a, fa, b, fb, m, fm, whole, tol, 0, min_depth)

