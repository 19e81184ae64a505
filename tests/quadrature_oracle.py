"""Adaptive-quadrature oracles for the closed-form density computations.

Independent routes to numbers the package computes exactly: cell masses by
integrating the density, and density total variation by integrating
``|f_p - f_q|``. Both use the adaptive Simpson rule of
``consistency_lab.quadrature``, which no computation of the package calls,
with enough forced bisection levels that oscillations cannot alias.
"""
from consistency_lab.quadrature import integrate


def oscillation_depth(cycles: float) -> int:
    """Bisection depth that resolves ``cycles`` full oscillations on the interval."""
    depth = 3
    while (1 << depth) < 8.0 * max(1.0, cycles):
        depth += 1
    return depth


def _cycles(spec) -> int:
    return max(spec.series()[2], default=0)


def mass_quadrature(spec, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Cell mass by adaptive Simpson integration; cross-check of ``DensitySpec.mass``."""
    depth = oscillation_depth(_cycles(spec) * (hi - lo))
    return integrate(lambda t: float(spec.pdf(t)), lo, hi, tol=tol, min_depth=depth)


def density_total_variation_quadrature(p, q, tol: float = 1e-10) -> float:
    """Half the integral of ``|f_p - f_q|`` over (0, 1) by adaptive Simpson."""
    depth = oscillation_depth(max(_cycles(p), _cycles(q)))
    return 0.5 * integrate(
        lambda x: abs(float(p.pdf(x)) - float(q.pdf(x))), 0.0, 1.0, tol=tol, min_depth=depth
    )

