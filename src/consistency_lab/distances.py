"""Variational distances, the convex-hull lower bound, and its attaining test.

``hull_variation`` minimizes the total variation distance between mixtures of
two finite families, which gives the floor ``1 - value`` on the sum of error
probabilities achievable by any single-observation test. It solves the
Kraft–Le Cam dual, the best separation of the families by a test
``phi in [0,1]^k``, reads the optimal mixtures off the row multipliers, and
certifies the value by the duality gap between the two. That test is
``HullDistanceResult.phi``, which attains the floor against every member of
both families.
``hull_variation_prefixes`` gives the certified value against every prefix of
the second family from one LP that grows a row per prefix.
``ks_distance`` and ``density_total_variation`` read the distribution-function
gap of two named densities at its critical points, so both are exact to
rounding; ``ks_distances`` and ``density_total_variations`` do so for a whole
table of pairs at once.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericError, ValidationError
from .measures import DensitySpec, FiniteMeasure, family_weights
from .simplex import solve_lp, solve_lp_prefixes


def total_variation(p: FiniteMeasure, q: FiniteMeasure) -> float:
    """Half the L1 distance between two probability vectors."""
    family_weights([p], [q])
    return 0.5 * float(np.abs(p.weights - q.weights).sum())


@dataclass(frozen=True)
class HullDistanceResult:
    """Minimal total variation between the convex hulls of two families.

    ``mixture_p`` and ``mixture_q`` are one pair of optimal convex weights over
    the input families; ``value`` equals the total variation of the two induced
    mixtures. ``phi`` is Kraft's test, the probability of rejecting the
    hypothesis at each atom. ``duality_gap`` is ``value`` minus the separation
    ``min_j Q_j.phi - max_i P_i.phi`` of the two families by ``phi``; it is
    >= 0 for any weights and any test, and certifies ``value`` to within
    itself. ``iterations`` counts simplex pivots plus bound flips.
    """

    value: float
    mixture_p: np.ndarray
    mixture_q: np.ndarray
    iterations: int
    duality_gap: float
    phi: np.ndarray


#: Largest duality gap accepted as a certificate of the hull distance.
GAP_TOL = 1e-9


def _simplex_weights(w: np.ndarray) -> np.ndarray:
    w = np.clip(w, 0.0, None)
    return w / w.sum()


def _hull_lp(P: np.ndarray, Q: np.ndarray):
    """Objective, rows and bounds of the Kraft–Le Cam dual of ``P`` against ``Q``."""
    na, nb, k = P.shape[0], Q.shape[0], P.shape[1]
    # Columns psi, then t+, t-, s+, s-, with t = t+ - t- and s = s+ - s-.
    t, minus_s = np.array([1.0, -1.0, 0.0, 0.0]), np.array([0.0, 0.0, -1.0, 1.0])
    A_ub = np.block([[-P, np.tile(t, (na, 1))], [Q, np.tile(minus_s, (nb, 1))]])
    upper = np.concatenate([np.ones(k), np.full(4, np.inf)])
    cost = np.concatenate([np.zeros(k), -(t + minus_s)])  # minimize s - t
    return cost, A_ub, np.zeros(na + nb), upper


def _certified(P: np.ndarray, Q: np.ndarray, result, stage: str) -> HullDistanceResult:
    """The hull distance read off the LP optimum, checked by its duality gap."""
    na, nb, k = P.shape[0], Q.shape[0], P.shape[1]
    lam = _simplex_weights(-result.duals[:na])
    mu = _simplex_weights(-result.duals[na : na + nb])
    value = 0.5 * float(np.abs(lam @ P - mu @ Q).sum())
    phi = 1.0 - np.clip(result.x[:k], 0.0, 1.0)
    gap = value - float((Q @ phi).min() - (P @ phi).max())
    if not gap <= GAP_TOL:
        raise NumericError(f"{stage}: duality gap {gap:.3e} exceeds {GAP_TOL:.0e}")
    return HullDistanceResult(
        value=value, mixture_p=lam, mixture_q=mu, iterations=result.iterations,
        duality_gap=gap, phi=phi,
    )


def hull_variation(a: Sequence[FiniteMeasure], b: Sequence[FiniteMeasure]) -> HullDistanceResult:
    """Minimize total variation over mixtures of ``a`` against mixtures of ``b``.

    Solved as its Kraft–Le Cam dual, ``max over psi in [0,1]^k of
    min_i P_i.psi - max_j Q_j.psi``, where ``psi = 1 - phi`` accepts the
    hypothesis: variables psi, t and s, maximize ``t - s`` subject to
    ``t <= P_i.psi`` and ``s >= Q_j.psi``. t and s are free, each a +/- pair
    of columns, and ``psi <= 1`` is a bound of the solver, not a row, so the
    tableau has one row per family member. Every right-hand side is 0, so
    the slack basis that ``solve_lp`` starts from is feasible. The
    multipliers of the P and Q rows are the optimal mixtures.
    """
    P, Q = family_weights(a, b)
    stage = f"hull LP ({P.shape[0]}x{Q.shape[0]} on {P.shape[1]} atoms)"
    try:
        result = solve_lp(*_hull_lp(P, Q))
    except NumericError as exc:
        raise NumericError(f"{stage}: {exc}") from exc
    return _certified(P, Q, result, stage)


def hull_variation_prefixes(
    a: Sequence[FiniteMeasure], b: Sequence[FiniteMeasure]
) -> list[HullDistanceResult]:
    """``hull_variation(a, b[:j])`` for every ``j`` from 1 to ``len(b)``, within rounding.

    Each prefix adds one row, the LP of ``b[j]``, to the one before it, so
    one tableau grows a row at a time and each prefix restarts from the
    optimal basis of the last by dual simplex (``solve_lp_prefixes``). Every
    result carries its own duality-gap certificate, and its ``iterations``
    count its own restart.
    """
    P, Q = family_weights(a, b)
    na, nb = P.shape[0], Q.shape[0]
    stage = f"hull LP scan ({na}x1..{nb} on {P.shape[1]} atoms)"
    try:
        results = solve_lp_prefixes(*_hull_lp(P, Q), first=na + 1)
    except NumericError as exc:
        raise NumericError(f"{stage}: {exc}") from exc
    return [
        _certified(P, Q[:j], result, f"{stage}, prefix {j}")
        for j, result in enumerate(results, start=1)
    ]


def kraft_bound(a: Sequence[FiniteMeasure], b: Sequence[FiniteMeasure]) -> float:
    """Floor on type I + type II error over all tests: one minus the hull distance."""
    return 1.0 - hull_variation(a, b).value


#: Sign changes within this distance of the end of a smooth piece merge into the end.
_END_TOL = 1e-12
#: Intervals narrower than this are settled without a certificate.
_MIN_WIDTH = 1e-13
#: Points times frequencies evaluated at once; bounds the memory of ``_trig``.
_TRIG_BLOCK = 1 << 15
#: Halvings of every root bracket, enough to bisect a bracket of [0, 1] to rounding.
_BISECTIONS = 60


def _trig(x, c, w, a):
    """``g = c + sum(a * sin(w x))`` and its first two derivatives at the points ``x``."""
    out = np.empty((3, x.size))
    step = max(1, _TRIG_BLOCK // w.size)
    for i in range(0, x.size, step):
        t = np.multiply.outer(x[i : i + step], w)
        sin = np.sin(t)
        out[:, i : i + step] = c + sin @ a, np.cos(t) @ (a * w), -(sin @ (a * w * w))
    return out


def _values(x, c, w, a):
    """``g`` alone at the points ``x``, blocked as ``_trig`` blocks them, so that
    each value is the first row of ``_trig`` bit for bit."""
    out = np.empty(x.size)
    step = max(1, _TRIG_BLOCK // w.size)
    for i in range(0, x.size, step):
        out[i : i + step] = c + np.sin(np.multiply.outer(x[i : i + step], w)) @ a
    return out


def _keeps_sign(f0, d0, f1, d1, bound, h):
    """Whether ``f`` has no root on an interval of width ``h``, given ``f`` and its
    slope ``d`` at both ends and ``|f''| <= bound``: by Taylor's theorem from each
    end, ``|f|`` on the nearer half exceeds ``|f(end) +- d(end) h/2| - bound h**2/8``."""
    sign = np.sign(f0)
    ends = np.minimum(sign * (f0 + 0.5 * h * d0), sign * (f1 - 0.5 * h * d1))
    return (sign == np.sign(f1)) & (ends > bound * h * h / 8.0)


def _brackets(c, w, a, lo, hi):
    """Rows ``x0``, ``x1`` and ``g(x0) > 0`` of one bracket per sign change of
    ``g = c + sum(a * sin(w x))`` on ``[lo, hi]``.

    Certified: an interval is settled when ``g`` provably keeps its sign on it,
    or ``g'`` does, so that ``g`` is monotone and has a root exactly when its end
    values differ in sign. ``sum(|a| w**2)`` and ``sum(|a| w**3)`` bound ``|g''|``
    and ``|g'''|``. Other intervals are halved. A constant ``g`` has no brackets.
    A zero at ``lo`` or ``hi`` is a root at that end: its bracket is the end
    point alone, which bisection leaves in place (dropping it would change the
    piece's matrix shape, and with it the last bit of its other roots).
    """
    if not w.size:
        return np.empty((3, 0))
    bounds = np.abs(a) @ w**2, np.abs(a) @ w**3
    x = np.linspace(lo, hi, int(4 * (hi - lo) * w.max() / (2 * np.pi)) + 2)
    nodes = np.vstack([x, _trig(x, c, w, a)])
    left, right = nodes[:, :-1], nodes[:, 1:]
    brackets = []
    while left.shape[1]:
        h = right[0] - left[0]
        settled = (
            (h < _MIN_WIDTH)
            | _keeps_sign(left[1], left[2], right[1], right[2], bounds[0], h)
            | _keeps_sign(left[2], left[3], right[2], right[3], bounds[1], h)
        )
        root = settled & ((left[1] > 0) != (right[1] > 0))
        x0 = np.where((right[0] == hi) & (right[1] == 0.0), hi, left[0])
        x1 = np.where((left[0] == lo) & (left[1] == 0.0), lo, right[0])
        brackets.append(np.vstack([x0[root], x1[root], left[1, root] > 0]))
        mid = 0.5 * (left[0, ~settled] + right[0, ~settled])
        middle = np.vstack([mid, _trig(mid, c, w, a)])
        left, right = np.hstack([left[:, ~settled], middle]), np.hstack([middle, right[:, ~settled]])
    return np.hstack(brackets)


def _sign_changes(pieces) -> list:
    """Every sign change inside ``(lo, hi)`` of ``g = c + sum(a * sin(w x))``,
    one array for each piece ``(c, w, a, lo, hi)``.

    The brackets of all pieces are bisected to rounding in one loop that
    evaluates ``g`` alone, each piece on its own brackets, so that every root
    is the one its piece gives by itself. It stops once a step moves no bracket.
    """
    brackets = [_brackets(*piece) for piece in pieces]
    ends = np.cumsum([0] + [b.shape[1] for b in brackets])
    spans = [slice(i, j) for i, j in zip(ends, ends[1:])]
    x0, x1, positive = np.hstack([np.empty((3, 0)), *brackets])
    rooted = [(piece[:3], span) for piece, span in zip(pieces, spans) if span.stop > span.start]
    g = np.empty(x0.size)
    for _ in range(_BISECTIONS):
        mid = 0.5 * (x0 + x1)
        for (c, w, a), span in rooted:
            g[span] = _values(mid[span], c, w, a)
        same = (g > 0) == positive
        if np.array_equal(np.where(same, x0, x1), mid):
            break
        x0, x1 = np.where(same, mid, x0), np.where(same, x1, mid)
    roots = 0.5 * (x0 + x1)
    return [
        roots[span][(roots[span] - lo > _END_TOL) & (hi - roots[span] > _END_TOL)]
        for (*_, lo, hi), span in zip(pieces, spans)
    ]


def _gap_pieces(p: DensitySpec, q: DensitySpec):
    """Smooth pieces ``(c, w, a, lo, hi)`` of ``f_p - f_q = c + sum(a * sin(w x))``
    on ``[lo, hi]``; ``w`` and ``a`` are empty when the sine series cancel."""
    if not isinstance(p, DensitySpec) or not isinstance(q, DensitySpec):
        raise ValidationError("density distances expect two density specs")
    below_p, above_p, terms_p, scale_p = p.series()
    below_q, above_q, terms_q, scale_q = q.series()
    terms = {
        j: terms_p.get(j, 0.0) / scale_p - terms_q.get(j, 0.0) / scale_q
        for j in sorted(terms_p | terms_q)
    }
    terms = {j: c for j, c in terms.items() if c != 0.0}
    w, a = 2.0 * np.pi * np.array(list(terms), dtype=float), np.array(list(terms.values()))
    if below_p == above_p and below_q == above_q:
        return [(below_p - below_q, w, a, 0.0, 1.0)]
    # a jump at 1/2
    return [(below_p - below_q, w, a, 0.0, 0.5), (above_p - above_q, w, a, 0.5, 1.0)]


def _critical_point_sets(pairs) -> list:
    """``critical_points(p, q)`` of every pair ``(p, q)``, with the roots of all
    pairs bisected in one loop."""
    gaps = [_gap_pieces(p, q) for p, q in pairs]
    roots = iter(_sign_changes([piece for pieces in gaps for piece in pieces]))
    return [
        np.sort(np.concatenate([[0.0], [hi for *_, hi in pieces]] + [next(roots) for _ in pieces]))
        for pieces in gaps
    ]


def critical_points(p: DensitySpec, q: DensitySpec) -> np.ndarray:
    """Sorted points of [0, 1] between which ``G = F_p - F_q`` is monotone.

    They are 0, 1, the jump of either density at 1/2, and every sign change of
    ``f_p - f_q``, which on each smooth piece is a constant plus a sine series.
    """
    return _critical_point_sets([(p, q)])[0]


def ks_distances(pairs) -> list:
    """``ks_distance`` of every pair ``(p, q)``, with the roots of all pairs
    bisected in one loop; each value equals the pair's own ``ks_distance``."""
    pairs = list(pairs)
    return [
        float(np.abs(p.cdf(x) - q.cdf(x)).max())
        for (p, q), x in zip(pairs, _critical_point_sets(pairs))
    ]


def ks_distance(spec1: DensitySpec, spec2: DensitySpec) -> float:
    """Supremum distance between the distribution functions of two densities.

    Their closed-form gap is monotone between its critical points, so its
    largest magnitude there is exact to rounding.
    """
    return ks_distances([(spec1, spec2)])[0]


def density_total_variations(pairs) -> list:
    """``density_total_variation`` of every pair ``(p, q)``, with the roots of
    all pairs bisected in one loop; each value equals the pair's own."""
    pairs = list(pairs)
    return [
        0.5 * float(np.abs(np.diff(p.cdf(x) - q.cdf(x))).sum())
        for (p, q), x in zip(pairs, _critical_point_sets(pairs))
    ]


def density_total_variation(p: DensitySpec, q: DensitySpec) -> float:
    """Total variation between two named densities, exact to rounding: half the
    summed change of the distribution-function gap between its critical points."""
    return density_total_variations([(p, q)])[0]
