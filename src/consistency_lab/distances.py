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
#: Terms evaluated, or node terms bracketed, at once, cut at whole points or pieces;
#: it bounds memory, never a value.
_TRIG_BLOCK = 1 << 13
#: Halvings of every root bracket, enough to bisect a bracket of [0, 1] to rounding.
_BISECTIONS = 60


def _table(pieces):
    """The pieces ``(c, w, a, lo, hi)``, each of at least one term, as arrays ``(c, w,
    a, lo, hi, first, count)``: ``w`` and ``a`` of every term, piece after piece."""
    c, lo, hi = (np.array([piece[i] for piece in pieces], dtype=float) for i in (0, 3, 4))
    w, a = (np.concatenate([np.empty(0)] + [piece[i] for piece in pieces]) for i in (1, 2))
    count = np.array([piece[1].size for piece in pieces], dtype=int)
    return c, w, a, lo, hi, np.cumsum(count) - count, count


def _series(table, k):
    """``g = c + sum(a * sin(w x))`` at one point per entry of ``k``, a piece index,
    and with ``derivatives`` also ``g'`` and ``g''``. The terms are laid out flat once,
    here, and each point's sum is one ``np.add.reduceat`` segment, so a point's values
    depend on the point and its piece alone, not on the other points or on BLAS."""
    c, w, a, _, _, first, count = table
    n = count[k]
    starts = np.cumsum(n) - n
    term = np.arange(n.sum()) + np.repeat(first[k] - starts, n)
    c, w, a = c[k], w[term], a[term]

    def evaluate(x, derivatives=False):
        t = np.repeat(x, n) * w
        sin = np.sin(t)
        g = c + np.add.reduceat(sin * a, starts)
        if not derivatives:
            return g
        return g, np.add.reduceat(np.cos(t) * (a * w), starts), -np.add.reduceat(sin * (a * w * w), starts)

    return evaluate


def _blocks(n):
    """Slices of consecutive items, item ``i`` of ``n[i]`` terms, cut where an
    item's first term opens a new block of ``_TRIG_BLOCK``."""
    edges = [*np.flatnonzero(np.diff((np.cumsum(n) - n) // _TRIG_BLOCK, prepend=-1)), n.size]
    return [slice(i, j) for i, j in zip(edges, edges[1:])]


def _keeps_sign(f0, d0, f1, d1, bound, h):
    """Whether ``f`` has no root on an interval of width ``h``, given ``f`` and its
    slope ``d`` at both ends and ``|f''| <= bound``: by Taylor's theorem from each
    end, ``|f|`` on the nearer half exceeds ``|f(end) +- d(end) h/2| - bound h**2/8``."""
    sign = np.sign(f0)
    ends = np.minimum(sign * (f0 + 0.5 * h * d0), sign * (f1 - 0.5 * h * d1))
    return (sign == np.sign(f1)) & (ends > bound * h * h / 8.0)


def _brackets(table):
    """Rows ``x0``, ``x1``, ``g(x0) > 0`` and piece of one bracket per sign change of
    ``g = c + sum(a * sin(w x))`` on ``[lo, hi]``, for each piece of a table.

    Each piece starts from four nodes per period of its highest frequency.
    Certified: an interval is settled when ``g`` provably keeps its sign on it,
    or ``g'`` does, so that ``g`` is monotone and has a root exactly when its end
    values differ in sign. ``sum(|a| w**2)`` and ``sum(|a| w**3)`` bound ``|g''|``
    and ``|g'''|``. Other intervals are halved. A zero at ``lo`` or ``hi`` gets no
    bracket, since ``_END_TOL`` would drop it. Blocks of pieces are refined together.
    """
    _, w, a, lo, hi, first, count = table
    bounds = np.add.reduceat(np.abs(a) * w**2, first), np.add.reduceat(np.abs(a) * w**3, first)
    nodes = (4 * (hi - lo) * np.maximum.reduceat(w, first) / (2 * np.pi)).astype(int) + 2

    def trig(x, k):
        g = [np.vstack(_series(table, k[s])(x[s], derivatives=True)) for s in _blocks(count[k])]
        return np.vstack([x, k, np.hstack([np.empty((3, 0))] + g)])

    brackets = [np.empty((4, 0))]
    for pieces in _blocks(nodes * count):
        k = np.repeat(np.arange(lo.size)[pieces], nodes[pieces])
        x = np.concatenate([np.linspace(*span) for span in zip(lo[pieces], hi[pieces], nodes[pieces])])
        points, inner = trig(x, k), k[:-1] == k[1:]
        left, right = points[:, :-1][:, inner], points[:, 1:][:, inner]
        while left.shape[1]:
            k, h = left[1].astype(int), right[0] - left[0]
            settled = (
                (h < _MIN_WIDTH)
                | _keeps_sign(left[2], left[3], right[2], right[3], bounds[0][k], h)
                | _keeps_sign(left[3], left[4], right[3], right[4], bounds[1][k], h)
            )
            end = (left[0] == lo[k]) & (left[2] == 0.0) | (right[0] == hi[k]) & (right[2] == 0.0)
            root = settled & ((left[2] > 0) != (right[2] > 0)) & ~end
            brackets.append(np.vstack([left[0], right[0], left[2] > 0, k])[:, root])
            middle = trig(0.5 * (left[0, ~settled] + right[0, ~settled]), k[~settled])
            left, right = np.hstack([left[:, ~settled], middle]), np.hstack([middle, right[:, ~settled]])
    return np.hstack(brackets)


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
    """For every pair ``(p, q)``, the sorted points of [0, 1] between which
    ``G = F_p - F_q`` is monotone: 0, 1, the jump of either density at 1/2, and
    every sign change of ``f_p - f_q``, which on each smooth piece is a constant
    plus a sine series.

    The smooth pieces of all pairs make one table, whose brackets are bisected to
    rounding in blocks, each with its layout built once, until a step moves none
    of the block's brackets. Each value is its point's own (``_series``), so each
    root is the one its piece gives by itself.
    """
    gaps = [_gap_pieces(p, q) for p, q in pairs]
    smooth = [(i, piece) for i, pieces in enumerate(gaps) for piece in pieces if piece[1].size]
    table = _table([piece for _, piece in smooth])
    *_, lo, hi, _, count = table
    x0, x1, positive, k = _brackets(table)
    k, roots = k.astype(int), np.empty(k.size)
    for s in _blocks(count[k]):
        g, left, right = _series(table, k[s]), x0[s], x1[s]
        for _ in range(_BISECTIONS):
            mid = 0.5 * (left + right)
            same = (g(mid) > 0) == positive[s]
            if (np.where(same, left, right) == mid).all():
                break
            left, right = np.where(same, mid, left), np.where(same, right, mid)
        roots[s] = 0.5 * (left + right)
    inside = (roots - lo[k] > _END_TOL) & (hi[k] - roots > _END_TOL)
    pair = np.array([i for i, _ in smooth], dtype=int)[k[inside]]
    return [
        np.sort(np.concatenate([[0.0], [end for *_, end in pieces], roots[inside][pair == i]]))
        for i, pieces in enumerate(gaps)
    ]


def ks_distances(pairs) -> list:
    """``ks_distance`` of every pair ``(p, q)``, with the roots of all pairs
    bisected together; each value equals the pair's own ``ks_distance``."""
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
    all pairs bisected together; each value equals the pair's own."""
    pairs = list(pairs)
    return [
        0.5 * float(np.abs(np.diff(p.cdf(x) - q.cdf(x))).sum())
        for (p, q), x in zip(pairs, _critical_point_sets(pairs))
    ]


def density_total_variation(p: DensitySpec, q: DensitySpec) -> float:
    """Total variation between two named densities, exact to rounding: half the
    summed change of the distribution-function gap between its critical points."""
    return density_total_variations([(p, q)])[0]
