"""Partition-level distinguishability checks and the tests of every model class.

A separation margin between the cell-probability images of the hypothesis
and alternative families above the tie tolerance (a positive
:attr:`SeparationReport.radius`, the one separation check) certifies weak
distinguishability on that partition; the nearest-set frequency test then
turns the margin into a multinomial test whose exact error probabilities decay
exponentially, at rates that :func:`deviation_exponents` bounds cell by cell.
Only :func:`separation` reads a partition; a test holds cell vectors alone.
The Poisson two-stage test and the linear test of Gaussian signals live here
too: every test decides the rows a model's ``sample`` draws, by ``rejects``.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from math import comb, erfc, lgamma, sqrt
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConstructionError, ResourceLimitError, ValidationError
from .measures import (
    FiniteMeasure,
    Model,
    Partition,
    ReadOnlyArrays,
    _positive,
    family_weights,
    frozen,
)
from .simulation import poisson_atom_tail_bound

#: Sup-norm distances closer than this count as a tie (ties accept).
TIE_TOL = 1e-12

#: Largest multinomial outcome count exact enumeration will attempt. The
#: enumeration walks its outcomes in chunks, so the budget bounds time.
ENUMERATION_BUDGET = 10_000_000
#: Most outcomes one chunk of the enumeration holds: the chunk bounds memory.
#: At 2**16 every error table of the built-in scenarios is one chunk.
ENUMERATION_CHUNK = 1 << 16


@dataclass(frozen=True)
class SeparationReport(ReadOnlyArrays):
    """Cell-probability images of the two families and their sup-norm gap.

    ``margin`` is the smallest sup-norm distance between a hypothesis vector
    and an alternative vector; ``witness_pair`` holds the indices of a closest
    pair. Each vector is a cell law: simulating a member means drawing cell
    counts from it.
    """

    hypothesis_vectors: np.ndarray
    alternative_vectors: np.ndarray
    margin: float
    witness_pair: Tuple[int, int]

    @property
    def radius(self) -> float:
        """``(margin - TIE_TOL) / 2``, positive exactly when the families are
        separated: the nearest-set test errs only on frequencies that lie
        ``radius`` or more from their cell law in some cell."""
        return (self.margin - TIE_TOL) / 2.0


def separation(
    theta0: Sequence[Model], theta1: Sequence[Model], partition: Partition | None
) -> SeparationReport:
    """Cell laws of both families plus their minimal sup-norm distance;
    ``partition=None`` takes a finite model's atoms as cells."""
    v0, v1 = family_weights(*([m.cell_law(partition) for m in theta] for theta in (theta0, theta1)))
    gaps = np.abs(v0[:, None, :] - v1[None, :, :]).max(axis=2)
    i, j = np.unravel_index(int(gaps.argmin()), gaps.shape)
    return SeparationReport(
        hypothesis_vectors=frozen(v0),
        alternative_vectors=frozen(v1),
        margin=float(gaps[i, j]),
        witness_pair=(int(i), int(j)),
    )


@dataclass(frozen=True, eq=False)
class FrequencyTest(ReadOnlyArrays):
    """Nearest-set classifier on the empirical cell-frequency vector.

    Rejects when the frequency vector is strictly closer (sup-norm) to the
    alternative vector set than to the hypothesis set; ties accept. The rule
    depends on the observed counts only through their normalized frequencies,
    so one instance serves every sample size.
    """

    hypothesis_vectors: np.ndarray
    alternative_vectors: np.ndarray

    def __post_init__(self):
        for key in ("hypothesis_vectors", "alternative_vectors"):
            object.__setattr__(self, key, frozen(getattr(self, key), ndmin=2))
        if self.hypothesis_vectors.shape[1] != self.alternative_vectors.shape[1]:
            raise ValidationError("vector sets live in different dimensions")

    def rejects(self, counts: np.ndarray) -> np.ndarray:
        """Rejection (``True``) for each row of count vectors."""
        # One row per cell, so that every reduction runs over the leading
        # axis: elementwise operations on contiguous rows.
        cells = np.asarray(np.atleast_2d(counts).T, dtype=float, order="C")
        totals = cells.sum(axis=0)
        freq = np.divide(cells, totals, out=np.zeros_like(cells), where=totals > 0)
        return self.decide(freq)

    def decide(self, freq: np.ndarray) -> np.ndarray:
        """Rejection (``True``) for each column of a ``(k, N)`` frequency array."""
        d0 = _nearest_distance(freq, self.hypothesis_vectors)
        return _nearest_distance(freq, self.alternative_vectors) < d0 - TIE_TOL

    def settled(self, freq: np.ndarray, drift: float) -> Tuple[np.ndarray, np.ndarray]:
        """Which columns of a ``(k, N)`` frequency array keep their decision at
        every frequency within ``drift / 2`` of them, and each column's decision.

        The margin ``d0 - d1`` (sup-norm distances to the nearest hypothesis
        and alternative vector) is 2-Lipschitz in the sup norm, since each
        distance is 1-Lipschitz. A column whose margin lies more than ``drift``
        from ``TIE_TOL`` is settled: the margin keeps its side of the tie, and
        with it the decision. Near a tie only :meth:`decide` decides.
        """
        d0 = _nearest_distance(freq, self.hypothesis_vectors)
        d1 = _nearest_distance(freq, self.alternative_vectors)
        return np.abs(d0 - d1 - TIE_TOL) > drift, d1 < d0 - TIE_TOL


def _nearest_distance(freq: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Sup-norm distance from each column of ``freq`` (k, N) to its nearest row of ``vectors``.

    One vector at a time, through one scratch array the size of ``freq``.
    """
    nearest = np.full(freq.shape[1], np.inf)
    gap = np.empty_like(freq)
    for v in vectors:
        np.abs(np.subtract(freq, v[:, None], out=gap), out=gap)
        np.minimum(nearest, gap.max(axis=0), out=nearest)
    return nearest


class UnionTest:
    """Reject when any member test rejects; the union-of-alternatives device."""

    __slots__ = ("members",)

    def __init__(self, members: Sequence):
        if len(members) == 0:
            raise ValidationError("union of zero tests")
        self.members = tuple(members)

    rejects = FrequencyTest.rejects

    def decide(self, freq: np.ndarray) -> np.ndarray:
        """Rejection for each column of a ``(k, N)`` frequency array: any member rejects."""
        out = self.members[0].decide(freq)
        for member in self.members[1:]:
            out |= member.decide(freq)
        return out


def build_frequency_test(report: SeparationReport) -> FrequencyTest:
    """Frequency test for a separated partition report.

    Raises ``ConstructionError`` when the report's radius is not positive: the
    hypothesis and alternative images meet within the tie tolerance and no
    frequency rule on this partition can separate them.
    """
    if report.radius <= 0.0:
        raise ConstructionError(
            "separation margin is zero: the families are weakly indistinguishable "
            "on this partition"
        )
    return FrequencyTest(report.hypothesis_vectors, report.alternative_vectors)


@dataclass(frozen=True)
class LinearFunctionalTest(ReadOnlyArrays):
    """Thresholded linear statistic separating one pair of signals.

    Rejects when ``f . (y - s0)`` exceeds half the squared functional norm,
    the midpoint between the statistic's means under the two signals.
    """

    functional: np.ndarray
    base: np.ndarray

    def __post_init__(self):
        for key in ("functional", "base"):
            object.__setattr__(self, key, frozen(getattr(self, key)))
        if float(self.functional @ self.functional) <= 0.0:
            raise ConstructionError("separating functional is zero")

    @property
    def threshold(self) -> float:
        return 0.5 * float(self.functional @ self.functional)

    def rejects(self, y: np.ndarray) -> np.ndarray:
        y = np.atleast_2d(np.asarray(y, dtype=float))
        return (y - self.base) @ self.functional > self.threshold

    def error(self, noise: float) -> float:
        """Exact type I error, which is also the type II error, at noise level
        ``noise``: ``Φ(-‖f‖ / (2 noise))`` with ``f`` the functional."""
        norm = sqrt(float(self.functional @ self.functional))
        return 0.5 * erfc(norm / (2.0 * noise) / sqrt(2.0))


@dataclass(frozen=True)
class PoissonTwoStageTest:
    """Reject on an extreme atom count, otherwise on the atom frequencies.

    The count stage rejects when the atom count deviates from its expectation
    by more than ``n * deviation_rate``; the optional frequency stage applies a
    nearest-set rule to the empirical atom distribution.
    """

    n: int
    mass0: float
    deviation_rate: float
    frequency_test: Optional[FrequencyTest] = None

    def __post_init__(self):
        object.__setattr__(self, "deviation_rate", _positive(self.deviation_rate, "deviation rate"))

    def rejects(self, counts: np.ndarray) -> np.ndarray:
        """Rejection for each row of per-atom counts; the row sums are the atom totals."""
        totals = np.asarray(counts, dtype=float).sum(axis=1)
        reject = np.abs(totals - self.n * self.mass0) > self.n * self.deviation_rate
        if self.frequency_test is not None:
            # Empty processes carry no frequency information: accept there.
            reject |= self.frequency_test.rejects(counts) & (totals > 0)
        return reject


def poisson_count_threshold(mass0: float, n: int, target: float) -> tuple[float, float]:
    """Smallest deviation rate whose tail bound meets ``target``.

    Searches a fixed grid of rates below the total mass; when even the largest
    rate misses the target, returns it anyway (the most conservative choice)
    together with its bound. The bound decreases in the rate, so a bisection
    finds the first rate that meets the target.
    """
    rates = mass0 * np.arange(1, 1000) / 1000.0
    first = bisect.bisect_left(
        range(rates.size),
        True,
        key=lambda i: poisson_atom_tail_bound(mass0, n, float(rates[i])) <= target,
    )
    rate = float(rates[min(first, rates.size - 1)])
    return rate, poisson_atom_tail_bound(mass0, n, rate)


def count_vectors(n: int, k: int, lead: np.ndarray | None = None) -> np.ndarray:
    """All length-``k`` nonnegative integer vectors summing to ``n``, in lexicographic order.

    Built one column at a time: each partial vector with ``r`` left to place
    has ``r + 1`` children, taking ``0, ..., r`` in the next coordinate in
    that order. ``lead``, a ``(d, m)`` array, fixes the first ``d``
    coordinates: only the completions of its columns, in column order. The
    columns are built cells-first, ``(k, N)``; the result is their transpose.
    """
    lead = np.zeros((0, 1), dtype=np.int64) if lead is None else lead
    cols, left = list(lead), n - lead.sum(axis=0)
    for _ in range(k - 1 - len(cols)):
        parent = np.repeat(np.arange(left.size), left + 1)
        starts = np.cumsum(left + 1) - (left + 1)
        value = np.arange(parent.size, dtype=np.int64) - starts[parent]
        cols = [col[parent] for col in cols] + [value]
        left = left[parent] - value
    return np.stack(cols + [left]).T


def _outcome_chunks(n: int, k: int, prefix: Tuple[int, ...] = ()):
    """``count_vectors(n, k)`` cells-first, as ``(k, N)`` chunks of at most
    ``ENUMERATION_CHUNK`` outcomes walked in order.

    A chunk is a run of consecutive values of the coordinate after ``prefix``;
    a value whose outcomes alone exceed a chunk recurses on the coordinate
    after it.
    """
    left, rest = n - sum(prefix), k - len(prefix) - 1

    def from_value(v):  # outcomes whose next coordinate is at least v
        return comb(left - v + rest, rest)

    if from_value(0) <= ENUMERATION_CHUNK:
        yield count_vectors(n, k, np.array(prefix, dtype=np.int64).reshape(-1, 1)).T
        return
    v = 0
    while v <= left:
        # the longest run v..end-1 that fits: its outcomes grow with end
        end = v + bisect.bisect_right(
            range(v + 1, left + 2), ENUMERATION_CHUNK, key=lambda e: from_value(v) - from_value(e)
        )
        if end == v:
            yield from _outcome_chunks(n, k, prefix + (v,))
            end = v + 1
        else:
            lead = np.repeat(np.array(prefix, dtype=np.int64)[:, None], end - v, axis=1)
            yield count_vectors(n, k, np.vstack([lead, np.arange(v, end)])).T
        v = end


def _log_factorials(n: int) -> np.ndarray:
    """``lgamma(i + 1)`` for ``i = 0, ..., n``, without an intermediate list."""
    return np.fromiter((lgamma(i + 1) for i in range(n + 1)), dtype=float, count=n + 1)


def multinomial_log_pmf(
    counts: np.ndarray, weights: np.ndarray, log_factorials: np.ndarray | None = None
) -> np.ndarray:
    """Log-probability of each count row under each row of ``weights``.

    ``weights`` of shape ``(m, k)`` gives an ``(m, N)`` array, one vector of
    ``k`` weights an ``(N,)`` array. ``log_factorials[i]`` is ``lgamma(i + 1)``
    up to the largest count; it is tabulated here when not given.
    """
    cells = np.atleast_2d(counts).T
    n = int(cells[:, 0].sum())
    if log_factorials is None:
        log_factorials = _log_factorials(n)
    # lgamma(n + 1) - sum_j lgamma(c_j + 1), added cell by cell, for every measure.
    logfact = log_factorials[cells[0]]
    for col in cells[1:]:
        logfact += log_factorials[col]
    base = lgamma(n + 1) - logfact
    w = np.atleast_2d(weights)
    with np.errstate(divide="ignore"):
        logw = np.log(w)
    out = np.tile(base, (w.shape[0], 1))
    for row, wi, logwi in zip(out, w, logw):
        for j, col in enumerate(cells):
            if wi[j] == 0.0:
                row[col > 0] = -np.inf
            else:
                row += col * logwi[j]
    return out if np.ndim(weights) == 2 else out[0]


def exact_errors(test, measures: Sequence[FiniteMeasure], n: int) -> list:
    """Exact rejection and acceptance probability of a test on ``n`` draws from each measure.

    Returns one ``(reject, accept)`` pair per measure: the type I error when
    the measure plays the hypothesis, the type II error when it plays the
    alternative. Every outcome is enumerated and decided once for all
    measures, in chunks of at most ``ENUMERATION_CHUNK`` outcomes, whose sums
    add up in enumeration order. The sums are numpy reductions, not BLAS
    dots, so they do not depend on the BLAS thread count. Raises
    ``ResourceLimitError`` when the outcome count exceeds the enumeration
    budget (callers print NaN).
    """
    weights = np.stack([p.weights for p in measures])
    k = weights.shape[1]
    outcomes = comb(n + k - 1, k - 1)
    if outcomes > ENUMERATION_BUDGET:
        raise ResourceLimitError(
            f"exact enumeration: {outcomes} outcomes at n = {n}, k = {k} exceed "
            f"the {ENUMERATION_BUDGET} budget"
        )
    log_factorials = _log_factorials(n)
    reject = np.zeros(len(measures))
    accept = np.zeros(len(measures))
    for cells in _outcome_chunks(n, k):
        rejected = test.decide(cells / max(n, 1))
        pmf = np.exp(multinomial_log_pmf(cells.T, weights, log_factorials))
        reject += pmf.sum(axis=1, where=rejected)
        accept += pmf.sum(axis=1, where=~rejected)
    return [(float(r), float(a)) for r, a in zip(reject, accept)]


def exact_error(test, p: FiniteMeasure, n: int) -> Tuple[float, float]:
    """Exact rejection and acceptance probability of a test on ``n`` draws from ``p``:
    :func:`exact_errors` for one measure."""
    return exact_errors(test, [p], n)[0]


def deviation_exponents(vectors: np.ndarray, radius: float) -> np.ndarray:
    """Exponents ``kl(p_j ± radius ‖ p_j)`` over every cell ``p_j`` of every row of ``vectors``.

    ``kl`` is the Bernoulli relative entropy. Each exponent bounds one
    binomial tail at every ``n`` (Hoeffding 1963, Theorem 1): the frequency of
    cell ``j`` in ``n`` draws from ``p`` reaches ``p_j + radius`` with
    probability at most ``exp(-n kl(p_j + radius ‖ p_j))``, and likewise
    below. A term is dropped where ``p_j ± radius`` leaves [0, 1] or its
    exponent is infinite (``p_j`` is 0 or 1): that tail has probability 0.
    """
    p = np.tile(np.ravel(vectors), 2)
    a = p + np.repeat([radius, -radius], p.size // 2)
    keep = (0.0 <= a) & (a <= 1.0) & (0.0 < p) & (p < 1.0)
    p, a = p[keep], a[keep]
    with np.errstate(divide="ignore", invalid="ignore"):
        above = np.where(a > 0.0, a * np.log(a / p), 0.0)
        below = np.where(a < 1.0, (1.0 - a) * np.log((1.0 - a) / (1.0 - p)), 0.0)
    return above + below
