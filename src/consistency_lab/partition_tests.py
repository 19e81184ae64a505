"""Partition-level distinguishability checks and multinomial frequency tests.

A positive separation margin between the cell-probability images of the
hypothesis and alternative families certifies weak distinguishability on that
partition; the nearest-set frequency test then turns the margin into a
multinomial test whose exact error probabilities decay exponentially, at
rates that :func:`deviation_exponents` bounds cell by cell. Only
:func:`separation` reads a partition; a test holds cell vectors alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb, lgamma
from typing import Sequence, Tuple

import numpy as np

from .errors import ConstructionError, ResourceLimitError, ValidationError
from .measures import FiniteMeasure, Model, Partition, induced_vector

#: Sup-norm distances closer than this count as a tie (ties accept).
TIE_TOL = 1e-12

#: Largest multinomial outcome count exact enumeration will attempt.
ENUMERATION_BUDGET = 10_000_000


@dataclass(frozen=True)
class SeparationReport:
    """Cell-probability images of the two families and their sup-norm gap.

    ``margin`` is the smallest sup-norm distance between a hypothesis vector
    and an alternative vector; it is positive exactly when the two finite
    vector sets are disjoint. ``witness_pair`` holds the indices of a closest
    pair. Each vector is a cell law: simulating a member means drawing cell
    counts from it.
    """

    hypothesis_vectors: np.ndarray
    alternative_vectors: np.ndarray
    margin: float
    witness_pair: Tuple[int, int]


def separation(
    theta0: Sequence[Model], theta1: Sequence[Model], partition: Partition | None
) -> SeparationReport:
    """Induced vectors of both families plus their minimal sup-norm distance;
    ``partition=None`` takes a finite model's atoms as cells."""
    if len(theta0) == 0 or len(theta1) == 0:
        raise ValidationError("hypothesis and alternative families must be nonempty")
    vectors = [induced_vector(m, partition) for m in (*theta0, *theta1)]
    if len({v.size for v in vectors}) != 1:
        raise ValidationError("measures live on different alphabets")
    v0, v1 = np.stack(vectors[: len(theta0)]), np.stack(vectors[len(theta0) :])
    gaps = np.abs(v0[:, None, :] - v1[None, :, :]).max(axis=2)
    i, j = np.unravel_index(int(gaps.argmin()), gaps.shape)
    return SeparationReport(
        hypothesis_vectors=v0,
        alternative_vectors=v1,
        margin=float(gaps[i, j]),
        witness_pair=(int(i), int(j)),
    )


class FrequencyTest:
    """Nearest-set classifier on the empirical cell-frequency vector.

    Rejects when the frequency vector is strictly closer (sup-norm) to the
    alternative vector set than to the hypothesis set; ties accept. The rule
    depends on the observed counts only through their normalized frequencies,
    so one instance serves every sample size.
    """

    __slots__ = ("hypothesis_vectors", "alternative_vectors")

    def __init__(self, hypothesis_vectors, alternative_vectors):
        v0 = np.atleast_2d(np.asarray(hypothesis_vectors, dtype=float))
        v1 = np.atleast_2d(np.asarray(alternative_vectors, dtype=float))
        if v0.shape[1] != v1.shape[1]:
            raise ValidationError("vector sets live in different dimensions")
        self.hypothesis_vectors = v0
        self.alternative_vectors = v1

    def rejects(self, counts: np.ndarray) -> np.ndarray:
        """Decision for each row of count vectors: 1.0 reject, 0.0 accept."""
        # One row per cell, so that every reduction below runs over the
        # leading axis: elementwise operations on contiguous rows.
        cells = np.asarray(np.atleast_2d(counts).T, dtype=float, order="C")
        totals = cells.sum(axis=0)
        freq = np.divide(cells, totals, out=np.zeros_like(cells), where=totals > 0)
        d0 = _nearest_distance(freq, self.hypothesis_vectors)
        d1 = _nearest_distance(freq, self.alternative_vectors)
        return (d1 < d0 - TIE_TOL).astype(float)

    def margin(self, freq: np.ndarray) -> np.ndarray:
        """``d0 - d1`` for each column of a ``(k, N)`` frequency array.

        ``d0`` and ``d1`` are the sup-norm distances to the nearest hypothesis
        and alternative vector. Each is 1-Lipschitz in the sup norm, so the
        margin is 2-Lipschitz: frequencies within ``r`` of ``f`` have a margin
        within ``2r`` of ``margin(f)``. The margin certifies decisions away
        from a tie (a margin clearly above ``TIE_TOL`` rejects, one clearly
        below accepts); near a tie only :meth:`rejects` decides.
        """
        d0 = _nearest_distance(freq, self.hypothesis_vectors)
        return d0 - _nearest_distance(freq, self.alternative_vectors)


def _nearest_distance(freq: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Sup-norm distance from each column of ``freq`` (k, N) to its nearest row of ``vectors``.

    One vector at a time keeps every intermediate at the size of ``freq``.
    """
    nearest = np.full(freq.shape[1], np.inf)
    for v in vectors:
        np.minimum(nearest, np.abs(freq - v[:, None]).max(axis=0), out=nearest)
    return nearest


class UnionTest:
    """Reject when any member test rejects; the union-of-alternatives device."""

    __slots__ = ("members",)

    def __init__(self, members: Sequence):
        if len(members) == 0:
            raise ValidationError("union of zero tests")
        self.members = tuple(members)

    def rejects(self, counts: np.ndarray) -> np.ndarray:
        out = self.members[0].rejects(counts)
        for member in self.members[1:]:
            out = np.maximum(out, member.rejects(counts))
        return out


def build_frequency_test(report: SeparationReport) -> FrequencyTest:
    """Frequency test for a positively separated partition report.

    Raises ``ConstructionError`` when the margin is zero: the hypothesis and
    alternative images intersect and no frequency rule on this partition can
    separate them.
    """
    if report.margin <= 0.0:
        raise ConstructionError(
            "separation margin is zero: the families are weakly indistinguishable "
            "on this partition"
        )
    return FrequencyTest(report.hypothesis_vectors, report.alternative_vectors)


def count_vectors(n: int, k: int) -> np.ndarray:
    """All length-``k`` nonnegative integer vectors summing to ``n``, in lexicographic order.

    Built one column at a time: each partial row with ``r`` left to place has
    ``r + 1`` children, taking ``0, ..., r`` in the next column in that order.
    """
    rows = np.zeros((1, 0), dtype=np.int64)
    left = np.array([n], dtype=np.int64)
    for _ in range(k - 1):
        parent = np.repeat(np.arange(left.size), left + 1)
        starts = np.cumsum(left + 1) - (left + 1)
        value = np.arange(parent.size, dtype=np.int64) - starts[parent]
        rows = np.column_stack([rows[parent], value])
        left = left[parent] - value
    return np.column_stack([rows, left])


def multinomial_log_pmf(counts: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Log-probability of each count row under a multinomial distribution."""
    counts = np.atleast_2d(counts)
    n = int(counts[0].sum())
    lgamma_table = np.array([lgamma(i + 1) for i in range(n + 1)])
    out = np.full(counts.shape[0], lgamma(n + 1))
    out -= lgamma_table[counts].sum(axis=1)
    with np.errstate(divide="ignore"):
        logw = np.log(weights)
    for j in range(weights.size):
        col = counts[:, j]
        if weights[j] == 0.0:
            out[col > 0] = -np.inf
        else:
            out += col * logw[j]
    return out


def exact_error(test, p: FiniteMeasure, n: int) -> Tuple[float, float]:
    """Exact rejection and acceptance probability of a test on ``n`` draws from ``p``.

    Sums multinomial probabilities over the decision regions; the first value
    is the type I error when ``p`` plays the hypothesis, the second the type II
    error when ``p`` plays the alternative. Raises ``ResourceLimitError`` when
    the outcome count exceeds the enumeration budget (callers print NaN).
    """
    k = p.alphabet_size
    if comb(n + k - 1, k - 1) > ENUMERATION_BUDGET:
        raise ResourceLimitError(
            f"enumerating {comb(n + k - 1, k - 1)} outcomes exceeds the "
            f"{ENUMERATION_BUDGET} budget"
        )
    outcomes = count_vectors(n, k)
    pmf = np.exp(multinomial_log_pmf(outcomes, p.weights))
    reject = test.rejects(outcomes)
    reject_prob = float(pmf @ reject)
    accept_prob = float(pmf @ (1.0 - reject))
    return reject_prob, accept_prob


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
