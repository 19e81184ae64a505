import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from consistency_lab.errors import ConstructionError, ResourceLimitError, ValidationError
from consistency_lab.measures import DensitySpec, FiniteMeasure, Partition, normalize
from consistency_lab import partition_tests
from consistency_lab.partition_tests import (
    TIE_TOL,
    FrequencyTest,
    UnionTest,
    build_frequency_test,
    count_vectors,
    deviation_exponents,
    exact_error,
    exact_errors,
    multinomial_log_pmf,
    separation,
)
from consistency_lab.simulation import RngSpec, estimate_error


def F(*weights):
    return FiniteMeasure(np.array(weights, dtype=float))


def chernoff_grid_oracle(p, q, num=1_000_001):
    """Dense scan over the tilt parameter, independent of the search routine."""
    lam = np.linspace(0.0, 1.0, num)
    shared = (p > 0) & (q > 0)
    if not shared.any():
        return math.inf
    terms = np.exp(
        lam[:, None] * np.log(p[shared])[None, :]
        + (1 - lam[:, None]) * np.log(q[shared])[None, :]
    ).sum(axis=1)
    return float(-np.log(terms).min())


# -- separation ------------------------------------------------------------------


def test_separation_identity_partition():
    rep = separation([F(0.5, 0.5)], [F(0.7, 0.3)], Partition.identity(2))
    assert_allclose(rep.margin, 0.2)
    assert rep.witness_pair == (0, 0)


def test_separation_without_partition_takes_atoms_as_cells():
    hypothesis, alternative = [F(0.5, 0.5), F(0.6, 0.4)], [F(0.7, 0.3)]
    rep = separation(hypothesis, alternative, None)
    same = separation(hypothesis, alternative, Partition.identity(2))
    assert np.array_equal(rep.hypothesis_vectors, same.hypothesis_vectors)
    assert np.array_equal(rep.alternative_vectors, same.alternative_vectors)
    assert (rep.margin, rep.witness_pair) == (same.margin, same.witness_pair)
    with pytest.raises(ValidationError, match="different alphabets"):
        separation([F(0.5, 0.5)], [F(0.2, 0.3, 0.5)], None)
    with pytest.raises(ValidationError, match="interval partition"):
        separation([DensitySpec.uniform()], [DensitySpec.pu_family(0.4)], None)


def test_separation_sine_even_frequency_fails_half_split():
    rep = separation(
        [DensitySpec.uniform()], [DensitySpec.one_plus_sine(2)], Partition.half_split()
    )
    assert rep.margin == 0.0


def test_separation_sine_base_frequency():
    rep = separation(
        [DensitySpec.uniform()], [DensitySpec.one_plus_sine(1)], Partition.half_split()
    )
    assert_allclose(rep.margin, 1 / math.pi, atol=1e-12)


def test_separation_empty_family():
    with pytest.raises(ValidationError):
        separation([], [F(1, 0)], Partition.identity(2))


def test_zero_mass_refinement_never_decreases_margin():
    # splitting cells that carry no mass leaves every induced vector unchanged
    rng = np.random.default_rng(8)
    for _ in range(25):
        p = np.concatenate([rng.random(3), [0.0]])
        q = np.concatenate([rng.random(3), [0.0]])
        p4, q4 = normalize(p), normalize(q)
        coarse = separation([p4], [q4], Partition.atoms([[0], [1], [2, 3]]))
        fine = separation([p4], [q4], Partition.atoms([[0], [1], [2], [3]]))
        assert fine.margin >= coarse.margin - 1e-12


# -- frequency tests -----------------------------------------------------------------


def test_frequency_test_decisions_and_tie():
    rep = separation([F(0.5, 0.5)], [F(0.9, 0.1)], Partition.identity(2))
    test = build_frequency_test(rep)
    assert test.rejects([[9, 1]])[0] > 0.5  # frequency equals the alternative
    assert not test.rejects([[5, 5]])[0] > 0.5
    # counts (7, 3): sup-distance 0.2 to both sets, tie accepts
    assert not test.rejects([[7, 3]])[0] > 0.5


def test_build_frequency_test_zero_margin():
    rep = separation(
        [DensitySpec.uniform()], [DensitySpec.one_plus_sine(2)], Partition.half_split()
    )
    with pytest.raises(ConstructionError):
        build_frequency_test(rep)


def test_separated_exactly_when_the_radius_is_positive():
    """A margin of 5e-13 lies within the tie tolerance: the nearest-set test
    would tie at every frequency between the two vectors, so no test is built."""
    rep = separation([F(0.5, 0.5)], [F(0.9, 0.1)], None)
    assert rep.radius == (rep.margin - TIE_TOL) / 2.0 > 0.0
    tied = separation([F(0.5, 0.5)], [F(0.5 + 5e-13, 0.5 - 5e-13)], None)
    assert 0.0 < tied.margin <= TIE_TOL
    assert tied.radius <= 0.0
    with pytest.raises(ConstructionError):
        build_frequency_test(tied)


def test_union_test_rejects_when_any_member_does():
    rep1 = separation([F(0.5, 0.5)], [F(0.9, 0.1)], Partition.identity(2))
    rep2 = separation([F(0.5, 0.5)], [F(0.1, 0.9)], Partition.identity(2))
    union = UnionTest([build_frequency_test(rep1), build_frequency_test(rep2)])
    assert union.rejects([[8, 0]])[0] > 0.5
    assert union.rejects([[0, 8]])[0] > 0.5
    assert not union.rejects([[4, 4]])[0] > 0.5


def _broadcast_rejects(test, counts):
    """Nearest-set decisions with one (rows, vectors, cells) array per set."""
    counts = np.atleast_2d(np.asarray(counts, dtype=float))
    totals = counts.sum(axis=1, keepdims=True)
    freq = np.divide(counts, totals, out=np.zeros_like(counts), where=totals > 0)
    d0 = np.abs(freq[:, None, :] - test.hypothesis_vectors[None]).max(axis=2).min(axis=1)
    d1 = np.abs(freq[:, None, :] - test.alternative_vectors[None]).max(axis=2).min(axis=1)
    return (d1 < d0 - 1e-12).astype(float)


def test_rejects_matches_broadcast_reference():
    rng = np.random.default_rng(89)
    for k in (2, 3, 5):
        lattice = count_vectors(4, k) / 4.0  # ties with frequencies j/n
        for sets in (
            (lattice[:2], lattice[2:5]),
            (rng.dirichlet(np.ones(k), 3), rng.dirichlet(np.ones(k), 4)),
        ):
            test = FrequencyTest(sets[0], sets[1])
            rows = [count_vectors(n, k) for n in range(0, 13)]
            rows.append(rng.integers(0, 40, size=(500, k)))
            for counts in rows:
                assert np.array_equal(test.rejects(counts), _broadcast_rejects(test, counts))
                assert np.array_equal(test.rejects(counts.T.copy().T),
                                      _broadcast_rejects(test, counts))


def test_stacked_frequency_test_equals_union_of_singletons():
    rng = np.random.default_rng(79)
    ties = 0
    for k in (2, 3, 4):
        # Vectors on the 1/4 lattice: frequencies j/n hit exact ties with them.
        lattice = count_vectors(4, k) / 4.0
        for _ in range(4):
            pick = rng.choice(len(lattice), size=5, replace=False)
            hypothesis, pieces = lattice[pick[:2]], lattice[pick[2:]]
            stacked = FrequencyTest(hypothesis, pieces)
            union = UnionTest([FrequencyTest(hypothesis, [q]) for q in pieces])
            for n in range(1, 17):
                outcomes = count_vectors(n, k)
                assert np.array_equal(stacked.rejects(outcomes), union.rejects(outcomes))
                freq = outcomes / n
                d0 = np.abs(freq[:, None, :] - hypothesis).max(axis=2).min(axis=1)
                d1 = np.abs(freq[:, None, :] - pieces).max(axis=2).min(axis=1)
                ties += int((d0 == d1).sum())
    assert ties > 0


def _margin_tests(rng, k):
    """A stacked test with random simplex vectors, and one on the 1/4 lattice."""
    lattice = count_vectors(4, k) / 4.0  # frequencies j/n hit exact ties with these
    pick = rng.choice(len(lattice), size=4, replace=False)
    stacked = FrequencyTest(rng.dirichlet(np.ones(k), 2), rng.dirichlet(np.ones(k), 3))
    on_lattice = FrequencyTest(lattice[pick[:2]], lattice[pick[2:]])
    return stacked, on_lattice


def test_margin_is_two_lipschitz_along_count_paths():
    """The frequencies at ``n <= hi`` lie within ``(hi - n)/hi`` of those at
    ``hi``, so a path settled at ``hi`` for the drift ``2 (hi - n)/hi`` of the
    2-Lipschitz margin decides at ``n`` as it does at ``hi``."""
    rng = np.random.default_rng(97)
    settled_paths = 0
    for k in (2, 3, 4):
        tests = _margin_tests(rng, k)
        for hi in (1, 2, 7, 64, 200):
            cells = rng.integers(0, k, size=(50, hi))  # 50 paths of hi draws
            counts = np.cumsum(cells[:, :, None] == np.arange(k), axis=1)  # (path, n, cell)
            freq = counts / np.arange(1, hi + 1)[None, :, None]
            for test in tests:
                for n in range(1, hi + 1):
                    settled, rejects = test.settled(freq[:, -1].T, 2.0 * (hi - n) / hi + 1e-12)
                    assert np.array_equal(rejects, test.decide(freq[:, -1].T))
                    assert np.array_equal(test.decide(freq[:, n - 1].T)[settled], rejects[settled])
                    settled_paths += int(settled.sum())
    assert settled_paths > 0


def test_margin_above_tie_tolerance_agrees_with_rejects():
    rng = np.random.default_rng(101)
    certified = 0
    for k in (2, 3, 4):
        tests = _margin_tests(rng, k)
        rows = [count_vectors(n, k) for n in range(1, 13)] + [rng.integers(0, 40, (500, k))]
        for counts in rows:
            counts = counts[counts.sum(axis=1) > 0]
            freq = (counts / counts.sum(axis=1, keepdims=True)).T
            for test in tests:
                settled, rejects = test.settled(freq, 1e-9)
                assert np.array_equal(rejects, test.rejects(counts))
                d0 = np.abs(freq.T[:, None, :] - test.hypothesis_vectors).max(axis=2).min(axis=1)
                d1 = np.abs(freq.T[:, None, :] - test.alternative_vectors).max(axis=2).min(axis=1)
                assert np.array_equal(settled, np.abs(d0 - d1 - TIE_TOL) > 1e-9)
                certified += int(settled.sum())
    assert certified > 0


# -- exact error ---------------------------------------------------------------------


def test_count_vectors_and_pmf():
    counts = count_vectors(3, 2)
    assert counts.shape == (4, 2)
    pmf = np.exp(multinomial_log_pmf(counts, np.array([0.5, 0.5])))
    assert_allclose(pmf.sum(), 1.0, atol=1e-12)
    assert_allclose(pmf, [0.125, 0.375, 0.375, 0.125])


def _count_vectors_recursive(n, k):
    """The recursive enumeration the iterative one replaced: first entry, then the rest."""
    if k == 1:
        return np.array([[n]], dtype=np.int64)
    blocks = []
    for first in range(n + 1):
        rest = _count_vectors_recursive(n - first, k - 1)
        col = np.full((rest.shape[0], 1), first, dtype=np.int64)
        blocks.append(np.hstack([col, rest]))
    return np.vstack(blocks)


def test_count_vectors_matches_recursive_lexicographic_order():
    for n in range(13):
        for k in range(1, 5):
            got = count_vectors(n, k)
            want = _count_vectors_recursive(n, k)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (n, k)


def test_exact_error_binomial_hand_example():
    rep = separation([F(0.5, 0.5)], [F(1, 0)], Partition.identity(2))
    test = build_frequency_test(rep)
    # rejects only on counts (2, 0): P = 1/4 under the fair coin
    reject_prob, accept_prob = exact_error(test, F(0.5, 0.5), 2)
    assert_allclose(reject_prob, 0.25, atol=1e-12)
    assert_allclose(accept_prob, 0.75, atol=1e-12)


def test_exact_error_perfect_separation():
    rep = separation([F(1, 0)], [F(0, 1)], Partition.identity(2))
    test = build_frequency_test(rep)
    assert exact_error(test, F(1, 0), 6)[0] == 0.0
    assert exact_error(test, F(0, 1), 6)[1] == 0.0


def test_exact_error_constant_accept():
    test = FrequencyTest(
        hypothesis_vectors=[[0.5, 0.5]],
        alternative_vectors=[[0.5, 0.5]],  # always a tie: accepts everything
    )
    reject_prob, accept_prob = exact_error(test, F(0.3, 0.7), 4)
    assert reject_prob == 0.0
    assert_allclose(accept_prob, 1.0, atol=1e-12)


def test_exact_error_budget():
    rep = separation([F(*([0.125] * 8))], [F(*([0.3] + [0.1] * 7))], Partition.identity(8))
    test = build_frequency_test(rep)
    with pytest.raises(ResourceLimitError):
        exact_error(test, F(*([0.125] * 8)), 1000)


def test_exact_error_monotone_and_slope_tracks_exponent():
    p, q = F(0.5, 0.5), F(0.7, 0.3)
    rep = separation([p], [q], Partition.identity(2))
    test = build_frequency_test(rep)
    ns = [8, 16, 32, 64]
    alphas, betas = [], []
    for n in ns:
        alphas.append(exact_error(test, p, n)[0])
        betas.append(exact_error(test, q, n)[1])
    assert all(a2 < a1 for a1, a2 in zip(alphas, alphas[1:]))
    assert all(b2 < b1 for b1, b2 in zip(betas, betas[1:]))
    big_ns = [32, 64, 128, 256]
    errs = []
    for n in big_ns:
        errs.append(exact_error(test, p, n)[0] + exact_error(test, q, n)[1])
    slope = np.polyfit(big_ns, np.log(errs), 1)[0]
    target = -chernoff_grid_oracle(p.weights, q.weights)
    assert abs(slope - target) <= 0.3 * abs(target)


def test_exact_error_matches_monte_carlo():
    p, q = F(0.5, 0.5), F(0.8, 0.2)
    rep = separation([p], [q], Partition.identity(2))
    test = build_frequency_test(rep)
    exact = exact_error(test, p, 12)[0]
    mc = estimate_error(test, p, 12, 100_000, RngSpec(123, 0))
    sigma = math.sqrt(exact * (1 - exact) / 100_000)
    assert abs(mc.estimate - exact) <= 3 * sigma


def _exact_error_reference(test, p, n):
    """One measure at a time over the whole enumeration, deciding count rows,
    with the sums ``exact_errors`` makes: numpy reductions, not BLAS dots."""
    outcomes = count_vectors(n, p.alphabet_size)
    pmf = np.exp(multinomial_log_pmf(outcomes, p.weights))
    rejected = test.rejects(outcomes) > 0.5
    return float(pmf.sum(where=rejected)), float(pmf.sum(where=~rejected))


def _error_cases():
    """(test, measures, n) on 2, 3 and 4 atoms, a zero weight, and a ``UnionTest``."""
    rng = np.random.default_rng(103)
    for k, n in ((2, 40), (3, 30), (4, 20)):
        hypothesis, pieces = rng.dirichlet(np.ones(k), 2), rng.dirichlet(np.ones(k), 2)
        hypothesis[1, 0] = 0.0
        hypothesis[1] /= hypothesis[1].sum()
        measures = [FiniteMeasure(v) for v in (*hypothesis, *pieces)]
        yield FrequencyTest(hypothesis, pieces), measures, n
        union = UnionTest([FrequencyTest(hypothesis, [q]) for q in pieces])
        yield union, measures, n


def test_exact_errors_equal_one_measure_at_a_time_bit_for_bit():
    for test, measures, n in _error_cases():
        got = exact_errors(test, measures, n)
        assert len(got) == len(measures)
        for p, pair in zip(measures, got):
            assert pair == exact_error(test, p, n) == _exact_error_reference(test, p, n)
            assert_allclose(sum(pair), 1.0, atol=1e-12)


_THREAD_PROBE = """
import numpy as np
from consistency_lab.measures import DensitySpec, FiniteMeasure, Partition
from consistency_lab.partition_tests import build_frequency_test, exact_errors, separation
report = separation(
    [DensitySpec.uniform()], [DensitySpec.pu_family(0.2)], Partition.intervals(np.arange(5) / 4)
)
measures = [FiniteMeasure(v) for v in (*report.hypothesis_vectors, *report.alternative_vectors)]
pairs = exact_errors(build_frequency_test(report), measures, 64)
print([float.hex(x) for pair in pairs for x in pair])
"""


def test_exact_errors_do_not_depend_on_the_blas_thread_count():
    """One call over 47,905 outcomes (k = 4, n = 64), under 1 and 2 OpenBLAS threads."""
    assert math.comb(64 + 3, 3) == 47_905
    src = Path(__file__).resolve().parents[1] / "src"
    printed = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(src))
        result = subprocess.run(
            [sys.executable, "-c", _THREAD_PROBE], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        printed.append(result.stdout)
    assert printed[0] == printed[1]


def test_outcome_chunks_walk_count_vectors_in_order(monkeypatch):
    for chunk in (1, 5, 64):
        monkeypatch.setattr(partition_tests, "ENUMERATION_CHUNK", chunk)
        for n, k in ((0, 3), (9, 1), (12, 2), (10, 3), (8, 4)):
            chunks = list(partition_tests._outcome_chunks(n, k))
            assert all(c.shape[0] == k and c.shape[1] <= chunk for c in chunks)
            assert all(c.flags.c_contiguous for c in chunks)
            assert np.array_equal(np.hstack(chunks).T, count_vectors(n, k))


@pytest.mark.parametrize(
    "chunk, n, k, sizes",
    [
        (5, 10, 3, [5, 5, 1, 5, 5, 5, 4, 5, 3, 5, 2, 5, 1, 5, 4, 5, 1]),
        (64, 8, 4, [45, 64, 56]),
        (7, 6, 4, [7, 6, 5, 7, 3, 6, 5, 7, 3, 5, 7, 3, 7, 3, 6, 4]),
    ],
)
def test_outcome_chunks_take_the_longest_runs_that_fit(monkeypatch, chunk, n, k, sizes):
    monkeypatch.setattr(partition_tests, "ENUMERATION_CHUNK", chunk)
    assert [c.shape[1] for c in partition_tests._outcome_chunks(n, k)] == sizes


def test_exact_errors_in_small_chunks_match_one_chunk(monkeypatch):
    cases = list(_error_cases())
    one = [exact_errors(test, measures, n) for test, measures, n in cases]
    monkeypatch.setattr(partition_tests, "ENUMERATION_CHUNK", 97)
    for (test, measures, n), want in zip(cases, one):
        got = exact_errors(test, measures, n)
        assert_allclose(got, want, rtol=0.0, atol=1e-15)


def test_exact_errors_near_the_budget_stay_in_bounded_memory():
    """k = 4 at n = 380: 9.29M outcomes, which took 1.70 GiB built at once."""
    p, q = F(0.25, 0.25, 0.25, 0.25), F(0.4, 0.3, 0.2, 0.1)
    test = build_frequency_test(separation([p], [q], None))
    assert math.comb(383, 3) == 9_290_431
    tracemalloc.start()
    try:
        (alpha, accept), = exact_errors(test, [p], 380)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200e6
    assert 0.0 < alpha < 1e-4
    assert_allclose(alpha + accept, 1.0, atol=1e-12)


# -- deviation exponents ---------------------------------------------------------------


def _kl(a, p):
    return sum(x * math.log(x / y) for x, y in ((a, p), (1 - a, 1 - p)) if x > 0)


def test_deviation_exponents_hand_values_and_dropped_terms():
    assert_allclose(deviation_exponents([[0.5, 0.5]], 0.2), [_kl(0.7, 0.5)] * 4, rtol=1e-14)
    # 0.9 + 0.2 and 0.1 - 0.2 leave [0, 1]
    assert_allclose(
        np.sort(deviation_exponents([[0.9, 0.1]], 0.2)),
        np.sort([_kl(0.3, 0.1), _kl(0.7, 0.9)]),
        rtol=1e-14,
    )
    # frequencies 1 and 0 are reachable: probability 2^-n, exponent ln 2
    assert_allclose(deviation_exponents([[0.5, 0.5]], 0.5), [math.log(2.0)] * 4, rtol=1e-14)
    # a point mass has no deviation: every term is outside [0, 1] or infinite
    assert deviation_exponents([[1.0, 0.0], [0.0, 1.0]], 0.3).size == 0


def test_deviation_exponents_bound_binomial_tails():
    """``P(X / n - p >= t) <= exp(-n kl(p + t || p))``, and likewise below, at every ``n``."""
    rng = np.random.default_rng(5)
    for p, t in zip(rng.uniform(0.02, 0.98, 20), rng.uniform(0.01, 0.4, 20)):
        for n in (1, 2, 5, 17, 64, 200):
            pmf = [math.comb(n, x) * p**x * (1 - p) ** (n - x) for x in range(n + 1)]
            tails = {
                p + t: sum(pmf[x] for x in range(n + 1) if x / n >= p + t),
                p - t: sum(pmf[x] for x in range(n + 1) if x / n <= p - t),
            }
            for a, tail in tails.items():
                if 0.0 <= a <= 1.0:
                    assert tail <= math.exp(-n * _kl(a, p)) * (1 + 1e-12)
