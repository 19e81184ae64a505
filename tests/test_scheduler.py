import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from consistency_lab.errors import ValidationError
from consistency_lab.measures import FiniteMeasure, Partition
from consistency_lab.partition_tests import build_frequency_test, exact_error, separation
from consistency_lab.scheduler import (
    TestFamily,
    TestFamilyMember,
    UnionSchedule,
    block_lengths,
    interleave,
    tail_bound,
    tail_constant,
)


def make_member(alternative, exponent, onset=1, hypothesis=(0.5, 0.5)):
    rep = separation(
        [FiniteMeasure(hypothesis)], [FiniteMeasure(alternative)], Partition.identity(2)
    )
    test = build_frequency_test(rep)
    return TestFamilyMember(build=lambda n: test, exponent=exponent, onset=onset)


# -- block lengths -------------------------------------------------------------------


def test_block_lengths_first_is_one():
    assert block_lengths([0.3])[0] == 1
    assert block_lengths([2.0, 1.0, 0.25])[0] == 1


def test_block_lengths_examples():
    assert block_lengths([1.0, 1.0]) == [1, 2]
    assert block_lengths([1.0, 1.0, 0.5]) == [1, 2, 7]


def test_block_lengths_minimality_grid():
    rng = np.random.default_rng(21)
    cs = rng.uniform(0.05, 3.0, size=20)
    lengths = block_lengths(cs)
    for i, (c, l) in enumerate(zip(cs, lengths), start=1):
        if i == 1:
            assert l == 1
            continue
        target = (1 - math.exp(-c)) / i**2
        assert math.exp(-c * l) <= target
        assert math.exp(-c * (l - 1)) > target  # minimal integer


def test_block_lengths_monotone_in_exponent():
    # larger exponent at the same index gives a shorter (or equal) block
    for i in range(2, 8):
        previous = None
        for c in (0.05, 0.2, 0.5, 1.0, 2.0):
            l = block_lengths([1.0] * (i - 1) + [c])[-1]
            if previous is not None:
                assert l <= previous
            previous = l


def test_block_lengths_validation():
    with pytest.raises(ValidationError):
        block_lengths([])
    with pytest.raises(ValidationError):
        block_lengths([1.0, 0.0])
    with pytest.raises(ValidationError):
        block_lengths([-1.0])


# -- interleave ----------------------------------------------------------------------


def test_interleave_single_family_runs_forever():
    family = TestFamily((make_member([0.9, 0.1], 1.0),))
    schedule = interleave(family, 50)
    assert schedule.boundaries == []
    for n in (1, 7, 50):
        assert schedule.family_index_at(n) == 1


def test_interleave_two_families_example():
    family = TestFamily(
        (make_member([0.9, 0.1], 1.0, onset=1), make_member([0.1, 0.9], 1.0, onset=1))
    )
    schedule = interleave(family, 100)
    assert schedule.boundaries == [2]
    assert schedule.family_index_at(1) == 1
    assert schedule.family_index_at(2) == 1
    assert schedule.family_index_at(3) == 2
    assert schedule.family_index_at(100) == 2


def test_interleave_respects_onsets():
    family = TestFamily(
        (make_member([0.9, 0.1], 1.0, onset=1), make_member([0.1, 0.9], 1.0, onset=9))
    )
    schedule = interleave(family, 100)
    assert schedule.boundaries == [10]  # onset + 1 dominates the block length


def test_block_at_matches_linear_scan():
    family = TestFamily(tuple(make_member([0.9, 0.1], c) for c in (1.0, 0.5, 0.2, 0.05)))
    schedule = interleave(family, 400)
    assert len(schedule.blocks) == 4

    def scan(n):
        return next(b for b in schedule.blocks if b.start <= n and (b.end is None or n <= b.end))

    edges = {b.start for b in schedule.blocks} | set(schedule.boundaries)
    for n in sorted(edges | {e + 1 for e in edges} | {399, 400, 401, 10_000}):
        assert schedule._block_at(n) is scan(n)
    with pytest.raises(ValidationError):
        schedule._block_at(0)


def test_interleave_nmax_validation():
    family = TestFamily(
        (make_member([0.9, 0.1], 0.05), make_member([0.1, 0.9], 0.05))
    )
    # c = 0.05 at index 2 needs a long first block
    first_boundary = interleave(family, 10_000).boundaries[0]
    with pytest.raises(ValidationError):
        interleave(family, first_boundary - 1)


def test_bound_sums_below_basel_tail():
    # with every exponent 1, the certified tail past boundary t is at most
    # the tail of sum 1/i^2
    exponents = [1.0] * 6
    members = tuple(make_member([0.9, 0.1], c, onset=1) for c in exponents)
    schedule = interleave(TestFamily(members), 10_000)
    boundaries = schedule.boundaries
    for t, boundary in enumerate(boundaries):
        family_indices = range(t + 2, len(exponents) + 1)
        basel = sum(1.0 / i**2 for i in family_indices) + 1.0 / (len(exponents)) ** 2
        # the running family also contributes its own geometric tail; compare
        # against the chain with the first covered index included
        chain = sum(1.0 / i**2 for i in range(t + 1, len(exponents) + 1))
        assert schedule.alpha_tail(boundary) <= chain + 1e-9
    assert schedule.alpha_tail(boundaries[0]) < math.pi**2 / 6


def test_alpha_tail_matches_direct_summation():
    members = (
        make_member([0.9, 0.1], 0.7, onset=3),
        make_member([0.1, 0.9], 0.4, onset=5),
    )
    schedule = interleave(TestFamily(members), 5_000)
    for k in (0, 2, 5, 17, 80):
        direct = sum(schedule.alpha_bound_at(n) for n in range(k + 1, 3_000))
        # add the closed-form geometric continuation past the truncation
        c = schedule.blocks[-1].exponent
        direct += math.exp(-c * 3_000) / (1 - math.exp(-c))
        assert_allclose(schedule.alpha_tail(k), direct, rtol=1e-9)


def test_beta_tail_uncovered_piece_is_infinite_until_its_family_starts():
    members = (
        make_member([0.9, 0.1], 1.0, onset=1),
        make_member([0.1, 0.9], 1.0, onset=1),
    )
    schedule = interleave(TestFamily(members), 1_000)
    boundary = schedule.boundaries[0]
    assert schedule.beta_tail(0, piece=2) >= boundary - 0  # block of uncertified ones
    assert schedule.beta_tail(boundary, piece=2) < 1.0
    assert schedule.certified_tail(boundary + 50) < schedule.certified_tail(boundary)


# -- tail bounds ---------------------------------------------------------------------


def test_tail_constant_and_bound_examples():
    C = tail_constant(1.0)
    assert_allclose(C, 1.0 / (1.0 - math.exp(-1.0)))
    assert tail_bound(0, 1.0, C) > 1.0  # vacuous, clamped only in reports
    assert_allclose(tail_bound(10, 1.0, C), C * math.exp(-10.0))
    assert tail_bound(500, 1.0, C) < 1e-200 or tail_bound(500, 1.0, C) == 0.0


def test_tail_bound_geometric_series_oracle():
    c = 0.8
    C = tail_constant(c)
    for k in (0, 3, 11):
        series = sum(math.exp(-c * n) for n in range(k + 1, k + 3_000))
        assert series <= tail_bound(k, c, C) <= series * math.exp(c) + 1e-15


def test_tail_bound_validation():
    with pytest.raises(ValidationError):
        tail_bound(1, 0.0, 1.0)
    with pytest.raises(ValidationError):
        tail_bound(-1, 1.0, 1.0)
    with pytest.raises(ValidationError):
        tail_constant(-0.5)


# -- union schedules -----------------------------------------------------------------


def _single_schedule(alternative, exponent, hypothesis=(0.5, 0.5), n_max=100):
    family = TestFamily((make_member(alternative, exponent, hypothesis=hypothesis),))
    key = np.array([hypothesis])
    return interleave(family, n_max, hypothesis_key=key)


def test_union_schedule_requires_shared_hypothesis():
    s1 = _single_schedule([0.9, 0.1], 1.0)
    s2 = _single_schedule([0.1, 0.9], 1.0, hypothesis=(0.4, 0.6))
    with pytest.raises(ValidationError):
        UnionSchedule(s1, s2)


def test_union_schedule_bound_arithmetic():
    s1 = _single_schedule([0.9, 0.1], 1.0)
    s2 = _single_schedule([0.1, 0.9], 0.5)
    union = UnionSchedule(s1, s2)
    n = 10
    assert_allclose(
        union.alpha_bound_at(n), s1.alpha_bound_at(n) + s2.alpha_bound_at(n)
    )
    assert_allclose(
        union.beta_bound_at(n),
        max(s1.beta_bound_at(n), s2.beta_bound_at(n)),
    )


def test_union_schedule_exact_error_properties():
    # alpha adds at worst; beta never exceeds the worse constituent
    hyp = FiniteMeasure([0.5, 0.5])
    s1 = _single_schedule([0.9, 0.1], 1.0)
    s2 = _single_schedule([0.1, 0.9], 1.0)
    union = UnionSchedule(s1, s2)
    for n in (4, 9):
        a_union = exact_error(union.test_at(n), hyp, n)[0]
        a1 = exact_error(s1.test_at(n), hyp, n)[0]
        a2 = exact_error(s2.test_at(n), hyp, n)[0]
        assert a_union <= a1 + a2 + 1e-12
        for q in (FiniteMeasure([0.9, 0.1]), FiniteMeasure([0.1, 0.9])):
            b_union = exact_error(union.test_at(n), q, n)[1]
            b1 = exact_error(s1.test_at(n), q, n)[1]
            b2 = exact_error(s2.test_at(n), q, n)[1]
            assert b_union <= max(b1, b2) + 1e-12


def test_union_schedule_perfect_pieces():
    s1 = _single_schedule([1.0, 0.0], 2.0, hypothesis=(0.0, 1.0))
    s2 = _single_schedule([1.0, 0.0], 2.0, hypothesis=(0.0, 1.0))
    union = UnionSchedule(s1, s2)
    hyp = FiniteMeasure([0.0, 1.0])
    alt = FiniteMeasure([1.0, 0.0])
    assert exact_error(union.test_at(5), hyp, 5)[0] == 0.0
    assert exact_error(union.test_at(5), alt, 5)[1] == 0.0
