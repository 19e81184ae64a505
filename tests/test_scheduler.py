import bisect
import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from consistency_lab.errors import ValidationError
from consistency_lab.measures import FiniteMeasure, Partition
from consistency_lab.partition_tests import separation
from consistency_lab.scheduler import TestFamilyMember, block_lengths, interleave


def make_member(alternative, exponent, onset=1):
    test = separation(
        [FiniteMeasure([0.5, 0.5])], [FiniteMeasure(alternative)], Partition.identity(2)
    )
    return TestFamilyMember(test, exponent=exponent, onset=onset)


def boundaries(schedule):
    """Last sample size of each finite block."""
    return [end for _, _, _, end in schedule.blocks() if end is not None]


def scan(schedule, n):
    """The 1-based index of the block holding ``n``, by a linear scan."""
    return next(
        index
        for index, _, start, end in schedule.blocks()
        if start <= n and (end is None or n <= end)
    )


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


@pytest.mark.parametrize(
    "exponents, closed_form, length",
    [
        ([1.0] * 13 + [0.15671279285488882], 46, 47),  # the closed form rounds short
        ([1.0] * 37 + [0.17507629023143415], 53, 52),  # the closed form rounds long
    ],
    ids=["rounded-up", "rounded-down"],
)
def test_block_lengths_correct_the_closed_form(exponents, closed_form, length):
    """Where ``ceil(-log(target) / c)`` misses by rounding, the last length is
    still the smallest ``l`` with ``exp(-c l) <= (1 - exp(-c)) / i**2``."""
    i, c = len(exponents), exponents[-1]
    target = (1 - math.exp(-c)) / i**2
    assert math.ceil(-math.log(target) / c) == closed_form
    assert block_lengths(exponents)[-1] == length
    assert math.exp(-c * length) <= target < math.exp(-c * (length - 1))


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
    family = [make_member([0.9, 0.1], 1.0)]
    schedule = interleave(family, 50)
    assert boundaries(schedule) == []
    for n in (1, 7, 50):
        assert scan(schedule, n) == 1


def test_interleave_two_families_example():
    family = [make_member([0.9, 0.1], 1.0, onset=1), make_member([0.1, 0.9], 1.0, onset=1)]
    schedule = interleave(family, 100)
    assert boundaries(schedule) == [2]
    assert scan(schedule, 1) == 1
    assert scan(schedule, 2) == 1
    assert scan(schedule, 3) == 2
    assert scan(schedule, 100) == 2


def test_interleave_respects_onsets():
    family = [make_member([0.9, 0.1], 1.0, onset=1), make_member([0.1, 0.9], 1.0, onset=9)]
    schedule = interleave(family, 100)
    assert boundaries(schedule) == [10]  # onset + 1 dominates the block length


def test_block_at_matches_linear_scan():
    family = [make_member([0.9, 0.1], c) for c in (1.0, 0.5, 0.2, 0.05)]
    schedule = interleave(family, 400)
    assert len(schedule.blocks()) == 4
    edges = {start for _, _, start, _ in schedule.blocks()} | set(boundaries(schedule))
    for n in sorted(edges | {e + 1 for e in edges} | {399, 400, 401, 10_000}):
        assert schedule.test_at(n) is family[scan(schedule, n) - 1].test
    with pytest.raises(ValidationError):
        schedule.test_at(0)


def test_interleave_nmax_validation():
    family = [make_member([0.9, 0.1], 0.05), make_member([0.1, 0.9], 0.05)]
    # c = 0.05 at index 2 needs a long first block
    first_boundary = boundaries(interleave(family, 10_000))[0]
    with pytest.raises(ValidationError):
        interleave(family, first_boundary - 1)


def test_schedule_is_a_frozen_value():
    schedule = interleave([make_member([0.9, 0.1], 0.3), make_member([0.1, 0.9], 0.3)], 64)
    assert isinstance(schedule.members, tuple) and isinstance(schedule.ends, tuple)
    assert type(schedule.n_max) is int
    for field, value in (("ends", ()), ("members", ()), ("n_max", 1)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(schedule, field, value)


def test_schedule_json_clips_blocks_to_n_max():
    # the third block starts at 682, past n_max; the second ends at 681
    schedule = interleave([TestFamilyMember(None, c) for c in (0.05, 0.05, 0.01)], 100)
    assert [(start, end) for _, _, start, end in schedule.blocks()] == [
        (1, 89),
        (90, 681),
        (682, None),
    ]
    assert [(start, end) for _, _, start, end in schedule.blocks(100)] == [(1, 89), (90, 100)]
    rows = schedule.to_json_dict()["blocks"]
    assert [(row["start"], row["end"]) for row in rows] == [(1, 89), (90, 100)]
    assert [row["family_index"] for row in rows] == [1, 2]
    # the second member (exponent 0.05, onset 1) at its start
    assert rows[1]["bound_at_start"] == math.exp(-0.05 * 90)
    assert rows[0]["bound_at_start"] == 1.0  # n = 1 is not past the onset


def _bound(schedule, n, piece):
    """Per-index certified bound on erring at ``n`` for draws from ``piece``
    (piece 1 also stands for the hypothesis side): 1 where the serving member
    does not cover the piece or ``n`` is not past its onset."""
    index = bisect.bisect_left(schedule.ends, n) + 1
    member = schedule.members[index - 1]
    if index < piece or n <= member.onset:
        return 1.0
    return math.exp(-member.exponent * n)


def _direct_tail(schedule, k, piece):
    """``_bound`` summed over ``k < n <= N``, with ``N`` 500 past the start of the
    last member's certified range, plus its geometric continuation past ``N``."""
    _, last, start, _ = schedule.blocks()[-1]
    end = max(k, start, last.onset) + 500
    c = last.exponent
    direct = math.fsum(_bound(schedule, n, piece) for n in range(k + 1, end + 1))
    return direct + math.exp(-c * (end + 1)) / (1 - math.exp(-c))


def test_bound_sums_below_basel_tail():
    # with every exponent 1, the hypothesis-side tail past boundary t is at
    # most the tail of sum 1/i^2
    exponents = [1.0] * 6
    members = tuple(make_member([0.9, 0.1], c, onset=1) for c in exponents)
    schedule = interleave(members, 10_000)
    for t, boundary in enumerate(boundaries(schedule)):
        # the running family also contributes its own geometric tail; compare
        # against the chain with the first covered index included
        chain = sum(1.0 / i**2 for i in range(t + 1, len(exponents) + 1))
        assert _direct_tail(schedule, boundary, 1) <= chain + 1e-9
    assert _direct_tail(schedule, boundaries(schedule)[0], 1) < math.pi**2 / 6


def test_hypothesis_tail_matches_direct_summation():
    """The hypothesis side's direct sum never exceeds the certified tail, and
    equals it once the last block has begun."""
    members = (
        make_member([0.9, 0.1], 0.7, onset=3),
        make_member([0.1, 0.9], 0.4, onset=5),
    )
    schedule = interleave(members, 5_000)
    start = schedule.blocks()[-1][2]
    for k in (0, 2, 5, 17, 80):
        assert _direct_tail(schedule, k, 1) <= schedule.certified_tail(k) * (1 + 1e-12)
        if k >= start - 1:
            assert_allclose(schedule.certified_tail(k), _direct_tail(schedule, k, 1), rtol=1e-12)


def test_certified_tail_is_the_last_piece_direct_sum_on_random_schedules():
    """The closed form equals the last piece's per-index bounds summed one by
    one, and no other piece's sum is larger."""
    rng = np.random.default_rng(2203)
    for _ in range(60):
        size = int(rng.integers(1, 5))
        members = [
            TestFamilyMember(None, float(c), int(onset))
            for c, onset in zip(10 ** rng.uniform(-1.5, 0.5, size), rng.integers(1, 60, size))
        ]
        schedule = interleave(members, 10_000)
        start = schedule.blocks()[-1][2]
        for k in sorted({0, 1, start - 2, start - 1, start, start + 7, int(rng.integers(0, 400))}):
            k = max(k, 0)
            tail = schedule.certified_tail(k)
            assert_allclose(tail, _direct_tail(schedule, k, size), rtol=1e-12)
            for piece in range(1, size):
                assert _direct_tail(schedule, k, piece) <= tail * (1 + 1e-12)


def test_certified_tail_counts_the_uncovered_block_until_the_last_family_starts():
    members = (
        make_member([0.9, 0.1], 1.0, onset=1),
        make_member([0.1, 0.9], 1.0, onset=1),
    )
    schedule = interleave(members, 1_000)
    boundary = boundaries(schedule)[0]
    # one uncertified 1 for every n of the first block past k
    assert schedule.certified_tail(0) >= boundary
    assert schedule.certified_tail(boundary) < 1.0
    assert schedule.certified_tail(boundary + 50) < schedule.certified_tail(boundary)


@pytest.mark.parametrize("exponent", [0.0, -1.0, 1e-300, 1e-17, math.nan, math.inf])
def test_exponents_without_a_summable_tail_are_rejected(exponent):
    with pytest.raises(ValidationError, match="exp"):
        TestFamilyMember(None, exponent)
    with pytest.raises(ValidationError, match="exp"):
        block_lengths([1.0, exponent])
