"""Interleaved test schedules with summable certified error bounds.

Given a family of tests indexed by nested alternatives, each carrying a
certified exponent and an onset sample size, the scheduler assigns one family
member to every sample size: family 1 runs first, later families take over at
block boundaries chosen so that every per-index error-bound sequence is
summable (the i-th family's block is long enough that its geometric bound tail
is below 1/i^2). Summability of the bounds is what turns per-test consistency
into almost-surely-finitely-many errors along a single growing sample path.

A schedule is its members and its block ends; :meth:`TestSchedule.blocks` lays
out the blocks for the certified tail (one closed form over the last block),
the JSON report and the path replay.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import ValidationError
from .measures import _integer, _real

__all__ = [
    "TestFamilyMember",
    "TestSchedule",
    "block_lengths",
    "interleave",
    "summable",
]


def summable(exponent: float) -> bool:
    """Whether ``exp(-exponent n)`` has a finite tail sum: ``exp(-exponent) < 1``."""
    return 0.0 < exponent < math.inf and math.exp(-exponent) < 1.0


def block_lengths(exponents: Sequence[float]) -> list[int]:
    """Minimal block lengths for a family of certified exponents.

    The first length is 1; for ``i >= 2`` the length is the smallest integer
    ``l`` with ``exp(-c_i l) / (1 - exp(-c_i)) <= 1 / i**2``, which caps the
    geometric tail of the i-th family's bound sequence by ``1 / i**2``.
    """
    cs = [float(c) for c in exponents]
    if len(cs) == 0:
        raise ValidationError("at least one exponent required")
    if not all(summable(c) for c in cs):
        raise ValidationError("every exponent must be finite with exp(-c) < 1")
    lengths = [1]
    for i, c in enumerate(cs[1:], start=2):
        target = (1.0 - math.exp(-c)) / (i * i)
        l = max(1, math.ceil(-math.log(target) / c))
        while l > 1 and math.exp(-c * (l - 1)) <= target:
            l -= 1
        while math.exp(-c * l) > target:
            l += 1
        lengths.append(l)
    return lengths


@dataclass(frozen=True)
class TestFamilyMember:
    """One certified test of a family.

    The certificate states that both error probabilities of ``test`` are at
    most ``exp(-exponent * n)`` for ``n > onset`` (the type II side against the
    alternatives this member covers). Member ``i`` (1-based) covers the nested
    alternative union of pieces ``1..i``. Path replay relies on ``test``
    deciding from the cell frequencies alone, so one object serves every ``n``.
    """

    test: object
    exponent: float
    onset: int = 1

    def __post_init__(self):
        exponent = _real(
            self.exponent, "member exponent", summable, "must be finite with exp(-exponent) < 1"
        )
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "onset", _integer(self.onset, "onset"))


@dataclass(frozen=True)
class TestSchedule:
    """Assignment of one family member to every sample size.

    Member ``i`` (1-based) serves ``ends[i-2] + 1 .. ends[i-1]`` and the last
    member every later ``n``, so ``len(ends) == len(members) - 1``. The
    schedule is evaluated up to ``n_max`` but its certified tails are computed
    over the infinite continuation of the last block.
    """

    members: tuple  # of TestFamilyMember
    ends: tuple  # of int
    n_max: int

    def blocks(self, horizon: Optional[int] = None) -> list:
        """``(index, member, start, end)`` per block, 1-based ``index``, ``end=None``
        for the last; with a ``horizon``, the blocks that start by it, each
        clipped to end there at the latest."""
        starts = (1,) + tuple(end + 1 for end in self.ends)
        rows = zip(range(1, len(self.members) + 1), self.members, starts, self.ends + (None,))
        if horizon is None:
            return list(rows)
        return [
            (index, member, start, horizon if end is None else min(end, horizon))
            for index, member, start, end in rows
            if start <= horizon
        ]

    def test_at(self, n: int):
        if n < 1:
            raise ValidationError("sample index must be >= 1")
        return self.members[bisect.bisect_left(self.ends, n)].test

    # -- certified bounds ---------------------------------------------------------
    def certified_tail(self, k: int) -> float:
        """Bound on any error past ``k``: the sum over ``n > k`` of the last piece's
        per-index bounds, 1 before the last member's certified range and
        ``exp(-c n)`` in it. Only the last member covers that piece, so the
        hypothesis side and every other piece have terms no larger."""
        _, last, start, _ = self.blocks()[-1]
        cert_lo = max(k + 1, start, last.onset + 1)
        c = last.exponent
        return (cert_lo - k - 1) + math.exp(-c * cert_lo) / (1.0 - math.exp(-c))

    # -- serialization -------------------------------------------------------------
    def to_json_dict(self) -> dict:
        """The blocks that start by ``n_max``, each clipped to end there at the latest."""
        rows = [
            {
                "start": start,
                "end": end,
                "family_index": index,
                "exponent": member.exponent,
                "onset": member.onset,
                "bound_at_start": (
                    1.0 if start <= member.onset else math.exp(-member.exponent * start)
                ),
            }
            for index, member, start, end in self.blocks(self.n_max)
        ]
        return {"n_max": self.n_max, "blocks": rows}


def interleave(members: Sequence[TestFamilyMember], n_max: int) -> TestSchedule:
    """Build the block schedule for a family of certified tests.

    Families are taken in index order; each boundary is the smallest admissible
    value: past the previous boundary, at least the family's block length, and
    past its onset. With a single member the schedule is that member at every
    sample size.
    """
    lengths = block_lengths([m.exponent for m in members])
    n_max = _integer(n_max, "n_max")

    ends = []
    previous = lengths[0]  # first block runs through the first boundary
    for s in range(1, len(members)):
        previous = max(previous + 1, lengths[s], members[s].onset + 1)
        ends.append(previous)
    if ends and n_max < ends[0]:
        raise ValidationError(f"n_max={n_max} is smaller than the first block boundary {ends[0]}")
    return TestSchedule(tuple(members), tuple(ends), n_max)
