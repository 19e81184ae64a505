"""Interleaved test schedules with summable certified error bounds.

Given a family of tests indexed by nested alternatives, each carrying a
certified exponent and an onset sample size, the scheduler assigns one family
member to every sample size: family 1 runs first, later families take over at
block boundaries chosen so that every per-index error-bound sequence is
summable (the i-th family's block is long enough that its geometric bound tail
is below 1/i^2). Summability of the bounds is what turns per-test consistency
into almost-surely-finitely-many errors along a single growing sample path.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import ValidationError

__all__ = [
    "TestFamilyMember",
    "TestSchedule",
    "block_lengths",
    "interleave",
]


def block_lengths(exponents: Sequence[float]) -> list[int]:
    """Minimal block lengths for a family of certified exponents.

    The first length is 1; for ``i >= 2`` the length is the smallest integer
    ``l`` with ``exp(-c_i l) / (1 - exp(-c_i)) <= 1 / i**2``, which caps the
    geometric tail of the i-th family's bound sequence by ``1 / i**2``.
    """
    cs = [float(c) for c in exponents]
    if len(cs) == 0:
        raise ValidationError("at least one exponent required")
    if any(not math.isfinite(c) or c <= 0.0 for c in cs):
        raise ValidationError("every exponent must be positive and finite")
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
        if not (math.isfinite(self.exponent) and self.exponent > 0.0):
            raise ValidationError("member exponent must be positive and finite")
        if self.onset < 1:
            raise ValidationError("member onset must be >= 1")


@dataclass(frozen=True)
class ScheduleBlock:
    start: int
    end: Optional[int]  # inclusive; None = runs forever
    family_index: int  # 1-based
    exponent: float
    onset: int


class TestSchedule:
    """Assignment of one family member to every sample size.

    Blocks partition ``1..infinity``; the schedule is evaluated up to
    ``n_max`` but its certified tails are computed over the infinite
    continuation of the last block.
    """

    def __init__(
        self, members: Sequence[TestFamilyMember], blocks: Sequence[ScheduleBlock], n_max: int
    ):
        self.members = tuple(members)
        self.blocks = tuple(blocks)
        self.n_max = int(n_max)
        self._starts = [b.start for b in self.blocks]

    # -- assignment -------------------------------------------------------------
    def _block_at(self, n: int) -> ScheduleBlock:
        if n < 1:
            raise ValidationError("sample index must be >= 1")
        return self.blocks[bisect.bisect_right(self._starts, n) - 1]

    def test_at(self, n: int):
        block = self._block_at(n)
        return self.members[block.family_index - 1].test

    # -- certified bounds ---------------------------------------------------------
    def alpha_bound_at(self, n: int) -> float:
        """Per-index certified type I bound; 1.0 where no certificate applies."""
        block = self._block_at(n)
        if n > block.onset:
            return math.exp(-block.exponent * n)
        return 1.0

    def beta_tail(self, k: int, piece: int) -> float:
        """Certified bound on any false acceptance past ``k`` for one piece: the
        sum of per-index certified bounds over all ``n > k`` (to infinity)."""
        total = 0.0
        for block in self.blocks:
            lo = max(k + 1, block.start)
            hi = block.end  # None = infinite
            if hi is not None and lo > hi:
                continue
            if block.family_index < piece:  # the block's test does not cover the piece
                if hi is None:
                    return math.inf  # uncertified forever
                total += hi - lo + 1
                continue
            uncert_hi = min(block.onset, hi) if hi is not None else block.onset
            if lo <= uncert_hi:
                total += uncert_hi - lo + 1
            cert_lo = max(lo, block.onset + 1)
            c = block.exponent
            if hi is None:
                total += math.exp(-c * cert_lo) / (1.0 - math.exp(-c))
            elif cert_lo <= hi:
                span = hi - cert_lo + 1
                total += math.exp(-c * cert_lo) * (1.0 - math.exp(-c * span)) / (1.0 - math.exp(-c))
        return total

    def certified_tail(self, k: int) -> float:
        """Worst certified tail over the hypothesis side and every covered piece;
        the hypothesis side is piece 1's tail."""
        return max(self.beta_tail(k, piece) for piece in range(1, len(self.members) + 1))

    # -- serialization -------------------------------------------------------------
    def to_json_dict(self) -> dict:
        """The blocks that start by ``n_max``, each clipped to end there at the latest."""
        rows = [
            {
                "start": block.start,
                "end": self.n_max if block.end is None else min(block.end, self.n_max),
                "family_index": block.family_index,
                "exponent": block.exponent,
                "bound_at_start": min(1.0, self.alpha_bound_at(block.start)),
            }
            for block in self.blocks
            if block.start <= self.n_max
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
    count = len(members)
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")

    boundaries = []
    previous = lengths[0]  # first block runs through the first boundary
    for s in range(1, count):
        boundary = max(previous + 1, lengths[s], members[s].onset + 1)
        boundaries.append(boundary)
        previous = boundary
    if boundaries and n_max < boundaries[0]:
        raise ValidationError(
            f"n_max={n_max} is smaller than the first block boundary {boundaries[0]}"
        )

    blocks = []
    start = 1
    for s in range(count):
        end = boundaries[s] if s < count - 1 else None
        member = members[s]
        blocks.append(
            ScheduleBlock(
                start=start,
                end=end,
                family_index=s + 1,
                exponent=member.exponent,
                onset=member.onset,
            )
        )
        if end is not None:
            start = end + 1
    return TestSchedule(members, blocks, n_max)

