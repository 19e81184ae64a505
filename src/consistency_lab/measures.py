"""Finite-alphabet probability measures, named densities on (0,1), and partitions.

The finite-measure type is the discretized stand-in used by all distance and
test machinery; the density specs are the small family of closed-form models
that the scenario suite exercises (uniform, oscillating perturbations of the
uniform density, their running averages, and the piecewise-constant tilt
family). Every operation here is a pure function of immutable inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import ValidationError

#: Tolerance for probability sums produced by exact arithmetic.
EXACT_TOL = 1e-12
#: Tolerance for probability sums produced by numerical integration.
QUADRATURE_TOL = 1e-9

_TWO_PI = 2.0 * math.pi


class FiniteMeasure:
    """Probability vector on a finite alphabet ``{0, ..., k-1}``.

    Weights must be finite, nonnegative and sum to 1 within ``QUADRATURE_TOL``;
    the stored vector is renormalized so that the sum is exact to float
    precision. Instances are immutable and safe to share across workers.
    """

    __slots__ = ("_weights",)

    def __init__(self, weights: Sequence[float]):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValidationError("weights must be a nonempty 1-D vector")
        if not np.all(np.isfinite(w)):
            raise ValidationError("weights must be finite")
        if np.any(w < 0):
            raise ValidationError("weights must be nonnegative")
        total = float(w.sum())
        if abs(total - 1.0) > QUADRATURE_TOL:
            raise ValidationError(
                f"weights sum to {total!r}, expected 1 within {QUADRATURE_TOL}"
            )
        w = w / total
        w.setflags(write=False)
        self._weights = w

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def alphabet_size(self) -> int:
        return self._weights.size

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteMeasure) and np.array_equal(
            self._weights, other._weights
        )

    def __hash__(self):
        return hash(self._weights.tobytes())

    def __repr__(self) -> str:
        return f"FiniteMeasure({np.array2string(self._weights, precision=6)})"


def normalize(weights: Sequence[float]) -> FiniteMeasure:
    """Scale a nonnegative vector to a probability vector.

    Raises ``ValidationError`` on an all-zero vector, any negative entry, or
    any non-finite entry.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValidationError("weights must be a nonempty 1-D vector")
    if not np.all(np.isfinite(w)):
        raise ValidationError("weights must be finite")
    if np.any(w < 0):
        raise ValidationError("weights must be nonnegative")
    total = float(w.sum())
    if total <= 0.0:
        raise ValidationError("at least one weight must be positive")
    return FiniteMeasure(w / total)


def mixture(measures: Sequence[FiniteMeasure], coefficients: Sequence[float]) -> FiniteMeasure:
    """Convex combination of finite measures on a common alphabet."""
    if len(measures) == 0:
        raise ValidationError("mixture of an empty family")
    sizes = {m.alphabet_size for m in measures}
    if len(sizes) != 1:
        raise ValidationError(f"mixture components have mixed alphabet sizes {sorted(sizes)}")
    coeffs = np.asarray(coefficients, dtype=float)
    if coeffs.shape != (len(measures),):
        raise ValidationError("one coefficient per component required")
    if np.any(coeffs < -EXACT_TOL) or abs(coeffs.sum() - 1.0) > QUADRATURE_TOL:
        raise ValidationError("coefficients must be convex weights")
    stacked = np.stack([m.weights for m in measures])
    return FiniteMeasure(np.clip(coeffs, 0.0, None) @ stacked)


@dataclass(frozen=True)
class DensitySpec:
    """One of the named densities on the open unit interval.

    kind
        ``uniform`` | ``one_plus_sine`` | ``cesaro_mixture`` | ``pu_family``.
    frequency
        Oscillation index ``i >= 1`` (``one_plus_sine`` only).
    order
        Averaging order ``m >= 1`` (``cesaro_mixture`` only).
    u
        Tilt magnitude in ``[0, 1)`` (``pu_family`` only); the perturbation has
        density -1 on (0, 1/2] and +1 on (1/2, 1) relative to uniform, so
        ``u < 1`` keeps the density nonnegative.
    """

    kind: str
    frequency: int = 0
    order: int = 0
    u: float = 0.0

    def __post_init__(self):
        if self.kind == "uniform":
            pass
        elif self.kind == "one_plus_sine":
            if not (isinstance(self.frequency, int) and self.frequency >= 1):
                raise ValidationError("one_plus_sine requires integer frequency >= 1")
        elif self.kind == "cesaro_mixture":
            if not (isinstance(self.order, int) and self.order >= 1):
                raise ValidationError("cesaro_mixture requires integer order >= 1")
        elif self.kind == "pu_family":
            if not (0.0 <= self.u < 1.0):
                raise ValidationError("pu_family requires u in [0, 1)")
        else:
            raise ValidationError(f"unknown density kind {self.kind!r}")

    # -- constructors ----------------------------------------------------------
    @staticmethod
    def uniform() -> "DensitySpec":
        return DensitySpec("uniform")

    @staticmethod
    def one_plus_sine(frequency: int) -> "DensitySpec":
        return DensitySpec("one_plus_sine", frequency=frequency)

    @staticmethod
    def cesaro_mixture(order: int) -> "DensitySpec":
        return DensitySpec("cesaro_mixture", order=order)

    @staticmethod
    def pu_family(u: float) -> "DensitySpec":
        return DensitySpec("pu_family", u=float(u))

    # -- pointwise evaluation ---------------------------------------------------
    def pdf(self, x):
        """Density at ``x`` (scalar or array), valid on (0, 1)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "uniform":
            return np.ones_like(x)
        if self.kind == "one_plus_sine":
            return 1.0 + np.sin(_TWO_PI * self.frequency * x)
        if self.kind == "cesaro_mixture":
            total = np.zeros_like(x)
            for j in range(1, self.order + 1):
                total += np.sin(_TWO_PI * j * x)
            return 1.0 + total / self.order
        # pu_family: the tilt is -u below 1/2 and +u above
        return np.where(x <= 0.5, 1.0 - self.u, 1.0 + self.u)

    def cdf(self, x):
        """Distribution function at ``x`` (scalar or array), closed form."""
        x = np.asarray(x, dtype=float)
        if self.kind == "uniform":
            return x.copy()
        if self.kind == "one_plus_sine":
            i = self.frequency
            return x + (1.0 - np.cos(_TWO_PI * i * x)) / (_TWO_PI * i)
        if self.kind == "cesaro_mixture":
            total = np.zeros_like(x)
            for j in range(1, self.order + 1):
                total += (1.0 - np.cos(_TWO_PI * j * x)) / (_TWO_PI * j)
            return x + total / self.order
        below = (1.0 - self.u) * x
        above = 0.5 * (1.0 - self.u) + (1.0 + self.u) * (x - 0.5)
        return np.where(x <= 0.5, below, above)

    def mass(self, lo: float, hi: float) -> float:
        """Exact integral of the density over ``(lo, hi]``."""
        if not (0.0 <= lo < hi <= 1.0):
            raise ValidationError(f"cell ({lo}, {hi}] not inside (0, 1)")
        return float(self.cdf(hi) - self.cdf(lo))

    def series(self):
        """``(below, above, terms)`` with the density equal to ``below`` on (0, 1/2]
        and ``above`` on (1/2, 1), plus ``sum(c * sin(2 pi j x))`` over ``terms = {j: c}``."""
        if self.kind == "one_plus_sine":
            return 1.0, 1.0, {self.frequency: 1.0}
        if self.kind == "cesaro_mixture":
            return 1.0, 1.0, dict.fromkeys(range(1, self.order + 1), 1.0 / self.order)
        if self.kind == "pu_family":
            return 1.0 - self.u, 1.0 + self.u, {}
        return 1.0, 1.0, {}

    def quantile(self, v):
        """Inverse distribution function, vectorized.

        Closed form for the piecewise-linear families; 60 bisection steps on the
        closed-form distribution function otherwise (deterministic, accurate to
        well below 1e-12).
        """
        v = np.asarray(v, dtype=float)
        if self.kind == "uniform":
            return v.copy()
        if self.kind == "pu_family":
            half_mass = 0.5 * (1.0 - self.u)
            below = v / (1.0 - self.u)
            above = 0.5 + (v - half_mass) / (1.0 + self.u)
            return np.where(v <= half_mass, below, above)
        lo = np.zeros_like(v)
        hi = np.ones_like(v)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            under = self.cdf(mid) < v
            lo = np.where(under, mid, lo)
            hi = np.where(under, hi, mid)
        return 0.5 * (lo + hi)

    def label(self) -> str:
        if self.kind == "one_plus_sine":
            return f"one_plus_sine({self.frequency})"
        if self.kind == "cesaro_mixture":
            return f"cesaro_mixture({self.order})"
        if self.kind == "pu_family":
            return f"pu_family({self.u:g})"
        return "uniform"


Model = Union[FiniteMeasure, DensitySpec]


class Partition:
    """Labeled cells of a base space: sub-intervals of (0,1) or atom groups.

    Interval partitions carry cells ``(b_0, b_1], ..., (b_{k-1}, b_k]`` with
    ``b_0 = 0`` and ``b_k = 1``; atom partitions carry disjoint groups of atom
    indices covering ``{0, ..., alphabet_size - 1}``. A partition needs at
    least two cells.
    """

    __slots__ = ("kind", "cells", "alphabet_size")

    def __init__(self, kind: str, cells, alphabet_size: int = 0):
        if kind not in ("intervals", "atoms"):
            raise ValidationError(f"unknown partition kind {kind!r}")
        if kind == "intervals":
            cells = tuple((float(lo), float(hi)) for lo, hi in cells)
            if len(cells) < 2:
                raise ValidationError("a partition needs at least 2 cells")
            if cells[0][0] != 0.0 or cells[-1][1] != 1.0:
                raise ValidationError("interval cells must cover (0, 1)")
            for (lo, hi), (lo2, _) in zip(cells, cells[1:]):
                if not lo < hi or lo2 != hi:
                    raise ValidationError("interval cells must be increasing and contiguous")
            if not cells[-1][0] < cells[-1][1]:
                raise ValidationError("interval cells must be increasing and contiguous")
            alphabet_size = 0
        else:
            cells = tuple(tuple(int(a) for a in group) for group in cells)
            if len(cells) < 2:
                raise ValidationError("a partition needs at least 2 cells")
            seen = [a for group in cells for a in group]
            if alphabet_size <= 0:
                alphabet_size = max(seen) + 1 if seen else 0
            if sorted(seen) != list(range(alphabet_size)):
                raise ValidationError(
                    "atom groups must be disjoint and cover the whole alphabet"
                )
        self.kind = kind
        self.cells = cells
        self.alphabet_size = alphabet_size

    @property
    def k(self) -> int:
        return len(self.cells)

    # -- constructors ----------------------------------------------------------
    @staticmethod
    def intervals(breakpoints: Sequence[float]) -> "Partition":
        """Partition of (0,1) into cells between consecutive breakpoints."""
        bp = [float(b) for b in breakpoints]
        return Partition("intervals", list(zip(bp[:-1], bp[1:])))

    @staticmethod
    def atoms(groups: Sequence[Sequence[int]], alphabet_size: int = 0) -> "Partition":
        return Partition("atoms", groups, alphabet_size=alphabet_size)

    @staticmethod
    def identity(alphabet_size: int) -> "Partition":
        """One cell per atom."""
        if alphabet_size < 2:
            raise ValidationError("identity partition needs alphabet size >= 2")
        return Partition.atoms([[a] for a in range(alphabet_size)], alphabet_size)

    @staticmethod
    def half_split() -> "Partition":
        """The two-cell partition {(0, 1/2], (1/2, 1)}."""
        return Partition.intervals([0.0, 0.5, 1.0])

    def __repr__(self) -> str:
        return f"Partition({self.kind}, k={self.k})"


def induced_vector(model: Model, partition: Partition) -> np.ndarray:
    """Cell-probability vector of a measure under a partition.

    Component ``j`` is the mass the measure assigns to cell ``j``. Densities
    pair with interval partitions, finite measures with atom partitions;
    anything else is incompatible.
    """
    if isinstance(model, DensitySpec):
        if partition.kind != "intervals":
            raise ValidationError("density models need an interval partition")
        return np.array([model.mass(lo, hi) for lo, hi in partition.cells])
    if isinstance(model, FiniteMeasure):
        if partition.kind != "atoms":
            raise ValidationError("finite measures need an atom partition")
        if partition.alphabet_size != model.alphabet_size:
            raise ValidationError(
                f"partition covers {partition.alphabet_size} atoms, "
                f"measure has {model.alphabet_size}"
            )
        return np.array([model.weights[list(group)].sum() for group in partition.cells])
    raise ValidationError(f"unsupported model type {type(model).__name__}")


def discretize(spec: DensitySpec, grid_size: int) -> FiniteMeasure:
    """Project a density onto the equal-width grid of ``grid_size`` cells."""
    if not isinstance(spec, DensitySpec):
        raise ValidationError("discretize expects a DensitySpec")
    if grid_size < 2:
        raise ValidationError("grid_size must be >= 2")
    edges = np.arange(grid_size + 1) / grid_size
    return FiniteMeasure(np.diff(spec.cdf(edges)))
