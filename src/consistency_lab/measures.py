"""Finite-alphabet probability measures, named densities on (0,1), and partitions.

The finite-measure type is the discretized stand-in used by all distance and
test machinery; the density specs are the small family of closed-form models
that the scenario suite exercises (uniform, oscillating perturbations of the
uniform density, their running averages, and the piecewise-constant tilt
family). Every operation here is a pure function of immutable inputs.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ValidationError

#: Tolerance for probability sums produced by exact arithmetic.
EXACT_TOL = 1e-12
#: Tolerance for probability sums that carry rounding: inputs, differences of CDFs.
QUADRATURE_TOL = 1e-9

_TWO_PI = 2.0 * math.pi


def frozen(values, ndmin: int = 0) -> np.ndarray:
    """``values`` as a new read-only float array of at least ``ndmin`` dimensions:
    how a value keeps an array, so that it neither keeps nor freezes its caller's."""
    array = np.array(values, dtype=float, ndmin=ndmin)
    array.setflags(write=False)
    return array


class ReadOnlyArrays:
    """Base of the values that keep arrays: unpickling and deep copying store
    each array field through ``frozen`` again (numpy restores arrays writable),
    not through the constructor, whose renormalizing could move a bit."""

    def __setstate__(self, state):
        for key, value in state.items():
            object.__setattr__(self, key, frozen(value) if isinstance(value, np.ndarray) else value)


@dataclass(frozen=True, eq=False)
class FiniteMeasure(ReadOnlyArrays):
    """Probability vector on a finite alphabet ``{0, ..., k-1}``.

    Weights must be finite, nonnegative and sum to 1 within ``QUADRATURE_TOL``;
    the stored vector is renormalized so that the sum is exact to float
    precision. Instances are immutable and safe to share across workers.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = _weight_vector(_reals(self.weights, "weights"))
        total = float(w.sum())
        if abs(total - 1.0) > QUADRATURE_TOL:
            raise ValidationError(
                f"weights sum to {total!r}, expected 1 within {QUADRATURE_TOL}"
            )
        object.__setattr__(self, "weights", frozen(w / total))

    @property
    def alphabet_size(self) -> int:
        return self.weights.size

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteMeasure) and np.array_equal(self.weights, other.weights)

    def __hash__(self):
        return hash((self.weights + 0.0).tobytes())  # -0.0 and 0.0 compare equal

    def __repr__(self) -> str:
        return f"FiniteMeasure({np.array2string(self.weights, precision=6)})"


def _weight_vector(w: np.ndarray) -> np.ndarray:
    """``w`` if it is a nonempty 1-D vector of finite, nonnegative entries."""
    if w.ndim != 1 or w.size == 0:
        raise ValidationError("weights must be a nonempty 1-D vector")
    if not np.all(np.isfinite(w)):
        raise ValidationError("weights must be finite")
    if np.any(w < 0):
        raise ValidationError("weights must be nonnegative")
    return w


def normalize(weights: Sequence[float]) -> FiniteMeasure:
    """Scale a nonnegative vector to a probability vector.

    Raises ``ValidationError`` on an all-zero vector, any negative entry, or
    any non-finite entry.
    """
    w = _weight_vector(np.asarray(weights, dtype=float))
    total = float(w.sum())
    if total <= 0.0:
        raise ValidationError("at least one weight must be positive")
    return FiniteMeasure(w / total)


def mixture(measures: Sequence[FiniteMeasure], coefficients: Sequence[float]) -> FiniteMeasure:
    """Convex combination of finite measures on a common alphabet."""
    (stacked,) = family_weights(measures)
    coeffs = np.asarray(coefficients, dtype=float)
    if coeffs.shape != (len(measures),):
        raise ValidationError("one coefficient per component required")
    if np.any(coeffs < -EXACT_TOL) or abs(coeffs.sum() - 1.0) > QUADRATURE_TOL:
        raise ValidationError("coefficients must be convex weights")
    return FiniteMeasure(np.clip(coeffs, 0.0, None) @ stacked)


def family_weights(*families: Sequence[FiniteMeasure]) -> tuple:
    """Each family's weight matrix, one row per measure; raises ``ValidationError``
    on an empty family or on measures that do not share one alphabet."""
    if any(len(family) == 0 for family in families):
        raise ValidationError("families must be nonempty")
    sizes = {m.alphabet_size for family in families for m in family}
    if len(sizes) != 1:
        raise ValidationError(f"families live on different alphabets: {sorted(sizes)}")
    return tuple(np.stack([m.weights for m in family]) for family in families)


def _no_parameter(value, name: str):
    if value is not None:
        raise ValidationError(f"{name} must be absent, got {value!r}")


def _integer(value, name: str, least: int = 1) -> int:
    """An int >= ``least`` from a Python or numpy integer, or from an integral
    float such as 3.0; not from a bool."""
    number = int(value) if isinstance(value, float) and value.is_integer() else value
    if isinstance(number, bool) or not isinstance(number, numbers.Integral) or number < least:
        raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(number)


def _reals(values, name: str) -> np.ndarray:
    """``values`` as floats; a bool, a string or a ragged list among them is a
    ``ValidationError`` on ``name``."""
    try:
        array = np.asarray(values)
    except ValueError:  # ragged nesting
        raise ValidationError(f"{name} must be numbers, got {values!r}") from None
    if array.dtype.kind not in "iuf" or (
        not isinstance(values, np.ndarray)
        and any(isinstance(v, bool) for v in np.asarray(values, dtype=object).flat)
    ):
        raise ValidationError(f"{name} must be numbers, got {values!r}")
    return array.astype(float, copy=False)


def _tilt(value, name: str) -> float:
    """A float in [0, 1), or an int there; not a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0.0 <= value < 1.0:
        raise ValidationError(f"{name} must be a number in [0, 1), got {value!r}")
    return float(value)


#: kind -> (JSON name of its parameter or None, check, series builder). A check
#: returns the parameter normalized or raises ``ValidationError`` naming it; a
#: builder maps the parameter to ``DensitySpec.series``.
_KINDS = {
    "uniform": (None, _no_parameter, lambda _: (1.0, 1.0, {}, 1.0)),
    "one_plus_sine": ("frequency", _integer, lambda i: (1.0, 1.0, {i: 1.0}, 1.0)),
    "cesaro_mixture": (
        "order", _integer, lambda m: (1.0, 1.0, dict.fromkeys(range(1, m + 1), 1.0), m)
    ),
    "pu_family": ("u", _tilt, lambda u: (1.0 - u, 1.0 + u, {}, 1.0)),
}


def _kind(kind) -> tuple:
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValidationError(f"unknown density kind {kind!r}")
    return _KINDS[kind]


@dataclass(frozen=True)
class DensitySpec:
    """One of the named densities on the open unit interval, each a jump at 1/2
    plus a sine series (see ``series``).

    ``uniform`` has no parameter. ``one_plus_sine`` is ``1 + sin(2 pi i x)``
    with frequency ``i >= 1``; ``cesaro_mixture`` averages it over i = 1..m,
    with order ``m >= 1``. ``pu_family`` is ``1 - u`` on (0, 1/2] and ``1 + u``
    on (1/2, 1), with tilt ``u`` in [0, 1) so the density stays positive.
    ``param`` is normalized on construction: an integral float such as 3.0
    becomes an int, ``u`` a float; bools and strings raise ``ValidationError``.
    """

    kind: str
    param: Union[int, float, None] = None

    def __post_init__(self):
        name, check, _ = _kind(self.kind)
        object.__setattr__(self, "param", check(self.param, f"{self.kind} {name or 'parameter'}"))

    # -- constructors ----------------------------------------------------------
    @staticmethod
    def uniform() -> "DensitySpec":
        return DensitySpec("uniform")

    @staticmethod
    def one_plus_sine(frequency: int) -> "DensitySpec":
        return DensitySpec("one_plus_sine", frequency)

    @staticmethod
    def cesaro_mixture(order: int) -> "DensitySpec":
        return DensitySpec("cesaro_mixture", order)

    @staticmethod
    def pu_family(u: float) -> "DensitySpec":
        return DensitySpec("pu_family", u)

    # -- JSON round trip ---------------------------------------------------------
    def to_json(self) -> dict:
        name = _KINDS[self.kind][0]
        return {"kind": self.kind} if name is None else {"kind": self.kind, name: self.param}

    @staticmethod
    def from_json(obj: dict) -> "DensitySpec":
        """Inverse of ``to_json``; raises ``KeyError`` when the parameter is missing."""
        name = _kind(obj["kind"])[0]
        return DensitySpec(obj["kind"], None if name is None else obj[name])

    # -- pointwise evaluation ---------------------------------------------------
    def series(self):
        """``(below, above, terms, scale)``: the density is ``below`` on (0, 1/2]
        and ``above`` on (1/2, 1), plus ``sum(c * sin(2 pi j x)) / scale`` over
        ``terms = {j: c}``. The common scale keeps the running average's
        arithmetic: its terms carry coefficient 1 and the sum is divided by m."""
        return _KINDS[self.kind][2](self.param)

    def pdf(self, x):
        """Density at ``x`` (scalar or array), valid on (0, 1)."""
        x = np.asarray(x, dtype=float)
        below, above, terms, scale = self.series()
        total = np.zeros_like(x)
        for j, c in terms.items():
            total += c * np.sin(_TWO_PI * j * x)
        return np.where(x <= 0.5, below, above) + total / scale

    def cdf(self, x):
        """Distribution function at ``x`` (scalar or array) in [0, 1], closed form."""
        x = np.asarray(x, dtype=float)
        below, above, terms, scale = self.series()
        total = np.zeros_like(x)
        for j, c in terms.items():
            total += c * (1.0 - np.cos(_TWO_PI * j * x)) / (_TWO_PI * j)
        return np.where(x <= 0.5, below * x, 0.5 * below + above * (x - 0.5)) + total / scale

    def quantile(self, v):
        """Inverse distribution function, vectorized: closed form for the kinds
        without sine terms, 60 bisection steps on ``cdf`` otherwise
        (deterministic, accurate to well below 1e-12)."""
        v = np.asarray(v, dtype=float)
        below, above, terms, _ = self.series()
        if not terms:
            half = 0.5 * below
            return np.where(v <= half, v / below, 0.5 + (v - half) / above)
        lo = np.zeros_like(v)
        hi = np.ones_like(v)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            under = self.cdf(mid) < v
            lo = np.where(under, mid, lo)
            hi = np.where(under, hi, mid)
        return 0.5 * (lo + hi)

    def label(self) -> str:
        value = f"{self.param:g}" if isinstance(self.param, float) else self.param
        return self.kind if self.param is None else f"{self.kind}({value})"


Model = Union[FiniteMeasure, DensitySpec]
#: What a partition's cells, and each cell, may be.
_CELL = (list, tuple, np.ndarray)


def _interval_cells(cells) -> tuple:
    """Float pairs from pairs of numbers, increasing and contiguous from 0 to 1."""
    if any(len(cell) != 2 or any(isinstance(v, _CELL) for v in cell) for cell in cells):
        raise ValidationError(f"partition.cells must be pairs of numbers, got {cells!r}")
    pairs = tuple(map(tuple, _reals(cells, "partition.cells").tolist()))
    if pairs[0][0] != 0.0 or pairs[-1][1] != 1.0:
        raise ValidationError("interval cells must cover (0, 1)")
    if any(not lo < hi for lo, hi in pairs) or any(a[1] != b[0] for a, b in zip(pairs, pairs[1:])):
        raise ValidationError("interval cells must be increasing and contiguous")
    return pairs


def _atom_cells(cells) -> tuple:
    """Int tuples from disjoint groups of integers >= 0 that cover 0 up to the largest."""
    groups = tuple(tuple(_integer(a, "partition.cells", 0) for a in group) for group in cells)
    atoms = sorted(a for group in groups for a in group)
    if atoms != list(range(len(atoms))):
        raise ValidationError("atom groups must be disjoint and cover the whole alphabet")
    return groups


#: kind -> reader of two or more raw cells: the cells as tuples, or ``ValidationError``.
_PARTITION_KINDS = {"intervals": _interval_cells, "atoms": _atom_cells}


@dataclass(frozen=True)
class Partition:
    """Labeled cells of a base space: sub-intervals of (0,1) or atom groups.

    Interval partitions carry cells ``(b_0, b_1], ..., (b_{k-1}, b_k]`` with
    ``b_0 = 0`` and ``b_k = 1``; atom partitions carry disjoint groups of atom
    indices, integers >= 0, covering ``{0, ..., alphabet_size - 1}``. A partition
    needs at least two cells, is stored as tuples and compares by its cells.
    """

    kind: str
    cells: tuple

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _PARTITION_KINDS:
            raise ValidationError(f"unknown partition kind {self.kind!r}")
        if not isinstance(self.cells, _CELL) or not all(isinstance(c, _CELL) for c in self.cells):
            raise ValidationError(f"partition.cells must be a list of lists, got {self.cells!r}")
        if len(self.cells) < 2:
            raise ValidationError("a partition needs at least 2 cells")
        object.__setattr__(self, "cells", _PARTITION_KINDS[self.kind](self.cells))

    @property
    def alphabet_size(self) -> int:
        """Atoms an atom partition covers, one more than its largest; 0 for intervals."""
        atoms = () if self.kind == "intervals" else (a for group in self.cells for a in group)
        return max(atoms, default=-1) + 1

    @property
    def k(self) -> int:
        return len(self.cells)

    # -- constructors ----------------------------------------------------------
    @staticmethod
    def intervals(breakpoints: Sequence[float]) -> "Partition":
        """Partition of (0,1) into cells between consecutive breakpoints."""
        return Partition("intervals", list(zip(breakpoints[:-1], breakpoints[1:])))

    @staticmethod
    def atoms(groups: Sequence[Sequence[int]]) -> "Partition":
        return Partition("atoms", groups)

    @staticmethod
    def identity(alphabet_size: int) -> "Partition":
        """One cell per atom."""
        return Partition.atoms([[a] for a in range(alphabet_size)])

    @staticmethod
    def half_split() -> "Partition":
        """The two-cell partition {(0, 1/2], (1/2, 1)}."""
        return Partition.intervals([0.0, 0.5, 1.0])


def induced_vector(model: Model, partition: Optional[Partition]) -> np.ndarray:
    """Cell-probability vector of a measure under a partition.

    Component ``j`` is the mass the measure assigns to cell ``j``. Densities
    pair with interval partitions, finite measures with atom partitions or
    with ``None``, under which their atoms are the cells; anything else is
    incompatible. Exact columns, error blocks and path replay bin by it.
    """
    if isinstance(model, DensitySpec):
        if partition is None or partition.kind != "intervals":
            raise ValidationError("density models need an interval partition")
        return np.diff(model.cdf([0.0] + [hi for _, hi in partition.cells]))
    if isinstance(model, FiniteMeasure):
        if partition is None:
            return model.weights
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
