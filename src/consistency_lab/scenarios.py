"""Pre-built experiments tying distances, partition tests, schedules and sampling.

Each builder returns a :class:`Scenario` that serializes to the JSON schema the
command-line front end consumes; :func:`run_scenario` executes every metric the
scenario's content supports and returns deterministic tables keyed by metric
name. Replications are allocated disjoint RNG stream ranges in a fixed
construction order, so a seed pins every output byte.
"""
from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .distances import (
    density_total_variations,
    hull_variation,
    hull_variation_prefixes,
    ks_distances,
)
from .errors import (
    ConstructionError,
    DegenerateScenarioError,
    ResourceLimitError,
    ValidationError,
)
from .measures import (
    DensitySpec,
    FiniteMeasure,
    GaussianSequenceModel,
    Partition,
    PoissonModel,
    _integer,
    _positive,
    _reals,
    _vector,
    discretize,
    family_weights,
    frozen,
)
from .partition_tests import (
    LinearFunctionalTest,
    PoissonTwoStageTest,
    deviation_exponents,
    exact_errors,
    poisson_count_threshold,
    separation,
)
from .scheduler import TestFamilyMember, TestSchedule, interleave, summable
from .simulation import (
    MIN_REPLICATIONS,
    RngSpec,
    WorkerPool,
    discernibility_paths,
    estimate_error,
)

#: Share of a member's smallest deviation exponent that it certifies; the rest
#: pays for summing the per-cell terms from the onset on.
CERTIFIED_FRACTION = 0.75

#: Exponent of a member whose measures leave no deviation term: every cell
#: probability is 0 or 1, so its errors are 0.
PERFECT_EXPONENT_CAP = 25.0

#: The error columns of every error table, in order: per role the exact error
#: (NaN where none is computed), the Monte Carlo estimate and its 95% Wilson
#: interval, then the Monte Carlo total.
ERROR_COLUMNS = (
    "alpha_exact", "alpha_mc", "alpha_lo", "alpha_hi",
    "beta_exact", "beta_mc", "beta_lo", "beta_hi",
    "total_mc",
)


@dataclass(frozen=True)
class SimParams:
    """Simulation budget attached to a scenario, checked and stored as ints and tuples."""

    replications: int = 2000
    n_grid: tuple = ()
    k_grid: tuple = ()
    epsilon_list: tuple = ()

    def __post_init__(self):
        for key, value in (
            ("replications", _integer(self.replications, "sim.replications", MIN_REPLICATIONS)),
            ("n_grid", _numbers(self.n_grid, "sim.n_grid", 1)),
            ("k_grid", _numbers(self.k_grid, "sim.k_grid", 0)),
            ("epsilon_list", tuple(
                _positive(eps, "sim.epsilon_list")
                for eps in _numbers(self.epsilon_list, "sim.epsilon_list", None)
            )),
        ):
            object.__setattr__(self, key, value)


@dataclass(frozen=True)
class Scenario:
    """A named experiment: model sets plus the knobs needed to run them. A value:
    the constructor checks every field and stores it normalized (the families as
    tuples, signals as read-only copies, options and schedule as read-only mappings);
    ``dataclasses.replace`` and unpickling make a value that passes every check again."""

    name: str
    model_type: str  # a key of _MODEL_TYPES
    hypothesis: tuple
    alternative: tuple
    partition: Optional[Partition] = None
    schedule: Optional[Mapping] = None  # {"exponents": (...), "onsets": (...)}
    sim: SimParams = field(default_factory=SimParams)
    model_options: Mapping = field(default_factory=dict)

    def __post_init__(self):
        """Every value check, for builders and files alike; normalizes every field."""
        if not isinstance(self.name, str):
            raise ValidationError(f"scenario name must be a string, got {self.name!r}")
        row = _model_type(self.model_type)
        for key in ("hypothesis", "alternative"):
            models = tuple(getattr(self, key))
            if row.model is np.ndarray:  # signals, the one mutable model type
                models = tuple(frozen(_vector(s, "signal")) for s in models)
            object.__setattr__(self, key, models)
        if len(self.hypothesis) == 0 or len(self.alternative) == 0:
            raise ValidationError("hypothesis and alternative families must be nonempty")
        if not all(isinstance(m, row.model) for m in self.hypothesis + self.alternative):
            raise ValidationError(f"{self.model_type} models must be {row.model.__name__}")
        _known_keys(self.model_options, _MODEL_OPTIONS, "model.", "model option")
        for key in self.model_options:
            if key not in row.options:
                raise ValidationError(f"model.{key} is not supported by {self.model_type} models")
        object.__setattr__(self, "model_options", MappingProxyType({
            key: _integer(value, f"model.{key}", _MODEL_OPTIONS[key])
            for key, value in self.model_options.items()
        }))
        _check_supported(self.model_type, self.partition is not None, self.schedule is not None)
        if self.schedule is not None:
            stored = _object(self.schedule, "schedule", _SCHEDULE_OPTIONS)
            object.__setattr__(self, "schedule", MappingProxyType({
                "exponents": _numbers(stored.get("exponents", ()), "schedule.exponents", None),
                "onsets": _numbers(stored.get("onsets", ()), "schedule.onsets", 1),
            }))
        if self.partition is not None and self.partition.kind != row.partition:
            raise ValidationError(
                f"{self.model_type} models need a partition of {row.partition}, "
                f"got one of {self.partition.kind}"
            )
        row.check(self)
        for key in ("n_grid", "k_grid", "epsilon_list"):
            if getattr(self.sim, key) and key not in row.options:
                raise ValidationError(f"sim.{key} is not supported by {self.model_type} models")

    def __reduce__(self):
        """Pickle and copy through the constructor, which checks the value again."""
        values = (getattr(self, f.name) for f in fields(self))
        return Scenario, tuple(dict(v) if isinstance(v, Mapping) else v for v in values)

    @cached_property
    def cell_laws(self) -> tuple:
        """``(hypothesis laws, alternative laws)``: each model's :class:`FiniteMeasure`
        on the partition's cells, its ``cell_law``. The one place a scenario meets
        its partition."""
        return tuple(
            tuple(m.cell_law(self.partition) for m in models)
            for models in (self.hypothesis, self.alternative)
        )

    @cached_property
    def family(self) -> tuple:
        """The certified tests of the nested alternatives: :func:`build_nested_family`
        on the cell laws under the stored schedule, built on first use and kept."""
        return tuple(build_nested_family(*self.cell_laws, **(self.schedule or {})))

    # -- JSON round trip ---------------------------------------------------------
    def to_json_dict(self) -> dict:
        write = _MODEL_TYPES[self.model_type].write
        out = {
            "name": self.name,
            "model": {"type": self.model_type, **self.model_options},
            "hypothesis": [write(m) for m in self.hypothesis],
            "alternative": [write(m) for m in self.alternative],
            "sim": {
                "replications": self.sim.replications,
                "n_grid": list(self.sim.n_grid),
                "k_grid": list(self.sim.k_grid),
                "epsilon_list": list(self.sim.epsilon_list),
            },
        }
        if self.partition is not None:
            out["partition"] = {"cells": [list(c) for c in self.partition.cells]}
        if self.schedule is not None:
            out["schedule"] = {key: list(values) for key, values in self.schedule.items()}
        return out


#: Keys a scenario file may set: top level, ``sim``, ``schedule``, ``model`` (option: least value).
_SCENARIO_KEYS = ("name", "model", "hypothesis", "alternative", "partition", "schedule", "sim")
_SIM_OPTIONS = ("replications", "n_grid", "k_grid", "epsilon_list")
_SCHEDULE_OPTIONS = ("exponents", "onsets")
_MODEL_OPTIONS = {"grid_size": 2, "cesaro_scan": 1}


def _known_keys(obj: dict, allowed: Sequence[str], prefix: str, kind: str) -> None:
    """Raise on the first key of ``obj`` that ``allowed`` does not list."""
    for key in obj:
        if key not in allowed:
            raise ValidationError(
                f"{prefix}{key} is not a {kind}; the options are {', '.join(allowed)}"
            )


def _numbers(values, key: str, least: Optional[int]) -> tuple:
    """``values``, the scenario's ``key``, as a tuple of floats, or of integers
    ``>= least`` unless ``least`` is None, if it is a list of numbers."""
    if np.asarray(values, dtype=object).ndim != 1:  # a scalar, a string or nested lists
        raise ValidationError(f"{key} must be a list of numbers, got {values!r}")
    if least is None:
        return tuple(_reals(values, key).tolist())
    return tuple(_integer(v, key, least) for v in values)


def _object(value, key: str, options: Sequence[str]) -> Mapping:
    """``value``, the scenario's ``key``, if it is an object whose keys ``options`` lists."""
    if not isinstance(value, Mapping):
        raise ValidationError(f"scenario {key!r} must be an object, got {type(value).__name__}")
    _known_keys(value, options, f"{key}.", f"{key} option")
    return value


def _models(data: dict, key: str, read) -> list:
    """The model entries under ``key``, each parsed by its type's reader."""
    entries = data[key]
    if not isinstance(entries, list):
        raise ValidationError(f"scenario {key!r} must be a list, got {type(entries).__name__}")
    models = []
    for obj in entries:
        if not isinstance(obj, dict):
            raise ValidationError(f"model entries must be objects, got {type(obj).__name__}")
        try:
            models.append(read(obj))
        except KeyError as missing:
            raise ValidationError(f"model entry lacks required key {missing}") from None
    return models


def _check_supported(model_type: str, partition: bool, schedule: bool) -> None:
    """Raise when a scenario of ``model_type`` has a partition or a schedule its
    type does not take; a file is checked before either is parsed."""
    row = _MODEL_TYPES[model_type]
    for key, given, supported in (
        ("partition", partition, row.partition),
        ("schedule", schedule, row.schedules),
    ):
        if given and not supported:
            raise ValidationError(f"scenario {key!r} is not supported by {model_type} models")


def scenario_from_dict(data: dict) -> Scenario:
    """Parse a scenario from its JSON object form. The parser checks the
    file's shape: its objects and lists, required and unknown keys and model
    entries; the constructors check every value, a partition's cells included."""
    if not isinstance(data, dict):
        raise ValidationError("scenario file must contain a JSON object")
    _known_keys(data, _SCENARIO_KEYS, "", "scenario key")
    for key in ("name", "model", "hypothesis", "alternative"):
        if key not in data:
            raise ValidationError(f"scenario lacks required key {key!r}")
    model = data["model"]
    if not isinstance(model, dict) or "type" not in model:
        raise ValidationError("scenario 'model' must be an object with a 'type'")
    model_type = model["type"]
    row = _model_type(model_type)
    hypothesis = _models(data, "hypothesis", row.read)
    alternative = _models(data, "alternative", row.read)
    _check_supported(model_type, "partition" in data, "schedule" in data)
    partition = None
    if "partition" in data:
        stored = data["partition"]
        if not isinstance(stored, dict) or "cells" not in stored:
            raise ValidationError("scenario 'partition' lacks required key 'cells'")
        partition = Partition(row.partition, _object(stored, "partition", ("cells",))["cells"])
    return Scenario(
        name=data["name"],
        model_type=model_type,
        hypothesis=hypothesis,
        alternative=alternative,
        partition=partition,
        schedule=data.get("schedule"),
        sim=SimParams(**_object(data.get("sim", {}), "sim", _SIM_OPTIONS)),
        model_options={k: v for k, v in model.items() if k != "type"},
    )


# -- named builders ---------------------------------------------------------------


def scenario_sine_indistinguishable(
    i_max: int, grid_size: int = 64, partition: Optional[Partition] = None
) -> Scenario:
    """Uniform hypothesis against the oscillating family of increasing frequency.

    High frequencies wash out on any fixed partition, so the per-frequency
    separation margins shrink while every single frequency stays testable.
    """
    partition = partition or Partition.half_split()
    return Scenario(
        name=f"sine-indistinguishable-i{i_max}",
        model_type="density",
        hypothesis=[DensitySpec.uniform()],
        alternative=[DensitySpec.one_plus_sine(i) for i in range(1, i_max + 1)],
        partition=partition,
        sim=SimParams(replications=2000),
        model_options={"grid_size": grid_size},
    )


def scenario_mazur_mixture(m_max: int, grid_size: int = 64) -> Scenario:
    """Running averages of the oscillating family collapsing onto uniform.

    Convex averaging drives the total variation to zero, so the attainable
    error floor for the averaged families climbs to one.
    """
    return Scenario(
        name=f"mazur-mixture-m{m_max}",
        model_type="density",
        hypothesis=[DensitySpec.uniform()],
        alternative=[DensitySpec.one_plus_sine(i) for i in range(1, m_max + 1)],
        sim=SimParams(replications=2000),
        model_options={"grid_size": grid_size, "cesaro_scan": m_max},
    )


def scenario_kolmogorov_family(u_list: Sequence[float], n_grid: Sequence[int]) -> Scenario:
    """Piecewise-constant tilts of the uniform density, indexed by tilt size."""
    return Scenario(
        name="kolmogorov-family",
        model_type="density",
        hypothesis=[DensitySpec.uniform()],
        alternative=[DensitySpec.pu_family(u) for u in u_list],
        partition=Partition.half_split(),
        sim=SimParams(replications=4000, n_grid=n_grid),
        model_options={"grid_size": 64},
    )


def scenario_signal_detection(
    theta0: Sequence[Sequence[float]],
    theta1: Sequence[Sequence[float]],
    dimension: int,
    epsilon_list: Sequence[float],
) -> Scenario:
    """Finite signal sets in white noise, tested with linear statistics."""
    if any(np.shape(s) != (dimension,) for s in [*theta0, *theta1]):
        raise ValidationError(f"every signal must have dimension {dimension}")
    return Scenario(
        name="signal-detection",
        model_type="gaussian_sequence",
        hypothesis=theta0,
        alternative=theta1,
        sim=SimParams(replications=100000, epsilon_list=epsilon_list),
    )


def scenario_nested_alternatives(
    pieces: Sequence[FiniteMeasure],
    hypothesis: Optional[Sequence[FiniteMeasure]] = None,
    n_max: int = 2048,
    k_grid: Sequence[int] = (),
    replications: int = 1000,
) -> Scenario:
    """Nested unions of alternative pieces scheduled into one discernible sequence.

    The stored schedule holds each member's certificate from
    :func:`build_nested_family`: both error probabilities of member ``i`` are
    at most ``exp(-exponents[i] n)`` for every ``n > onsets[i]``, by the
    per-cell Chernoff–Hoeffding bound on its cell frequencies.
    """
    if not np.size(k_grid):
        k_grid = range(0, n_max + 1, max(1, n_max // 32))
    derived = Scenario(
        name=f"nested-alternatives-{len(pieces)}pieces",
        model_type="finite",
        hypothesis=hypothesis or [FiniteMeasure([0.5, 0.5])],
        alternative=pieces,
        schedule={},
        sim=SimParams(replications=replications, n_grid=(n_max,), k_grid=k_grid),
    )
    return replace(derived, schedule={
        "exponents": [m.exponent for m in derived.family],
        "onsets": [m.onset for m in derived.family],
    })


def scenario_poisson(
    h0: PoissonModel, h1: PoissonModel, n_grid: Sequence[int]
) -> Scenario:
    """Two-stage testing of a mean measure: atom count, then atom frequencies."""
    return Scenario(
        name="poisson-mean-measure",
        model_type="poisson",
        hypothesis=[h0],
        alternative=[h1],
        sim=SimParams(replications=4000, n_grid=n_grid),
    )


# -- test construction helpers ---------------------------------------------------------


def build_nested_family(
    hypothesis: Sequence[FiniteMeasure],
    pieces: Sequence[FiniteMeasure],
    exponents: Optional[Sequence[float]] = None,
    onsets: Optional[Sequence[int]] = None,
) -> list[TestFamilyMember]:
    """Certified test family for the nested unions of alternative pieces.

    Member ``i`` tests the hypothesis against pieces ``1..i`` with one
    nearest-set frequency test on the stacked piece vectors; the nearest piece
    is nearer than the hypothesis set iff some piece is. It errs on draws
    from its measure ``p`` only if a cell frequency lies ``t`` or more from
    ``p_j``, with ``t`` the :attr:`~.FrequencyTest.radius`, so each
    error is at most ``Σ exp(-n e)`` over the :func:`deviation_exponents`
    ``e`` of all its measures (the per-cell Chernoff–Hoeffding bound).
    ``(c, onset)`` is certified iff every ``e > c`` and
    ``Σ exp(-(onset + 1)(e - c)) <= 1``: the sum falls in ``n``, so both
    errors are at most ``exp(-c n)`` for every ``n > onset``. One rule derives
    and checks: ``c`` is ``CERTIFIED_FRACTION`` of the smallest ``e``
    (``PERFECT_EXPONENT_CAP`` when no term is left) and the onset the smallest
    the rule accepts, unless ``exponents`` (member ``i`` takes the smallest of
    the first ``i``) or ``onsets`` are given; empty means derived. Raises
    ``ConstructionError`` naming a piece without radius or with a derived ``c``
    that is not :func:`summable`, and ``ValidationError`` naming
    ``schedule.exponents`` and the member on such a given ``c`` or pair.
    """
    if len(pieces) == 0:
        raise ValidationError("at least one piece required")
    members = []
    for i in range(1, len(pieces) + 1):
        test = separation(hypothesis, pieces[:i], None)  # margins fall in i
        if test.radius <= 0.0:
            raise ConstructionError(f"piece {i} has zero separation margin")
        v0, v1 = test.hypothesis_vectors, test.alternative_vectors
        terms = deviation_exponents(np.vstack([v0, v1]), test.radius)
        if exponents:
            c = min(float(e) for e in exponents[:i])
        else:
            c = CERTIFIED_FRACTION * float(terms.min()) if terms.size else PERFECT_EXPONENT_CAP
        if not summable(c):
            where = f"schedule.exponents: member {i}" if exponents else f"piece {i}"
            error = ValidationError if exponents else ConstructionError
            raise error(f"{where} has exponent {c:.4g}; exp(-c) is not below 1: no summable bound")
        onset = int(onsets[i - 1]) if onsets else _first_onset(terms, c)
        if not _certifies(terms, c, onset):
            raise ValidationError(
                f"schedule.exponents and schedule.onsets: member {i} certifies "
                f"exp(-{c:.4g} n) from onset {onset}, which the per-cell bound does not "
                f"imply (smallest term exponent {terms.min():.4g})"
            )
        members.append(TestFamilyMember(test, exponent=c, onset=onset))
    return members


def _certifies(terms: np.ndarray, exponent: float, onset: int) -> bool:
    """Whether every term exceeds ``exponent`` and ``Σ exp(-(onset + 1)(e - exponent)) <= 1``."""
    return bool(np.all(terms > exponent)) and (
        float(np.exp(-(onset + 1) * (terms - exponent)).sum()) <= 1.0
    )


def _first_onset(terms: np.ndarray, exponent: float) -> int:
    """Smallest onset ``>= 1`` that :func:`_certifies` accepts, else 1."""
    if terms.size == 0 or terms.min() <= exponent:
        return 1
    # From ln(m) / (min e - exponent) on, each of the m terms is below 1/m.
    last = max(1, math.ceil(math.log(terms.size) / (terms.min() - exponent)))
    return 1 + bisect.bisect_left(
        range(1, last + 1), True, key=lambda onset: _certifies(terms, exponent, onset)
    )


def _check_schedules(scenario: Scenario) -> None:
    if not _MODEL_TYPES[scenario.model_type].schedules:
        raise ValidationError("schedules require finite-alphabet scenarios")


def scheduled(scenario: Scenario) -> Scenario:
    """``scenario`` with a schedule: its stored one, else an empty one whose
    exponents and onsets ``nested_schedule`` derives and certifies."""
    _check_schedules(scenario)
    return scenario if scenario.schedule is not None else replace(scenario, schedule={})


def _horizon(scenario: Scenario) -> int:
    """Longest sample path a schedule runs: the largest ``sim.n_grid`` entry, or 1024."""
    return max(scenario.sim.n_grid) if scenario.sim.n_grid else 1024


def nested_schedule(scenario: Scenario) -> TestSchedule:
    """Interleaved schedule for a nested-alternatives scenario, up to its horizon."""
    _check_schedules(scenario)
    return interleave(scenario.family, _horizon(scenario))


def bound_families(scenario: Scenario) -> tuple[Sequence, Sequence]:
    """The finite hypothesis and alternative families whose hull distance is
    the scenario's error floor."""
    families = _MODEL_TYPES[scenario.model_type].bound
    if families is None:
        supported = " or ".join(name for name, row in _MODEL_TYPES.items() if row.bound)
        raise ValidationError(f"bound requires {supported} models")
    return families(scenario)


# -- execution ---------------------------------------------------------------------


@dataclass(frozen=True)
class Table:
    columns: list
    rows: list


@dataclass(frozen=True)
class ScenarioRun:
    tables: dict
    reports: dict  # JSON-ready side reports (hull mixtures, schedules)


def _grid_margin(scenario: Scenario, alt) -> float:
    """Separation margin recomputed on the discretized path, when grid aligns."""
    grid_size = scenario.model_options.get("grid_size")
    if grid_size is None or scenario.partition is None:
        return math.nan
    groups = []
    for lo, hi in scenario.partition.cells:
        lo_idx, hi_idx = lo * grid_size, hi * grid_size
        if abs(lo_idx - round(lo_idx)) > 1e-9 or abs(hi_idx - round(hi_idx)) > 1e-9:
            return math.nan
        groups.append(list(range(int(round(lo_idx)), int(round(hi_idx)))))
    atom_partition = Partition.atoms(groups)
    h = [discretize(m, grid_size) for m in scenario.hypothesis]
    return separation(h, [discretize(alt, grid_size)], atom_partition).margin


def run_scenario(
    scenario: Scenario,
    seed: int,
    replications: Optional[int] = None,
    workers: int = 1,
) -> ScenarioRun:
    """Execute every metric the scenario supports; deterministic per seed.

    Every Monte Carlo call of the run shares one :class:`WorkerPool`, which
    starts on first use and is shut down before this returns or raises.
    """
    given = scenario.sim.replications if replications is None else replications
    reps = _integer(given, "replications", MIN_REPLICATIONS)
    # One disjoint stream range per simulation task, taken in code order.
    streams = map(RngSpec(seed).task, itertools.count())
    run = ScenarioRun(tables={}, reports={})
    with WorkerPool(workers) as pool:
        _MODEL_TYPES[scenario.model_type].run(scenario, run, reps, streams, pool)
    if not run.tables:
        raise ValidationError(
            f"scenario {scenario.name!r} supports no metrics (missing partition/grids?)"
        )
    return run


def _finite_tables(scenario, run, reps, streams, pool) -> None:
    if scenario.partition is not None:
        run.tables["separation"] = _separation_table(
            scenario, lambda idx, alt: (f"alternative_{idx}", math.nan)
        )
    if scenario.schedule is not None:
        schedule = nested_schedule(scenario)
        run.reports["schedule"] = schedule.to_json_dict()
        run.tables["discernibility"] = _discernibility_table(
            scenario, schedule, reps, streams, pool
        )


def _density_tables(scenario, run, reps, streams, pool) -> None:
    if scenario.partition is not None:
        run.tables["separation"] = _separation_table(
            scenario, lambda idx, alt: (alt.label(), _grid_margin(scenario, alt))
        )
    run.tables["ks"] = _ks_table(scenario)
    hull = None
    if scenario.model_options.get("grid_size"):
        run.tables["hull"], run.reports["hull"], hull = _hull_metrics(scenario)
    if scenario.model_options.get("cesaro_scan"):
        run.tables["cesaro"] = _cesaro_table(scenario, hull)
    if scenario.partition is not None and scenario.sim.n_grid:
        run.tables["errors"] = _error_curve_table(scenario, reps, streams, pool)


def _poisson_tables(scenario, run, reps, streams, pool) -> None:
    run.tables["poisson_errors"] = _poisson_table(scenario, reps, streams, pool)


def _signal_tables(scenario, run, reps, streams, pool) -> None:
    run.tables["epsilon_sweep"] = _epsilon_table(scenario, reps, streams, pool)
    run.tables["projection"] = _projection_table(scenario)


def _separation_table(scenario: Scenario, describe) -> Table:
    """Margin per alternative; ``describe(idx, alt)`` gives its label and grid margin."""
    hypothesis, alternative = scenario.cell_laws
    rows = []
    for idx, (alt, law) in enumerate(zip(scenario.alternative, alternative), start=1):
        label, grid_margin = describe(idx, alt)
        rows.append((idx, label, separation(hypothesis, [law], None).margin, grid_margin))
    return Table(columns=["index", "model", "margin", "margin_grid"], rows=rows)


def _ks_table(scenario: Scenario) -> Table:
    base = scenario.hypothesis[0]
    ks = ks_distances([(alt, base) for alt in scenario.alternative])
    rows = [
        (idx, alt.label(), d)
        for idx, (alt, d) in enumerate(zip(scenario.alternative, ks), start=1)
    ]
    return Table(columns=["index", "model", "ks_distance"], rows=rows)


def _hull_metrics(scenario: Scenario):
    grid_size = scenario.model_options["grid_size"]
    hull = hull_variation(*_discretized(scenario))
    table = Table(
        columns=["grid_size", "hull_value", "kraft_bound", "lp_iterations"],
        rows=[(grid_size, hull.value, 1.0 - hull.value, hull.iterations)],
    )
    report = {
        "grid_size": grid_size,
        "value": hull.value,
        "kraft_bound": 1.0 - hull.value,
        "mixture_p": [float(x) for x in hull.mixture_p],
        "mixture_q": [float(x) for x in hull.mixture_q],
        "lp_iterations": hull.iterations,
        "duality_gap": hull.duality_gap,
    }
    return table, report, hull


def _cesaro_table(scenario: Scenario, scenario_hull) -> Table:
    """Mixture and hull floors of uniform against ``one_plus_sine`` 1..m.

    Rows 1..m-1 take their hull LPs from one scan that grows a row at a time.
    ``scenario_hull``, the scenario's hull LP at its ``grid_size`` or None,
    is the last row's LP when the scenario is uniform against that prefix;
    otherwise the last row solves its own."""
    m_max = scenario.model_options["cesaro_scan"]
    grid_size = scenario.model_options.get("grid_size", 64)
    uniform = DensitySpec.uniform()
    disc_uniform = [discretize(uniform, grid_size)]
    sines = [DensitySpec.one_plus_sine(i) for i in range(1, m_max + 1)]
    if scenario.hypothesis != (uniform,) or scenario.alternative != tuple(sines):
        scenario_hull = None
    disc_sines = [discretize(s, grid_size) for s in sines]
    tvs = density_total_variations(
        [(DensitySpec.cesaro_mixture(m), uniform) for m in range(1, m_max + 1)]
    )
    hulls = hull_variation_prefixes(disc_uniform, disc_sines[:-1]) if m_max > 1 else []
    hulls.append(scenario_hull or hull_variation(disc_uniform, disc_sines))
    rows = [
        (m, tv, 1.0 - tv, hull.value, 1.0 - hull.value)
        for m, (tv, hull) in enumerate(zip(tvs, hulls), start=1)
    ]
    return Table(
        columns=["m", "tv_mixture", "kraft_mixture", "hull_value", "kraft_hull"],
        rows=rows,
    )


def _error_columns(test, alpha_exact, beta_exact, hypothesis, alternative, n, reps, streams, pool):
    """The :data:`ERROR_COLUMNS` of one row: the Monte Carlo type I error of
    ``test`` under ``hypothesis``, then its type II error under
    ``alternative``, each on the run's next stream, next to the exact values."""
    row = ()
    for exact, model, role in (
        (alpha_exact, hypothesis, "hypothesis"),
        (beta_exact, alternative, "alternative"),
    ):
        report = estimate_error(test, model, n, reps, next(streams), role=role, workers=pool)
        row += (exact, report.estimate, report.lo, report.hi)
    return row + (row[1] + row[5],)


def _error_curve_table(scenario, reps, streams, pool) -> Table:
    hypothesis, alternative = scenario.cell_laws
    rows = []
    for idx, (alt, law) in enumerate(zip(scenario.alternative, alternative), start=1):
        label = alt.label()
        test = separation(hypothesis, [law], None)
        if test.radius <= 0.0:
            for n in scenario.sim.n_grid:
                rows.append((idx, label, n) + (math.nan,) * (len(ERROR_COLUMNS) + 1))
            continue
        for n in scenario.sim.n_grid:
            worst = 0  # the simulated hypothesis: the first, or the one attaining alpha_exact
            try:
                errors = exact_errors(test, [*hypothesis, law], n)
                alphas = [alpha for alpha, _ in errors[:-1]]
                beta_exact = errors[-1][1]
                worst = int(np.argmax(alphas))
                alpha_exact = alphas[worst]
            except ResourceLimitError:
                alpha_exact = beta_exact = math.nan
            columns = _error_columns(
                test, alpha_exact, beta_exact, hypothesis[worst], law, n, reps, streams, pool
            )
            # total_exact is NaN when enumeration exceeds its budget
            rows.append((idx, label, n) + columns + (alpha_exact + beta_exact,))
    return Table(columns=["index", "model", "n", *ERROR_COLUMNS, "total_exact"], rows=rows)


def _epsilon_table(scenario, reps, streams, pool) -> Table:
    """Per noise level, the largest exact total over the signal pairs, and
    Monte Carlo errors of the pair that attains it (the first on ties)."""
    pairs = [
        (LinearFunctionalTest(functional=s1 - s0, base=s0), s0, s1)
        for s0 in scenario.hypothesis
        for s1 in scenario.alternative
    ]
    rows = []
    for eps in scenario.sim.epsilon_list:
        errors = [test.error(eps) for test, _, _ in pairs]
        worst = int(np.argmax(errors))
        test, s0, s1 = pairs[worst]
        error = errors[worst]
        columns = _error_columns(
            test, error, error, GaussianSequenceModel(s0, eps), GaussianSequenceModel(s1, eps),
            1, reps, streams, pool,
        )
        rows.append((eps,) + columns + (error + error,))
    return Table(columns=["epsilon", *ERROR_COLUMNS, "total_analytic"], rows=rows)


def _projection_table(scenario) -> Table:
    s0s, s1s = scenario.hypothesis, scenario.alternative
    dimension = s0s[0].size
    full = min(float(np.abs(a - b).max()) for a in s0s for b in s1s)
    rows = []
    for m in range(1, dimension + 1):
        projected = min(float(np.abs(a[:m] - b[:m]).max()) for a in s0s for b in s1s)
        rows.append((m, projected, full, projected / full if full > 0 else math.nan))
    return Table(columns=["m", "margin_projected", "margin_full", "ratio"], rows=rows)


def _discernibility_table(scenario, schedule, reps, streams, pool) -> Table:
    """Certified tail and one replayed curve per hypothesis, then per piece, of its cell law."""
    k_grid = scenario.sim.k_grid or tuple(range(0, schedule.n_max + 1, 64))
    n_max = schedule.n_max
    models = [
        ("hypothesis" if idx == 1 else f"hypothesis_{idx}", h, "hypothesis")
        for idx, h in enumerate(scenario.cell_laws[0], start=1)
    ] + [
        (f"piece_{idx}", piece, "alternative")
        for idx, piece in enumerate(scenario.cell_laws[1], start=1)
    ]
    curves = [
        discernibility_paths(
            schedule, model, n_max, k_grid, reps, next(streams), role=role, workers=pool
        )
        for _, model, role in models
    ]
    rows = []
    for j, k in enumerate(k_grid):
        tail = min(1.0, schedule.certified_tail(k))
        rows.append((k, tail) + tuple(float(c[j]) for c in curves))
    return Table(
        columns=["k", "certified_tail_clamped"] + [f"err_after_k_{l}" for l, _, _ in models],
        rows=rows,
    )


def _poisson_table(scenario, reps, streams, pool) -> Table:
    """Per ``n``, the count stage's rate and bound, and Monte Carlo errors of
    the two-stage test; its exact errors are not computed yet (NaN)."""
    h0: PoissonModel = scenario.hypothesis[0]
    h1: PoissonModel = scenario.alternative[0]
    shapes = separation(*scenario.cell_laws, None)
    freq_test = shapes if shapes.radius > 0.0 else None
    rows = []
    for n in scenario.sim.n_grid:
        rate, bound = poisson_count_threshold(h0.mass, n, target=1.0 / (n * n))
        test = PoissonTwoStageTest(
            n=n, mass0=h0.mass, deviation_rate=rate, frequency_test=freq_test
        )
        columns = _error_columns(test, math.nan, math.nan, h0, h1, n, reps, streams, pool)
        rows.append((n, rate, min(1.0, bound)) + columns)
    return Table(columns=["n", "deviation_rate", "count_stage_bound", *ERROR_COLUMNS], rows=rows)


# -- model types -------------------------------------------------------------------


class _ModelType(NamedTuple):
    """One value of a scenario's ``model.type``: how its models are read,
    written and checked, and which metrics and commands it supports."""

    model: type  # class of every hypothesis and alternative member
    read: Callable  # JSON model entry -> model; KeyError names a missing key
    write: Callable  # model -> JSON model entry
    check: Callable  # Scenario -> None; raises on a scenario the type cannot run
    partition: Optional[str]  # kind of Partition its cells give; None: takes no partition
    run: Callable  # (scenario, run, reps, streams, pool) adds the metric tables to run
    bound: Optional[Callable]  # Scenario -> finite (h, a) families for bound; None: no bound
    schedules: bool  # whether a file may hold a schedule, and the schedule command applies
    options: tuple  # the model options (keys of _MODEL_OPTIONS) and sim lists its metrics read


def _model_type(name) -> _ModelType:
    if not isinstance(name, str) or name not in _MODEL_TYPES:
        raise ValidationError(f"unknown model type {name!r}")
    return _MODEL_TYPES[name]


def _check_finite(scenario: Scenario) -> None:
    family_weights(*scenario.cell_laws)  # one alphabet, the partition's if there is one
    k_grid, n_max = list(scenario.sim.k_grid), _horizon(scenario)
    if k_grid != sorted(k_grid) or any(not 0 <= k <= n_max for k in k_grid):
        raise ValidationError(
            f"sim.k_grid must be sorted and within [0, {n_max}], the schedule horizon "
            "(the largest sim.n_grid entry, or 1024)"
        )
    pieces = len(scenario.alternative)
    for key, values in (scenario.schedule or {}).items():
        if values and len(values) != pieces:  # an empty list is derived
            raise ValidationError(
                f"schedule.{key} must have one entry per alternative piece ({pieces}), "
                f"got {len(values)}"
            )
    if any((scenario.schedule or {}).values()):  # stored certificates are checked, not trusted
        scenario.family


def _check_poisson(scenario: Scenario) -> None:
    if len(scenario.hypothesis) != 1 or len(scenario.alternative) != 1:
        raise ValidationError("a Poisson scenario has exactly one hypothesis and one alternative")
    shapes = separation(*scenario.cell_laws, None)
    same_mass = abs(scenario.hypothesis[0].mass - scenario.alternative[0].mass) <= 1e-12
    if same_mass and shapes.radius <= 0.0:
        raise DegenerateScenarioError("hypothesis and alternative mean measures coincide")


def _check_signals(scenario: Scenario) -> None:
    sizes = sorted({s.size for s in scenario.hypothesis + scenario.alternative})
    if len(sizes) != 1:
        raise ValidationError(f"signals must share one dimension, got {sizes}")
    pairs = [(a, b) for a in scenario.hypothesis for b in scenario.alternative]
    if min(np.abs(np.subtract(a, b)).max() for a, b in pairs) <= 0.0:
        raise ConstructionError("signal sets are not separated (zero sup-norm margin)")


def _discretized(scenario: Scenario) -> tuple[list, list]:
    """Both density families on the ``grid_size`` grid (64 when unset)."""
    grid_size = scenario.model_options.get("grid_size", 64)
    return (
        [discretize(m, grid_size) for m in scenario.hypothesis],
        [discretize(m, grid_size) for m in scenario.alternative],
    )


_MODEL_TYPES = {
    "finite": _ModelType(
        model=FiniteMeasure,
        read=lambda obj: FiniteMeasure(obj["weights"]),
        write=lambda m: {"weights": [float(w) for w in m.weights]},
        check=_check_finite,
        partition="atoms",
        run=_finite_tables,
        bound=lambda scenario: (scenario.hypothesis, scenario.alternative),
        schedules=True,
        options=("n_grid", "k_grid"),
    ),
    "density": _ModelType(
        model=DensitySpec,
        read=DensitySpec.from_json,
        write=DensitySpec.to_json,
        check=lambda scenario: None,
        partition="intervals",
        run=_density_tables,
        bound=_discretized,
        schedules=False,
        options=(*_MODEL_OPTIONS, "n_grid"),
    ),
    "poisson": _ModelType(
        model=PoissonModel,
        read=lambda obj: PoissonModel(obj["mass"], FiniteMeasure(_reals(obj["shape"], "shape"))),
        write=lambda m: {"mass": m.mass, "shape": [float(w) for w in m.shape.weights]},
        check=_check_poisson,
        partition=None,
        run=_poisson_tables,
        bound=None,
        schedules=False,
        options=("n_grid",),
    ),
    "gaussian_sequence": _ModelType(
        model=np.ndarray,  # the signal; its noise levels come from sim.epsilon_list
        read=lambda obj: obj["signal"],  # the constructor keeps a read-only copy
        write=lambda s: {"signal": [float(v) for v in s]},
        check=_check_signals,
        partition=None,
        run=_signal_tables,
        bound=None,
        schedules=False,
        options=("epsilon_list",),
    ),
}
