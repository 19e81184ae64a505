import copy
import dataclasses
import json
import math
import pickle
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from consistency_lab.distances import hull_variation, total_variation
from consistency_lab.errors import ValidationError
from consistency_lab.measures import (
    DensitySpec,
    FiniteMeasure,
    GaussianSequenceModel,
    Partition,
    PoissonModel,
    discretize,
    family_weights,
    frozen,
    mixture,
    normalize,
)
from consistency_lab.partition_tests import FrequencyTest, LinearFunctionalTest, separation
from consistency_lab.reports import scenario_hash
from consistency_lab.scenarios import (
    Scenario,
    scenario_from_dict,
    scenario_signal_detection,
)
from quadrature_oracle import integrate, mass_quadrature, oscillation_depth


def test_normalize_examples():
    assert_allclose(normalize([2, 2]).weights, [0.5, 0.5])
    assert_allclose(normalize([1, 0, 0]).weights, [1, 0, 0])
    assert_allclose(normalize([0.3, 0.45, 0.75]).weights, [0.2, 0.3, 0.5])


@pytest.mark.parametrize("bad", [[0, 0], [-1, 2], [np.nan, 1], [np.inf, 1], []])
def test_normalize_rejects_bad_input(bad):
    with pytest.raises(ValidationError):
        normalize(bad)


@pytest.mark.parametrize(
    "bad, message",
    [
        ([], "weights must be a nonempty 1-D vector"),
        ([[0.5, 0.5]], "weights must be a nonempty 1-D vector"),
        ([np.nan, 1.0], "weights must be finite"),
        ([-0.5, 1.5], "weights must be nonnegative"),
    ],
)
def test_finite_measure_and_normalize_share_one_weight_check(bad, message):
    for build in (FiniteMeasure, normalize):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build(bad)
    with pytest.raises(ValidationError, match="^at least one weight must be positive$"):
        normalize([0.0, 0.0])


def test_finite_measure_invariants_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        k = rng.integers(1, 8)
        m = normalize(rng.random(k) + 1e-12)
        assert np.all(m.weights >= 0)
        assert abs(m.weights.sum() - 1.0) <= 1e-12


def test_finite_measure_rejects_bad_sum():
    with pytest.raises(ValidationError):
        FiniteMeasure([0.5, 0.6])


def test_finite_measure_immutable():
    m = FiniteMeasure([0.5, 0.5])
    with pytest.raises(ValueError):
        m.weights[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.weights = np.array([0.9, 0.1])
    for copied in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
        assert copied == m and hash(copied) == hash(m)
        assert not copied.weights.flags.writeable


def test_frozen_is_a_read_only_float_copy():
    given = np.array([1, 2])
    kept = frozen(given, ndmin=2)
    assert kept.shape == (1, 2) and kept.dtype == float
    assert not kept.flags.writeable and given.flags.writeable
    assert not np.shares_memory(kept, given)
    already = frozen([0.5])
    assert frozen(already) is not already


#: name -> (build a value from the caller's array, the value's copies of it, entries)
_KEEPERS = {
    "FiniteMeasure": (FiniteMeasure, lambda m: [m.weights], [0.25, 0.75]),
    "FrequencyTest": (
        lambda a: FrequencyTest(a, a[::-1]),
        lambda t: [t.hypothesis_vectors, t.alternative_vectors],
        [0.25, 0.75],
    ),
    "LinearFunctionalTest": (
        lambda a: LinearFunctionalTest(functional=a, base=a),
        lambda t: [t.functional, t.base],
        [0.25, 0.75],
    ),
    "GaussianSequenceModel": (
        lambda a: GaussianSequenceModel(a, 1.0), lambda m: [m.signal], [0.0, 0.5],
    ),
    "scenario_signal_detection": (
        lambda a: scenario_signal_detection([a], [[1.0, 1.0]], 2, [0.5]),
        lambda s: [s.hypothesis[0]],
        [0.0, 0.5],
    ),
}


@pytest.mark.parametrize("case", sorted(_KEEPERS))
def test_constructors_keep_read_only_copies_of_the_callers_arrays(case):
    build, kept, entries = _KEEPERS[case]
    given = np.array(entries)
    value = build(given)
    before = [a.copy() for a in kept(value)]
    assert given.flags.writeable
    assert not any(a.flags.writeable for a in kept(value))
    given[0] = 1.0  # a later write to the caller's array does not reach the value
    assert all(np.array_equal(a, b) for a, b in zip(kept(value), before))


#: name -> (a value that keeps arrays, its arrays)
_KEPT = {
    **{name: (build(np.array(entries)), kept) for name, (build, kept, entries) in _KEEPERS.items()},
    "separation": (
        separation([FiniteMeasure([0.5, 0.5])], [FiniteMeasure([0.9, 0.1])], None),
        lambda t: [t.hypothesis_vectors, t.alternative_vectors],
    ),
}


@pytest.mark.parametrize("case", sorted(_KEPT))
@pytest.mark.parametrize(
    "copy_of", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
def test_copies_keep_read_only_arrays(case, copy_of):
    """numpy restores an array writable; every value stores it read-only again."""
    value, kept = _KEPT[case]
    copied = copy_of(value)
    assert type(copied) is type(value)
    for original, restored in zip(kept(value), kept(copied), strict=True):
        assert not original.flags.writeable and not restored.flags.writeable
        assert np.array_equal(original, restored) and original.dtype == restored.dtype


@pytest.mark.parametrize(
    "copy_of", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
def test_copies_keep_the_separation_margin(copy_of):
    """A copy keeps the margin its constructor computed, and with it the radius."""
    test, _ = _KEPT["separation"]
    copied = copy_of(test)
    assert (copied.margin, copied.witness_pair, copied.radius) == (
        test.margin, test.witness_pair, test.radius
    )
    assert test.margin == 0.4 and test.witness_pair == (0, 0) and test.radius > 0.0


def test_finite_measure_hashes_as_it_compares():
    plus, minus = FiniteMeasure([0.5, 0.5, 0.0]), FiniteMeasure([0.5, 0.5, -0.0])
    assert np.signbit(minus.weights[2]) and not np.signbit(plus.weights[2])
    assert plus == minus and hash(plus) == hash(minus)
    assert len({plus, minus}) == 1


def test_density_validation():
    with pytest.raises(ValidationError):
        DensitySpec.one_plus_sine(0)
    with pytest.raises(ValidationError):
        DensitySpec.pu_family(1.0)
    with pytest.raises(ValidationError):
        DensitySpec.pu_family(-0.1)
    with pytest.raises(ValidationError):
        DensitySpec("mystery")


def test_density_nonnegative_and_normalized():
    x = np.linspace(1e-9, 1 - 1e-9, 4001)
    for spec in [
        DensitySpec.uniform(),
        DensitySpec.one_plus_sine(3),
        DensitySpec.cesaro_mixture(7),
        DensitySpec.pu_family(0.9),
    ]:
        assert np.all(spec.pdf(x) >= -1e-12)
        assert abs(spec.cell_law(Partition.half_split()).weights.sum() - 1.0) <= 1e-12


def test_induced_vector_uniform_half_split():
    v = DensitySpec.uniform().cell_law(Partition.half_split()).weights
    assert_allclose(v, [0.5, 0.5])


def test_induced_vector_sine_against_quadrature_oracle():
    # cell masses verified against adaptive Simpson as an independent route
    half = Partition.half_split()
    spec1 = DensitySpec.one_plus_sine(1)
    v = spec1.cell_law(half).weights
    assert_allclose(v, [0.5 + 1 / math.pi, 0.5 - 1 / math.pi], atol=1e-12)
    assert abs(v[0] - mass_quadrature(spec1, 0.0, 0.5)) < 1e-9

    spec2 = DensitySpec.one_plus_sine(2)
    v2 = spec2.cell_law(half).weights
    assert_allclose(v2, [0.5, 0.5], atol=1e-12)
    assert abs(mass_quadrature(spec2, 0.0, 0.5) - 0.5) < 1e-9


def test_quadrature_matches_closed_form_cells():
    rng = np.random.default_rng(3)
    specs = [
        DensitySpec.one_plus_sine(8),
        DensitySpec.one_plus_sine(32),
        DensitySpec.cesaro_mixture(5),
        DensitySpec.pu_family(0.4),
    ]
    for spec in specs:
        for _ in range(5):
            a, b = np.sort(rng.random(2))
            if b - a < 1e-3:
                continue
            mass = spec.cell_law(Partition.intervals([0.0, a, b, 1.0])).weights[1]
            assert abs(mass - mass_quadrature(spec, a, b)) < 1e-9


def test_quadrature_rejects_empty_interval_and_depth():
    with pytest.raises(ValueError):
        integrate(lambda x: x, 0.5, 0.5)
    assert oscillation_depth(16) >= 7


def test_quadrature_does_not_alias_oscillations():
    # all dyadic nodes of sin(2*pi*8*x) vanish; forced depth must recover 2/pi
    val = integrate(lambda x: abs(math.sin(2 * math.pi * 8 * x)), 0.0, 1.0,
                    min_depth=oscillation_depth(8))
    assert abs(val - 2 / math.pi) < 1e-9


def test_discretize_examples():
    assert_allclose(discretize(DensitySpec.uniform(), 4).weights, [0.25] * 4)
    assert_allclose(discretize(DensitySpec.pu_family(0.5), 2).weights, [0.25, 0.75])
    assert_allclose(
        discretize(DensitySpec.one_plus_sine(1), 2).weights,
        DensitySpec.one_plus_sine(1).cell_law(Partition.half_split()).weights,
    )
    with pytest.raises(ValidationError):
        discretize(DensitySpec.uniform(), 1)


def test_discretize_then_identity_partition_is_identity():
    rng = np.random.default_rng(11)
    for spec in [DensitySpec.one_plus_sine(3), DensitySpec.pu_family(0.3)]:
        g = int(rng.integers(2, 40))
        m = discretize(spec, g)
        assert_allclose(m.cell_law(Partition.identity(g)).weights, m.weights)


def test_induced_vector_affine_in_the_measure():
    rng = np.random.default_rng(5)
    part = Partition.atoms([[0, 2], [1], [3]])
    for _ in range(50):
        p = normalize(rng.random(4))
        q = normalize(rng.random(4))
        lam = rng.random()
        mix = mixture([p, q], [lam, 1 - lam])
        left = mix.cell_law(part).weights
        right = lam * p.cell_law(part).weights + (1 - lam) * q.cell_law(part).weights
        assert_allclose(left, right, atol=1e-12)


def test_induced_vector_components_sum_to_one():
    part = Partition.intervals([0.0, 0.25, 0.7, 1.0])
    for spec in [DensitySpec.one_plus_sine(5), DensitySpec.cesaro_mixture(4)]:
        v = spec.cell_law(part).weights
        assert abs(v.sum() - 1.0) <= 1e-9
        assert np.all(v >= 0)


def test_high_frequency_margins_vanish():
    # per-cell gap from uniform is bounded by 1/(pi*i) on any fixed partition
    part = Partition.intervals([0.0, 0.3, 0.55, 0.8, 1.0])
    base = DensitySpec.uniform().cell_law(part).weights
    for i in (8, 16, 32):
        v = DensitySpec.one_plus_sine(i).cell_law(part).weights
        assert np.abs(v - base).max() <= 1 / (math.pi * i) + 1e-12


def test_partition_validation():
    with pytest.raises(ValidationError):
        Partition.intervals([0.0, 1.0])  # one cell
    with pytest.raises(ValidationError):
        Partition.intervals([0.1, 0.5, 1.0])  # does not start at 0
    with pytest.raises(ValidationError):
        Partition.intervals([0.0, 0.6, 0.4, 1.0])  # not increasing
    with pytest.raises(ValidationError):
        Partition.atoms([[0], [2]])  # misses atom 1
    with pytest.raises(ValidationError):
        Partition.atoms([[0, 1], [1, 2]])  # overlap
    with pytest.raises(ValidationError):
        Partition.identity(1)


@pytest.mark.parametrize(
    "kind, cells, message",
    [
        ("intervals", [(0.0, 1.0)], "a partition needs at least 2 cells"),
        ("atoms", [[0, 1]], "a partition needs at least 2 cells"),
        ("intervals", [(0.0, 0.6), (0.4, 1.0)], "interval cells must be increasing and contiguous"),
        ("intervals", [(0.0, 1.0), (1.0, 1.0)], "interval cells must be increasing and contiguous"),
        ("intervals", [(0.1, 0.5), (0.5, 1.0)], "interval cells must cover (0, 1)"),
        ("cells", [[0], [1]], "unknown partition kind 'cells'"),
    ],
    ids=["one-interval", "one-group", "overlap", "empty-last-cell", "gap-at-0", "kind"],
)
def test_partition_messages(kind, cells, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        Partition(kind, cells)


def test_partition_is_its_cells():
    assert Partition.atoms([[0], [1]]) == Partition.identity(2)
    assert hash(Partition.atoms([(0,), (1,)])) == hash(Partition.identity(2))
    assert Partition.intervals(np.array([0, 0.5, 1])) == Partition.half_split()
    assert Partition.half_split() != Partition.intervals([0.0, 0.25, 1.0])
    assert Partition.atoms([[0, 3], [1], [2]]).alphabet_size == 4
    assert Partition.half_split().alphabet_size == 0
    partition = Partition.half_split()
    assert pickle.loads(pickle.dumps(partition)) == partition
    with pytest.raises(dataclasses.FrozenInstanceError):
        partition.cells = ((0.0, 1.0),)
    with pytest.raises(TypeError):
        Partition.atoms([[0], [1]], alphabet_size=2)


def test_induced_vector_incompatible_pairs():
    """Each model gives its own cell law, and refuses a partition of another kind or alphabet."""
    shape = FiniteMeasure([0.5, 0.25, 0.25])
    for model, partition, message in (
        (DensitySpec.uniform(), Partition.identity(2), "density models need an interval partition"),
        (DensitySpec.uniform(), None, "density models need an interval partition"),
        (shape, Partition.half_split(), "finite measures need an atom partition"),
        (shape, Partition.identity(2), "partition covers 2 atoms, measure has 3"),
        (PoissonModel(1.0, shape), Partition.identity(4), "partition covers 4 atoms, measure has 3"),
    ):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            model.cell_law(partition)
    cells = Partition.atoms([[0, 2], [1]])
    assert PoissonModel(1.0, shape).cell_law(cells) == shape.cell_law(cells) == FiniteMeasure([0.75, 0.25])
    assert PoissonModel(1.0, shape).cell_law(None) is shape.cell_law(None) is shape


def test_family_weights_is_the_one_family_check():
    two, three = FiniteMeasure([0.5, 0.5]), FiniteMeasure([0.2, 0.3, 0.5])
    hypothesis, alternative = family_weights([two, FiniteMeasure([0.9, 0.1])], [two])
    assert_allclose(hypothesis, [[0.5, 0.5], [0.9, 0.1]])
    assert_allclose(alternative, [[0.5, 0.5]])
    with pytest.raises(ValidationError, match="^families must be nonempty$"):
        family_weights([two], [])
    mixed = re.escape("families live on different alphabets: [2, 3]")
    for check in (
        lambda: family_weights([two], [three]),
        lambda: mixture([two, three], [0.5, 0.5]),
        lambda: total_variation(two, three),
        lambda: hull_variation([two], [three]),
    ):
        with pytest.raises(ValidationError, match=f"^{mixed}$"):
            check()


def test_quantile_inverts_cdf():
    rng = np.random.default_rng(13)
    u = rng.random(500)
    for spec in [
        DensitySpec.uniform(),
        DensitySpec.pu_family(0.6),
        DensitySpec.one_plus_sine(4),
        DensitySpec.cesaro_mixture(3),
    ]:
        x = spec.quantile(u)
        assert_allclose(spec.cdf(x), u, atol=1e-10)


# -- the per-kind table against the per-kind formulas -------------------------------------

_TWO_PI = 2.0 * math.pi


def _reference_density(kind, param):
    """``(pdf, cdf, quantile)`` of a kind as one formula each, in its own arithmetic order."""
    if kind == "uniform":
        return np.ones_like, np.copy, np.copy
    if kind == "one_plus_sine":
        i = param
        return (
            lambda x: 1.0 + np.sin(_TWO_PI * i * x),
            lambda x: x + (1.0 - np.cos(_TWO_PI * i * x)) / (_TWO_PI * i),
            None,
        )
    if kind == "cesaro_mixture":
        def pdf(x):
            total = np.zeros_like(x)
            for j in range(1, param + 1):
                total += np.sin(_TWO_PI * j * x)
            return 1.0 + total / param

        def cdf(x):
            total = np.zeros_like(x)
            for j in range(1, param + 1):
                total += (1.0 - np.cos(_TWO_PI * j * x)) / (_TWO_PI * j)
            return x + total / param

        return pdf, cdf, None
    u = param
    half_mass = 0.5 * (1.0 - u)
    return (
        lambda x: np.where(x <= 0.5, 1.0 - u, 1.0 + u),
        lambda x: np.where(x <= 0.5, (1.0 - u) * x, half_mass + (1.0 + u) * (x - 0.5)),
        lambda v: np.where(v <= half_mass, v / (1.0 - u), 0.5 + (v - half_mass) / (1.0 + u)),
    )


def _reference_bisection(cdf, v):
    lo, hi = np.zeros_like(v), np.ones_like(v)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        under = cdf(mid) < v
        lo, hi = np.where(under, mid, lo), np.where(under, hi, mid)
    return 0.5 * (lo + hi)


EVERY_KIND = (
    [DensitySpec.uniform()]
    + [DensitySpec.one_plus_sine(i) for i in (1, 2, 3, 64, 1000)]
    + [DensitySpec.cesaro_mixture(m) for m in (1, 2, 8, 200)]
    + [DensitySpec.pu_family(u) for u in (0.0, 0.2, 1 / 3, 0.4, 0.6, 0.99)]
)


@pytest.mark.parametrize("spec", EVERY_KIND, ids=lambda s: s.label())
def test_density_table_equals_per_kind_formulas(spec):
    grid = np.concatenate([
        [0.0, 0.5, np.nextafter(0.5, 1.0), 1.0],
        np.linspace(0.0, 1.0, 257),
        np.random.default_rng(17).random(200),
    ])
    pdf, cdf, quantile = _reference_density(spec.kind, spec.param)
    assert np.array_equal(spec.pdf(grid), pdf(grid))
    assert np.array_equal(spec.cdf(grid), cdf(grid))
    if quantile is None:
        assert np.array_equal(spec.quantile(grid), _reference_bisection(cdf, grid))
    else:
        assert np.array_equal(spec.quantile(grid), quantile(grid))
    for x in (0.0, 0.3, 0.5, 1.0):
        assert spec.cdf(x) == cdf(np.asarray(x))


def test_density_labels():
    assert DensitySpec.uniform().label() == "uniform"
    assert DensitySpec.one_plus_sine(3).label() == "one_plus_sine(3)"
    assert DensitySpec.one_plus_sine(10**6).label() == "one_plus_sine(1000000)"
    assert DensitySpec.cesaro_mixture(8).label() == "cesaro_mixture(8)"
    assert DensitySpec.pu_family(0.2).label() == "pu_family(0.2)"
    assert DensitySpec.pu_family(1 / 3).label() == "pu_family(0.333333)"


@pytest.mark.parametrize("spec", EVERY_KIND, ids=lambda s: s.label())
def test_density_json_round_trip(spec):
    scenario = Scenario(name="x", model_type="density", hypothesis=[DensitySpec.uniform()],
                        alternative=[spec])
    data = scenario.to_json_dict()
    parsed = scenario_from_dict(json.loads(json.dumps(data)))
    assert parsed.alternative == (spec,)
    assert scenario_hash(parsed.to_json_dict()) == scenario_hash(data)


def test_density_parameters_normalized_or_rejected():
    assert DensitySpec.one_plus_sine(3.0) == DensitySpec.one_plus_sine(3)
    assert type(DensitySpec.cesaro_mixture(4.0).param) is int
    assert type(DensitySpec.pu_family(0).param) is float
    for kind, value in [
        ("one_plus_sine", 2.7), ("one_plus_sine", True), ("one_plus_sine", "3"),
        ("cesaro_mixture", 0), ("cesaro_mixture", math.inf), ("pu_family", "0.3"),
        ("pu_family", False), ("pu_family", math.nan), ("uniform", 1),
    ]:
        with pytest.raises(ValidationError, match=kind):
            DensitySpec(kind, value)
