import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from consistency_lab.errors import ValidationError
from consistency_lab.measures import (
    DensitySpec,
    FiniteMeasure,
    Partition,
    discretize,
    induced_vector,
    mixture,
    normalize,
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
        assert abs(spec.mass(0.0, 1.0) - 1.0) <= 1e-12


def test_induced_vector_uniform_half_split():
    v = induced_vector(DensitySpec.uniform(), Partition.half_split())
    assert_allclose(v, [0.5, 0.5])


def test_induced_vector_sine_against_quadrature_oracle():
    # cell masses verified against adaptive Simpson as an independent route
    half = Partition.half_split()
    spec1 = DensitySpec.one_plus_sine(1)
    v = induced_vector(spec1, half)
    assert_allclose(v, [0.5 + 1 / math.pi, 0.5 - 1 / math.pi], atol=1e-12)
    assert abs(v[0] - mass_quadrature(spec1, 0.0, 0.5)) < 1e-9

    spec2 = DensitySpec.one_plus_sine(2)
    v2 = induced_vector(spec2, half)
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
            assert abs(spec.mass(a, b) - mass_quadrature(spec, a, b)) < 1e-9


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
        induced_vector(DensitySpec.one_plus_sine(1), Partition.half_split()),
    )
    with pytest.raises(ValidationError):
        discretize(DensitySpec.uniform(), 1)


def test_discretize_then_identity_partition_is_identity():
    rng = np.random.default_rng(11)
    for spec in [DensitySpec.one_plus_sine(3), DensitySpec.pu_family(0.3)]:
        g = int(rng.integers(2, 40))
        m = discretize(spec, g)
        assert_allclose(induced_vector(m, Partition.identity(g)), m.weights)


def test_induced_vector_affine_in_the_measure():
    rng = np.random.default_rng(5)
    part = Partition.atoms([[0, 2], [1], [3]])
    for _ in range(50):
        p = normalize(rng.random(4))
        q = normalize(rng.random(4))
        lam = rng.random()
        mix = mixture([p, q], [lam, 1 - lam])
        left = induced_vector(mix, part)
        right = lam * induced_vector(p, part) + (1 - lam) * induced_vector(q, part)
        assert_allclose(left, right, atol=1e-12)


def test_induced_vector_components_sum_to_one():
    part = Partition.intervals([0.0, 0.25, 0.7, 1.0])
    for spec in [DensitySpec.one_plus_sine(5), DensitySpec.cesaro_mixture(4)]:
        v = induced_vector(spec, part)
        assert abs(v.sum() - 1.0) <= 1e-9
        assert np.all(v >= 0)


def test_high_frequency_margins_vanish():
    # per-cell gap from uniform is bounded by 1/(pi*i) on any fixed partition
    part = Partition.intervals([0.0, 0.3, 0.55, 0.8, 1.0])
    base = induced_vector(DensitySpec.uniform(), part)
    for i in (8, 16, 32):
        v = induced_vector(DensitySpec.one_plus_sine(i), part)
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


def test_induced_vector_incompatible_pairs():
    with pytest.raises(ValidationError):
        induced_vector(DensitySpec.uniform(), Partition.identity(2))
    with pytest.raises(ValidationError):
        induced_vector(FiniteMeasure([0.5, 0.5]), Partition.half_split())
    with pytest.raises(ValidationError):
        induced_vector(FiniteMeasure([0.5, 0.5]), Partition.identity(3))


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
