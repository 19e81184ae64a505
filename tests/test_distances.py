import itertools
import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from consistency_lab.distances import (
    _critical_point_sets,
    _gap_pieces,
    _series,
    _table,
    density_total_variation,
    density_total_variations,
    hull_variation,
    hull_variation_prefixes,
    kraft_bound,
    ks_distance,
    ks_distances,
    total_variation,
)
from consistency_lab.errors import NumericError, ValidationError
from consistency_lab.measures import DensitySpec, FiniteMeasure, discretize, mixture, normalize
from consistency_lab.simplex import solve_lp
from quadrature_oracle import density_total_variation_quadrature


def F(*weights):
    return FiniteMeasure(np.array(weights, dtype=float))


def brute_force_best_error_sum(p, q):
    """Minimum type I + type II error over all deterministic one-shot tests."""
    k = p.alphabet_size
    best = 2.0
    for mask in itertools.product([0, 1], repeat=k):
        rejection = np.array(mask, dtype=float)
        alpha = float(p.weights @ rejection)
        beta = float(q.weights @ (1 - rejection))
        best = min(best, alpha + beta)
    return best


# -- total variation ---------------------------------------------------------------


def test_total_variation_examples():
    assert total_variation(F(1, 0), F(0, 1)) == 1.0
    assert total_variation(F(0.3, 0.7), F(0.3, 0.7)) == 0.0
    assert_allclose(total_variation(F(0.5, 0.5), F(0.7, 0.3)), 0.2)


def test_total_variation_mismatched_sizes():
    with pytest.raises(ValidationError):
        total_variation(F(1, 0), F(1, 0, 0))


def test_total_variation_symmetry_and_zero_iff_equal():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = normalize(rng.random(4))
        q = normalize(rng.random(4))
        assert total_variation(p, q) == total_variation(q, p)
        assert total_variation(p, p) == 0.0
        if not np.array_equal(p.weights, q.weights):
            assert total_variation(p, q) > 0.0


# -- hull variation ---------------------------------------------------------------


def test_hull_variation_disjoint_atom():
    res = hull_variation([F(1, 0, 0)], [F(0, 1, 0), F(0, 0, 1)])
    assert_allclose(res.value, 1.0, atol=1e-9)


def test_hull_variation_midpoint():
    res = hull_variation([F(0.5, 0.5)], [F(1, 0), F(0, 1)])
    assert_allclose(res.value, 0.0, atol=1e-9)
    assert_allclose(res.mixture_q, [0.5, 0.5], atol=1e-9)


def test_hull_variation_matches_one_dimensional_sweep():
    # brute-force sweep over the alternative mixture weight, step 1e-4
    a = F(0.7, 0.2, 0.1)
    b1, b2 = F(0.2, 0.7, 0.1), F(0.2, 0.1, 0.7)
    sweep = min(
        total_variation(a, mixture([b1, b2], [lam, 1 - lam]))
        for lam in np.arange(0.0, 1.0 + 1e-12, 1e-4)
    )
    res = hull_variation([a], [b1, b2])
    assert_allclose(sweep, 0.5, atol=1e-9)
    assert_allclose(res.value, 0.5, atol=1e-8)


def test_hull_variation_result_consistency():
    rng = np.random.default_rng(1)
    for _ in range(30):
        A = [normalize(rng.random(3)) for _ in range(int(rng.integers(1, 4)))]
        B = [normalize(rng.random(3)) for _ in range(int(rng.integers(1, 4)))]
        res = hull_variation(A, B)
        assert 0.0 <= res.value <= 1.0
        assert abs(res.mixture_p.sum() - 1.0) <= 1e-9
        assert abs(res.mixture_q.sum() - 1.0) <= 1e-9
        mixed_p = mixture(A, res.mixture_p)
        mixed_q = mixture(B, res.mixture_q)
        assert abs(res.value - total_variation(mixed_p, mixed_q)) <= 1e-8
        # never larger than the best pure pair
        assert res.value <= min(
            total_variation(p, q) for p in A for q in B
        ) + 1e-9


def test_hull_variation_singletons_equal_total_variation():
    rng = np.random.default_rng(2)
    for _ in range(25):
        p = normalize(rng.random(4))
        q = normalize(rng.random(4))
        assert_allclose(
            hull_variation([p], [q]).value, total_variation(p, q), atol=1e-9
        )


def test_hull_variation_symmetric_and_monotone():
    rng = np.random.default_rng(3)
    for _ in range(10):
        A = [normalize(rng.random(3)) for _ in range(2)]
        B = [normalize(rng.random(3)) for _ in range(2)]
        extra = normalize(rng.random(3))
        ab = hull_variation(A, B).value
        ba = hull_variation(B, A).value
        assert_allclose(ab, ba, atol=1e-8)
        assert hull_variation(A, B + [extra]).value <= ab + 1e-8
        assert hull_variation(A + [extra], B).value <= ab + 1e-8


def test_hull_variation_validation():
    with pytest.raises(ValidationError):
        hull_variation([], [F(1, 0)])
    with pytest.raises(ValidationError):
        hull_variation([F(1, 0)], [F(1, 0, 0)])


def test_hull_variation_grid_oracle_small():
    # coarse simplex grid (step 0.02); the acceptance suite runs the 0.01 version
    rng = np.random.default_rng(4)

    def simplex_grid(count, ticks):
        if count == 1:
            return np.ones((1, 1))
        points = []

        def rec(prefix, left):
            if len(prefix) == count - 1:
                points.append(prefix + [left])
                return
            for t in range(left + 1):
                rec(prefix + [t], left - t)

        rec([], ticks)
        return np.array(points, dtype=float) / ticks

    for _ in range(10):
        k = int(rng.integers(2, 5))
        A = np.stack([rng.dirichlet(np.ones(k)) for _ in range(int(rng.integers(1, 4)))])
        B = np.stack([rng.dirichlet(np.ones(k)) for _ in range(int(rng.integers(1, 4)))])
        mix_a = simplex_grid(A.shape[0], 50) @ A
        mix_b = simplex_grid(B.shape[0], 50) @ B
        oracle = 0.5 * np.abs(mix_a[:, None, :] - mix_b[None, :, :]).sum(axis=2).min()
        value = hull_variation(
            [FiniteMeasure(r) for r in A], [FiniteMeasure(r) for r in B]
        ).value
        assert value <= oracle + 1e-9
        assert abs(value - oracle) <= 0.021


# -- Kraft bound and the attaining test -------------------------------------------


def test_kraft_bound_examples():
    p, q = F(0.7, 0.3), F(0.3, 0.7)
    assert_allclose(kraft_bound([p], [q]), 0.6, atol=1e-9)
    assert_allclose(brute_force_best_error_sum(p, q), 0.6, atol=1e-12)
    assert_allclose(kraft_bound([F(0.5, 0.5)], [F(0.5, 0.5)]), 1.0, atol=1e-9)
    assert_allclose(kraft_bound([F(1, 0)], [F(0, 1)]), 0.0, atol=1e-9)


def type1_error(phi: np.ndarray, p: FiniteMeasure) -> float:
    """Rejection probability of the randomized test ``phi`` on one draw from ``p``."""
    return float(p.weights @ phi)


def type2_error(phi: np.ndarray, q: FiniteMeasure) -> float:
    """Acceptance probability of the randomized test ``phi`` on one draw from ``q``."""
    return float(q.weights @ (1.0 - phi))


def test_optimal_test_examples():
    """Kraft's optimal test is the hull LP's ``phi``."""
    phi = hull_variation([F(0.7, 0.3)], [F(0.3, 0.7)]).phi
    assert_allclose(phi, [0, 1])
    assert_allclose(type1_error(phi, F(0.7, 0.3)), 0.3)
    assert_allclose(type2_error(phi, F(0.3, 0.7)), 0.3)

    phi2 = hull_variation([F(1, 0)], [F(0, 1)]).phi
    assert type1_error(phi2, F(1, 0)) == 0.0
    assert type2_error(phi2, F(0, 1)) == 0.0

    phi3 = hull_variation([F(0.4, 0.6)], [F(0.4, 0.6)]).phi
    assert_allclose(type1_error(phi3, F(0.4, 0.6)) + type2_error(phi3, F(0.4, 0.6)), 1.0)


def test_optimal_test_attains_kraft_bound_randomly():
    rng = np.random.default_rng(5)
    for _ in range(100):
        k = int(rng.integers(2, 5))
        p = normalize(rng.random(k))
        q = normalize(rng.random(k))
        phi = hull_variation([p], [q]).phi
        achieved = type1_error(phi, p) + type2_error(phi, q)
        floor = 1.0 - total_variation(p, q)
        assert abs(achieved - floor) <= 1e-9
        assert brute_force_best_error_sum(p, q) >= floor - 1e-12


# -- Kolmogorov-Smirnov distance ----------------------------------------------------


def test_ks_distance_tilt_family():
    # distribution-function gap is u*x below 1/2 and u*(1-x) above: peak u/2
    for u in (0.1, 0.4, 0.8):
        assert abs(ks_distance(DensitySpec.pu_family(u), DensitySpec.uniform()) - u / 2) < 1e-9


def test_ks_distance_self_is_zero():
    spec = DensitySpec.one_plus_sine(3)
    assert ks_distance(spec, spec) == 0.0


def test_ks_distance_sine_against_grid_oracle():
    # gap (1 - cos(2 pi x)) / (2 pi) peaks at x = 1/2 with value 1/pi
    xs = np.linspace(0, 1, 2_000_001)
    oracle = np.abs((1 - np.cos(2 * np.pi * xs)) / (2 * np.pi)).max()
    got = ks_distance(DensitySpec.one_plus_sine(1), DensitySpec.uniform())
    assert abs(oracle - 1 / math.pi) < 1e-12
    assert abs(got - 1 / math.pi) < 1e-9


def test_ks_distance_high_frequency():
    for i in (2, 5, 16):
        got = ks_distance(DensitySpec.one_plus_sine(i), DensitySpec.uniform())
        assert abs(got - 1 / (math.pi * i)) < 1e-9


# -- density total variation ---------------------------------------------------------


def test_density_total_variation_against_riemann_oracle():
    x = (np.arange(1 << 20) + 0.5) / (1 << 20)
    for m in (1, 2, 3, 16):
        s = np.zeros_like(x)
        for j in range(1, m + 1):
            s += np.sin(2 * np.pi * j * x)
        oracle = 0.5 * np.mean(np.abs(s / m))
        got = density_total_variation(
            DensitySpec.cesaro_mixture(m), DensitySpec.uniform()
        )
        assert abs(got - oracle) < 1e-7


def test_density_total_variation_matches_discrete_limit():
    spec = DensitySpec.pu_family(0.4)
    exact = density_total_variation(spec, DensitySpec.uniform())
    disc = total_variation(discretize(spec, 64), discretize(DensitySpec.uniform(), 64))
    assert abs(exact - 0.2) < 1e-10
    assert abs(disc - exact) < 1e-10  # piecewise-constant density: grid is exact


# -- exact density distances from the critical points of the CDF gap ---------------

ORACLE_PAIRS = [
    (DensitySpec.cesaro_mixture(64), DensitySpec.uniform()),
    (DensitySpec.one_plus_sine(3), DensitySpec.one_plus_sine(7)),
    (DensitySpec.cesaro_mixture(5), DensitySpec.one_plus_sine(2)),
    (DensitySpec.pu_family(0.4), DensitySpec.one_plus_sine(3)),  # jump and sines mix
    (DensitySpec.pu_family(0.0), DensitySpec.uniform()),  # flat gap
]


@pytest.mark.parametrize("p, q", ORACLE_PAIRS, ids=lambda s: s.label())
def test_density_distances_against_independent_oracles(p, q):
    tv = density_total_variation(p, q)
    assert abs(tv - density_total_variation_quadrature(p, q)) < 1e-9
    # The gap's slope is bounded by sum(2 pi j |c_j|) < 210 for these pairs and 1/2
    # is a grid node, so the grid maximum is within 3e-11 of the supremum.
    x = np.linspace(0.0, 1.0, (1 << 20) + 1)
    assert abs(ks_distance(p, q) - np.abs(p.cdf(x) - q.cdf(x)).max()) < 1e-9


@pytest.mark.parametrize("i", [1, 2, 3, 7, 32])
def test_sine_gap_sign_changes_are_all_found(i):
    # f - 1 = sin(2 pi i x) changes sign exactly at k / (2i), k = 0, ..., 2i - 1
    points = _critical_point_sets([(DensitySpec.one_plus_sine(i), DensitySpec.uniform())])[0]
    inside = points[points < 1.0]
    assert inside.size == 2 * i
    assert_allclose(inside, np.arange(2 * i) / (2 * i), rtol=0, atol=1e-12)


CESARO_ORDERS = [1, 2, 7, 8, 32, 64, 128]


def cesaro_closed_form(m):
    """The critical points of ``cesaro_mixture(m)`` against uniform and their TV.

    ``sum_{j<=m} sin(2 pi j x) = sin(pi m x) sin(pi (m+1) x) / sin(pi x)``, so
    the sign changes are ``i/m`` and ``i/(m+1)``; ``G = F_p - F_u`` is monotone
    between them, so the TV is ``1/2 sum |dG|`` over ``{0, 1}`` and those points.
    """
    p, uniform = DensitySpec.cesaro_mixture(m), DensitySpec.uniform()
    roots = np.union1d(np.arange(1, m) / m, np.arange(1, m + 1) / (m + 1))
    x = np.concatenate([[0.0], roots, [1.0]])
    return x, 0.5 * np.abs(np.diff(p.cdf(x) - uniform.cdf(x))).sum()


@pytest.mark.parametrize("m", CESARO_ORDERS)
def test_cesaro_gap_sign_changes_are_all_found(m):
    p, uniform = DensitySpec.cesaro_mixture(m), DensitySpec.uniform()
    points = _critical_point_sets([(p, uniform)])[0]
    exact_points, exact_tv = cesaro_closed_form(m)
    assert exact_points.size == 2 * m + 1
    assert points.size == exact_points.size and points[0] == 0.0 and points[-1] == 1.0
    # sin(2 pi j x) rounds its argument by up to 2 pi m eps; at m = 128 that moves
    # the largest root by 1.1e-15, ten ulps of a root near 1
    assert np.abs(points - exact_points).max() <= (1e-15 if m <= 64 else 2e-15)
    assert abs(density_total_variation(p, uniform) - exact_tv) <= 1e-15


def test_cesaro_closed_form_holds_for_one_batched_table():
    uniform = DensitySpec.uniform()
    pairs = [(DensitySpec.cesaro_mixture(m), uniform) for m in CESARO_ORDERS]
    for m, tv in zip(CESARO_ORDERS, density_total_variations(pairs)):
        assert abs(tv - cesaro_closed_form(m)[1]) <= 1e-15


def test_batched_density_distances_equal_the_per_pair_ones_bit_for_bit():
    uniform = DensitySpec.uniform()
    tables = [
        [(DensitySpec.one_plus_sine(i), uniform) for i in range(1, 33)],
        [(DensitySpec.cesaro_mixture(m), uniform) for m in range(1, 33)],
        ORACLE_PAIRS,
    ]
    for pairs in tables + [sum(tables, [])]:
        assert ks_distances(pairs) == [ks_distance(p, q) for p, q in pairs]
        assert density_total_variations(pairs) == [density_total_variation(p, q) for p, q in pairs]
    assert ks_distances([]) == density_total_variations([]) == []


def test_sine_series_values_depend_on_the_point_and_its_piece_alone():
    """``g``, ``g'`` and ``g''`` of every point are the same bits whether the point
    is evaluated alone, with its piece's other points, among the points of other
    pieces in any order, or in a table of its piece alone."""
    uniform = DensitySpec.uniform()
    densities = [DensitySpec.cesaro_mixture(m) for m in range(1, 33)]
    densities += [DensitySpec.one_plus_sine(i) for i in range(1, 33)]
    pieces = [piece for p in densities for piece in _gap_pieces(p, uniform)]
    table = _table(pieces)
    rng = np.random.default_rng(0)
    k = np.repeat(np.arange(len(pieces)), 17)
    x = np.concatenate([np.linspace(0.0, 1.0, 9), rng.random(8)] * len(pieces))

    def bits(x, k, table=table):
        return np.vstack(_series(table, k)(x, derivatives=True)).view(np.int64)

    together = bits(x, k)
    assert np.array_equal(_series(table, k)(x).view(np.int64), together[0])
    order = rng.permutation(k.size)
    assert np.array_equal(bits(x[order], k[order]), together[:, order])
    for i, piece in enumerate(pieces):
        own = k == i
        assert np.array_equal(bits(x[own], k[own]), together[:, own])
        assert np.array_equal(bits(x[own], 0 * k[own], _table([piece])), together[:, own])
    for j in range(0, k.size, 7):
        assert np.array_equal(bits(x[j : j + 1], k[j : j + 1]), together[:, j : j + 1])


def test_density_distances_validate_and_are_fast():
    with pytest.raises(ValidationError):
        ks_distance(DensitySpec.uniform(), FiniteMeasure([0.5, 0.5]))

    def best_of_three(fn):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    uniform = DensitySpec.uniform()
    assert best_of_three(lambda: ks_distance(DensitySpec.pu_family(0.0), uniform)) < 0.01
    assert best_of_three(
        lambda: density_total_variation(DensitySpec.cesaro_mixture(64), uniform)
    ) < 0.1
    # the 16-row tables of a Mazur scan of order 16
    sines = [(DensitySpec.one_plus_sine(i), uniform) for i in range(1, 17)]
    assert best_of_three(lambda: ks_distances(sines)) < 0.05
    mixtures = [(DensitySpec.cesaro_mixture(m), uniform) for m in range(1, 17)]
    assert best_of_three(lambda: density_total_variations(mixtures)) < 0.05


# -- hull LP: the Kraft–Le Cam dual and its certificate ----------------------------------


def _sine_families(m, grid_size):
    hypothesis = [discretize(DensitySpec.uniform(), grid_size)]
    return hypothesis, [discretize(DensitySpec.one_plus_sine(i), grid_size) for i in range(1, m + 1)]


def _highs_hull(a, b):
    """min TV over mixtures by HiGHS on the primal LP (mixtures and |.| auxiliaries)."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    P, Q = np.stack([m.weights for m in a]), np.stack([m.weights for m in b])
    na, nb, k = P.shape[0], Q.shape[0], P.shape[1]
    diff, eye = np.hstack([P.T, -Q.T]), np.eye(k)
    A_eq = np.zeros((2, na + nb + k))
    A_eq[0, :na] = A_eq[1, na : na + nb] = 1.0
    result = linprog(
        np.concatenate([np.zeros(na + nb), np.full(k, 0.5)]),
        A_ub=np.vstack([np.hstack([diff, -eye]), np.hstack([-diff, -eye])]),
        b_ub=np.zeros(2 * k), A_eq=A_eq, b_eq=np.ones(2), bounds=(0, None), method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert result.status == 0, result.message
    return float(result.fun)


@pytest.mark.parametrize("m, grid_size", [(8, 128), (8, 256), (16, 128), (32, 64), (32, 512)])
def test_hull_variation_agrees_with_highs_and_is_certified(m, grid_size):
    a, b = _sine_families(m, grid_size)
    reference = _highs_hull(a, b)
    res = hull_variation(a, b)
    assert abs(res.value - reference) <= 1e-9
    assert -1e-15 <= res.duality_gap <= 1e-12  # >= 0 up to rounding
    assert res.mixture_p.sum() == pytest.approx(1.0, abs=1e-15)
    assert res.mixture_q.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.all(res.mixture_q >= 0.0)


def test_hull_variation_sine_1_8_grid_256_is_fast():
    a, b = _sine_families(8, 256)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        hull_variation(a, b)
        times.append(time.perf_counter() - start)
    assert min(times) < 1.0


def test_hull_variation_32_sines_grid_512_is_fast():
    # with the box psi <= 1 as k tableau rows this took 2.5-3.1 s on a 2-CPU
    # VM (Python 3.11, numpy 2.4); with the box as bounds, about 0.06 s
    a, b = _sine_families(32, 512)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        hull_variation(a, b)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.2


def _floors_families():
    """The 21 hull LPs of the benchmark's ``floors`` workload."""
    families = [_sine_families(m, 128) for m in (5, 7, 8)] + [_sine_families(16, 64)]
    families += [_sine_families(m, 64) for m in range(1, 17)]
    tilts = [discretize(DensitySpec.pu_family(u), 64) for u in (0.0, 0.2, 0.4)]
    return families + [([discretize(DensitySpec.uniform(), 64)], tilts)]


def test_hull_variation_equals_the_box_row_lp():
    """The bounded solve against the dual with ``psi <= 1`` written as k rows."""
    for a, b in _floors_families():
        P, Q = np.stack([m.weights for m in a]), np.stack([m.weights for m in b])
        (na, k), nb = P.shape, Q.shape[0]
        t, minus_s = np.array([1.0, -1.0, 0.0, 0.0]), np.array([0.0, 0.0, -1.0, 1.0])
        A_ub = np.block([
            [-P, np.tile(t, (na, 1))],
            [Q, np.tile(minus_s, (nb, 1))],
            [np.eye(k), np.zeros((k, 4))],
        ])
        b_ub = np.concatenate([np.zeros(na + nb), np.ones(k)])
        rows = solve_lp(np.concatenate([np.zeros(k), -(t + minus_s)]), A_ub=A_ub, b_ub=b_ub)
        assert abs(hull_variation(a, b).value + rows.objective) <= 1e-12


def test_optimal_test_meets_the_floor_against_every_member():
    rng = np.random.default_rng(11)
    for _ in range(200):
        k = int(rng.integers(2, 6))
        a = [normalize(rng.random(k)) for _ in range(int(rng.integers(1, 4)))]
        b = [normalize(rng.random(k)) for _ in range(int(rng.integers(1, 4)))]
        hull = hull_variation(a, b)
        worst = max(type1_error(hull.phi, p) + type2_error(hull.phi, q) for p in a for q in b)
        assert worst <= 1.0 - hull.value + hull.duality_gap + 1e-12


def test_hull_variation_rejects_a_large_duality_gap(monkeypatch):
    """Mixtures that miss the optimum fail the certificate, naming the stage and size."""
    import consistency_lab.distances as distances

    solve_lp = distances.solve_lp

    def off_optimum(*args, **kwargs):
        result = solve_lp(*args, **kwargs)
        duals = result.duals.copy()
        duals[:2] = [-1.0, 0.0]  # all hypothesis weight on the first member
        return type(result)(result.x, result.objective, result.iterations, duals)

    a, b = [F(1, 0, 0), F(0, 0, 1)], [F(0, 0.5, 0.5)]
    assert hull_variation(a, b).value == pytest.approx(0.5)
    monkeypatch.setattr(distances, "solve_lp", off_optimum)
    with pytest.raises(NumericError, match=r"hull LP \(2x1 on 3 atoms\): duality gap 5.000e-01"):
        hull_variation(a, b)


def test_hull_variation_solver_errors_name_the_stage(monkeypatch):
    import consistency_lab.distances as distances

    def overrun(*args, **kwargs):
        raise NumericError("simplex exceeded 20000 iterations")

    monkeypatch.setattr(distances, "solve_lp", overrun)
    with pytest.raises(NumericError, match=r"^hull LP \(1x2 on 2 atoms\): simplex exceeded"):
        hull_variation([F(0.5, 0.5)], [F(1, 0), F(0, 1)])
    monkeypatch.setattr(distances, "solve_lp_prefixes", overrun)
    with pytest.raises(
        NumericError, match=r"^hull LP scan \(1x1\.\.3 on 2 atoms\): simplex exceeded 20000"
    ):
        hull_variation_prefixes([F(0.5, 0.5)], [F(1, 0), F(0, 1), F(0.2, 0.8)])


# -- the Cesàro hull scan: one LP grown a row at a time ------------------------------------


@pytest.fixture(scope="module")
def sine_scan_128():
    """The scan of uniform against ``one_plus_sine`` 1..128 at grid 64, and the
    cold ``hull_variation`` of every prefix."""
    a, b = _sine_families(128, 64)
    return a, b, hull_variation_prefixes(a, b), [hull_variation(a, b[:j]) for j in range(1, 129)]


@pytest.mark.parametrize("m", [16, 64, 128])
def test_hull_scan_matches_cold_lps_with_certificates(m, sine_scan_128):
    a, b, _, cold = sine_scan_128
    scan = hull_variation_prefixes(a, b[:m])
    assert len(scan) == m
    for j, (warm, fresh) in enumerate(zip(scan, cold), start=1):
        assert abs(warm.value - fresh.value) <= 1e-12, j
        assert warm.duality_gap <= 1e-12, j
        assert warm.mixture_q.size == j
        assert warm.mixture_p.sum() == pytest.approx(1.0, abs=1e-15)
        assert warm.mixture_q.sum() == pytest.approx(1.0, abs=1e-15)
    # one_plus_sine(64) is the uniform itself on 64 cells: the hull distance vanishes
    if m >= 64:
        assert scan[63].value <= 1e-15 and cold[62].value > 1e-3


@pytest.mark.parametrize("m, share", [(64, 1 / 3), (128, 1 / 2)])
def test_hull_scan_restarts_take_a_fraction_of_cold_pivots(m, share, sine_scan_128):
    _, _, scan, cold = sine_scan_128
    warm_pivots = sum(r.iterations for r in scan[: m - 1])
    cold_pivots = sum(r.iterations for r in cold[: m - 1])
    assert warm_pivots <= share * cold_pivots, (warm_pivots, cold_pivots)


@pytest.mark.parametrize("j", [1, 16, 63, 64, 65, 128])
def test_hull_scan_prefixes_agree_with_highs(j, sine_scan_128):
    a, b, scan, _ = sine_scan_128
    assert abs(scan[j - 1].value - _highs_hull(a, b[:j])) <= 1e-9


def test_hull_scan_first_prefix_is_the_cold_lp():
    a, b = _sine_families(8, 64)
    first, cold = hull_variation_prefixes(a, b)[0], hull_variation(a, b[:1])
    assert first.value == cold.value and first.iterations == cold.iterations
    assert np.array_equal(first.phi, cold.phi)


def test_hull_scan_certificate_failures_name_the_prefix(monkeypatch):
    import consistency_lab.distances as distances

    solve_lp_prefixes = distances.solve_lp_prefixes

    def off_optimum(*args, **kwargs):
        results = solve_lp_prefixes(*args, **kwargs)
        last = results[-1]
        duals = last.duals.copy()
        duals[:3] = [-1.0, -1.0, 0.0]  # all alternative weight on the first member
        return results[:-1] + [type(last)(last.x, last.objective, last.iterations, duals)]

    monkeypatch.setattr(distances, "solve_lp_prefixes", off_optimum)
    with pytest.raises(
        NumericError, match=r"hull LP scan \(1x1\.\.2 on 3 atoms\), prefix 2: duality gap"
    ):
        hull_variation_prefixes([F(0, 0.5, 0.5)], [F(1, 0, 0), F(0, 0, 1)])
