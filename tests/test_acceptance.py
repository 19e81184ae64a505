"""Acceptance gate: every criterion at its stated tolerance and runtime budget.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion; each line carries the measured quantity and its elapsed time.
"""
import itertools
import math
import time

import numpy as np
import pytest

from consistency_lab.cli import main
from consistency_lab.distances import (
    density_total_variation,
    hull_variation,
    total_variation,
)
from consistency_lab.measures import (
    DensitySpec,
    FiniteMeasure,
    GaussianSequenceModel,
    Partition,
    PoissonModel,
    normalize,
)
from consistency_lab.partition_tests import (
    exact_error,
    separation,
)
from consistency_lab.reports import write_json
from consistency_lab.scenarios import (
    nested_schedule,
    scenario_kolmogorov_family,
    scenario_mazur_mixture,
    scenario_nested_alternatives,
    scenario_poisson,
    scenario_signal_detection,
    scenario_sine_indistinguishable,
)
from consistency_lab.scheduler import block_lengths
from consistency_lab.simulation import (
    RngSpec,
    discernibility_paths,
    estimate_error,
    poisson_atom_tail_bound,
)


def F(*weights):
    return FiniteMeasure(np.array(weights, dtype=float))


class _RecordingTest:
    """Rejects nothing and keeps the count rows it was handed."""

    def __init__(self):
        self.seen = []

    def rejects(self, counts):
        self.seen.append(counts)
        return np.zeros(counts.shape[0])


def report(number, name, detail, t0):
    print(f"criterion {number} ({name}): PASS [{detail}; {time.time() - t0:.2f}s]")


def chernoff_grid_oracle(p, q, num=2_000_001):
    """Dense tilt-parameter scan; independent of the package's search routine."""
    lam = np.linspace(0.0, 1.0, num)
    shared = (p > 0) & (q > 0)
    terms = np.exp(
        lam[:, None] * np.log(p[shared])[None, :]
        + (1 - lam[:, None]) * np.log(q[shared])[None, :]
    ).sum(axis=1)
    return float(-np.log(terms).min())


def test_criterion_1_kraft_attainment():
    t0 = time.time()
    rng = np.random.default_rng(101)
    for _ in range(100):
        k = int(rng.integers(2, 5))
        p = normalize(rng.random(k))
        q = normalize(rng.random(k))
        phi = hull_variation([p], [q]).phi  # Kraft's test: reject with probability phi_j at atom j
        achieved = float(p.weights @ phi) + float(q.weights @ (1.0 - phi))
        floor = 1.0 - total_variation(p, q)
        assert abs(achieved - floor) <= 1e-9
        # exhaustive search over all deterministic one-observation tests
        best = min(
            float(p.weights @ np.array(mask)) + float(q.weights @ (1.0 - np.array(mask)))
            for mask in itertools.product([0.0, 1.0], repeat=k)
        )
        assert best >= floor - 1e-12
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, "Kraft attainment", "100 random pairs, gap <= 1e-9", t0)


def _simplex_grid(count, ticks):
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
    return np.asarray(points, dtype=float) / ticks


def test_criterion_2_hull_lp_vs_grid_oracle():
    t0 = time.time()
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 5))
        na, nb = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        P = np.stack([rng.dirichlet(np.ones(k)) for _ in range(na)])
        Q = np.stack([rng.dirichlet(np.ones(k)) for _ in range(nb)])
        value = hull_variation(
            [FiniteMeasure(r) for r in P], [FiniteMeasure(r) for r in Q]
        ).value
        mix_a = _simplex_grid(na, 100) @ P
        mix_b = _simplex_grid(nb, 100) @ Q
        oracle = math.inf
        for i in range(0, mix_a.shape[0], 512):
            block = np.abs(mix_a[i : i + 512, None, :] - mix_b[None, :, :]).sum(axis=2)
            oracle = min(oracle, 0.5 * float(block.min()))
        gap = abs(value - oracle)
        worst = max(worst, gap)
        assert value <= oracle + 1e-9
        assert gap <= 0.011
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(2, "hull LP vs 0.01-grid oracle", f"50 instances, worst gap {worst:.4g}", t0)


def test_criterion_3_exponential_decay():
    t0 = time.time()
    p, q = F(0.5, 0.5), F(0.7, 0.3)
    test = separation([p], [q], Partition.identity(2))
    ns = [32, 64, 128, 256]
    errors = []
    for n in ns:
        alpha = exact_error(test, p, n)[0]
        beta = exact_error(test, q, n)[1]
        errors.append(alpha + beta)
    slope = float(np.polyfit(ns, np.log(errors), 1)[0])
    target = -chernoff_grid_oracle(np.array([0.5, 0.5]), np.array([0.7, 0.3]))
    assert abs(target + 0.0213238432721907) < 1e-9  # oracle sanity pin
    assert abs(slope - target) <= 0.30 * abs(target)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(3, "exponential decay", f"slope {slope:.5f} vs {target:.5f}", t0)


def test_criterion_4_block_lengths():
    t0 = time.time()
    rng = np.random.default_rng(104)
    exponents = list(rng.uniform(0.05, 3.0, size=20))
    lengths = block_lengths(exponents)
    assert lengths[0] == 1
    for i, (c, l) in enumerate(zip(exponents, lengths), start=1):
        if i == 1:
            continue
        target = (1.0 - math.exp(-c)) / (i * i)
        assert math.exp(-c * l) <= target  # holds at l
        assert math.exp(-c * (l - 1)) > target  # fails at l - 1
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(4, "block lengths", "20 (c, i) pairs, minimality verified", t0)


def test_criterion_5_discernibility():
    t0 = time.time()
    scenario = scenario_nested_alternatives(
        [F(0.9, 0.1), F(0.1, 0.9)],
        hypothesis=[F(0.5, 0.5)],
        n_max=2048,
        replications=1000,
        k_grid=list(range(0, 2049, 64)),
    )
    assert all(c >= 0.05 for c in scenario.schedule["exponents"])
    schedule = nested_schedule(scenario)

    k_star = next(
        k for k in range(schedule.n_max + 1) if min(1.0, schedule.certified_tail(k)) < 0.01
    )
    models = [(F(0.5, 0.5), "hypothesis"), (F(0.9, 0.1), "alternative"), (F(0.1, 0.9), "alternative")]
    base = RngSpec(2026, 0)
    for index, (model, role) in enumerate(models):
        curve = discernibility_paths(
            schedule, model, 2048, list(range(0, 2049, 64)), 1000,
            base.task(index), role=role,
        )
        assert np.all(np.diff(curve) <= 1e-12)  # non-increasing
        at_k_star = discernibility_paths(
            schedule, model, 2048, [k_star], 1000, base.task(index + 10), role=role
        )
        assert at_k_star[0] <= 0.01  # >= 99% of paths stay clean
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(5, "discernibility", f"tail bound < 0.01 at k={k_star}, 1000 paths/model", t0)


def test_criterion_6_indistinguishability_mechanism():
    t0 = time.time()
    half = Partition.half_split()
    uniform = DensitySpec.uniform()
    for i in (2, 4, 6, 8):
        rep = separation([uniform], [DensitySpec.one_plus_sine(i)], half)
        assert rep.margin == 0.0
    tv1 = density_total_variation(DensitySpec.cesaro_mixture(1), uniform)
    tv16 = density_total_variation(DensitySpec.cesaro_mixture(16), uniform)
    assert abs(tv1 - 1.0 / math.pi) <= 1e-6
    assert tv16 < tv1
    grid = 64
    from consistency_lab.measures import discretize

    disc_uniform = [discretize(uniform, grid)]
    kraft = {}
    for m in (1, 16):
        prefix = [discretize(DensitySpec.one_plus_sine(i), grid) for i in range(1, m + 1)]
        kraft[m] = 1.0 - hull_variation(disc_uniform, prefix).value
    assert kraft[16] > kraft[1]
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(
        6,
        "indistinguishability mechanism",
        f"tv1={tv1:.6f}, tv16={tv16:.6f}, kraft {kraft[1]:.4f}->{kraft[16]:.4f}",
        t0,
    )


def test_criterion_7_signal_detection():
    t0 = time.time()
    from consistency_lab.partition_tests import LinearFunctionalTest

    test = LinearFunctionalTest(functional=np.array([1.0]), base=np.array([0.0]))
    assert abs(2.0 * test.error(0.1) - 5.733031437583892e-07) < 1e-12  # type I + type II

    totals = []
    base = RngSpec(7102, 0)
    for index, eps in enumerate((1.0, 0.5, 0.2, 0.1)):
        alpha = estimate_error(
            test, GaussianSequenceModel(np.array([0.0]), eps), 1, 100_000,
            base.task(2 * index),
        )
        beta = estimate_error(
            test, GaussianSequenceModel(np.array([1.0]), eps), 1, 100_000,
            base.task(2 * index + 1), role="alternative",
        )
        totals.append(alpha.estimate + beta.estimate)
    assert totals[-1] <= 1e-4
    assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(7, "signal detection", f"totals {['%.3g' % t for t in totals]}", t0)


def test_criterion_8_poisson_bound():
    t0 = time.time()
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    lam, n, x = 1.0, 100, 0.5
    upper = mp.e ** (-n * (lam + x) * mp.log(1 + x / lam) + n * x)
    lower = mp.e ** (-n * (lam - x) * mp.log(1 - x / lam) - n * x)
    oracle = float(upper + lower)
    bound = poisson_atom_tail_bound(lam, n, x)
    assert abs(bound - oracle) <= 1e-14
    assert abs(bound - 2.0217399292583463e-05) < 1e-12

    draws = RngSpec(8101, 0).generator().poisson(n * lam, size=1_000_000)
    freq = float((np.abs(draws - n * lam) > n * x).mean())
    sigma = math.sqrt(max(freq, 1e-6) * (1.0 - freq) / 1_000_000)
    assert freq <= bound + 3 * sigma

    # the atom counts a Poisson error block hands its test: Poisson(20) totals,
    # and conditional on the total, atoms i.i.d. from the shape
    model = PoissonModel(1.0, F(0.3, 0.7))
    test = _RecordingTest()
    estimate_error(test, model, 20, 4000, RngSpec(8102, 0))
    counts = np.concatenate(test.seen)
    totals = counts.sum(axis=1)
    assert counts.shape == (4000, 2)
    assert abs(float(totals.mean()) - 20.0) <= 3 * math.sqrt(20.0 / totals.size)
    values, sizes = np.unique(totals, return_counts=True)
    count = int(values[np.argmax(sizes)])
    pooled = counts[totals == count]
    freq0 = float(pooled[:, 0].sum() / pooled.sum())
    half_width = 1.959963984540054 * math.sqrt(0.3 * 0.7 / pooled.sum())
    assert abs(freq0 - 0.3) <= half_width * 1.6  # 95% CI with slack for one draw
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(
        8,
        "Poisson bound",
        f"bound {bound:.4g}, tail freq {freq:.2g}, N={count} shape freq {freq0:.4f}",
        t0,
    )


def test_criterion_9_determinism(tmp_path):
    t0 = time.time()
    scenarios = {
        "sine": (scenario_sine_indistinguishable(4, grid_size=32), "simulate"),
        "mazur": (scenario_mazur_mixture(6, grid_size=32), "simulate"),
        "kolmogorov": (scenario_kolmogorov_family([0.4], n_grid=[16, 64]), "simulate"),
        "signal": (
            scenario_signal_detection([[0.0]], [[1.0]], 1, epsilon_list=[0.5, 0.2]),
            "simulate",
        ),
        "nested": (
            scenario_nested_alternatives(
                [F(0.9, 0.1), F(0.1, 0.9)], n_max=256, replications=200,
                k_grid=list(range(0, 257, 32)),
            ),
            "schedule",
        ),
        "poisson": (
            scenario_poisson(
                PoissonModel(1.0, F(0.5, 0.5)), PoissonModel(2.0, F(0.5, 0.5)),
                n_grid=[8, 32],
            ),
            "simulate",
        ),
    }
    for label, (scenario, command) in scenarios.items():
        path = tmp_path / f"{label}.json"
        write_json(path, scenario.to_json_dict())
        trees = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{label}-{attempt}"
            code = main(
                [command, "--scenario", str(path), "--out", str(out), "--seed", "17",
                 "--reps", "200"]
            )
            assert code == 0
            trees.append(
                {
                    str(p.relative_to(out)): p.read_bytes()
                    for p in sorted(out.rglob("*"))
                    if p.is_file()
                }
            )
        assert trees[0] == trees[1], f"{label} outputs differ between identical runs"
    report(9, "determinism", f"{len(scenarios)} scenarios byte-identical", t0)
