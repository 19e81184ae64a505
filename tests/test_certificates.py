"""Schedule certificates against exact error probabilities and exact discernibility curves.

A member's certificate says both its error probabilities are at most
``exp(-c n)`` for every ``n > onset``. Exact enumeration checks that claim
``n`` by ``n``; ``discernibility_oracle`` checks the certified tails of whole
schedules and the Monte Carlo curves of the path replay.
"""
import functools
import math

import numpy as np
import pytest

from consistency_lab.measures import FiniteMeasure
from consistency_lab.partition_tests import count_vectors, exact_error
from consistency_lab.scenarios import (
    build_nested_family,
    nested_schedule,
    run_scenario,
    scenario_nested_alternatives,
)
from consistency_lab.simulation import RngSpec, discernibility_paths
from discernibility_oracle import exact_curve

#: Last sample size at which member errors are enumerated.
N_LAST = 300
LOG_FACTORIAL = np.cumsum(np.log(np.maximum(np.arange(N_LAST + 1), 1)))


def F(*weights):
    return FiniteMeasure(np.array(weights, dtype=float))


def _error_ratios(hypothesis, pieces):
    """Exact α and β of every member over the bound ``exp(-c n)``, for ``n`` in
    ``onset + 1 .. N_LAST``; every weight must be positive."""
    members = build_nested_family(hypothesis, pieces)
    ratios = []
    for n in range(min(member.onset for member in members) + 1, N_LAST + 1):
        counts = count_vectors(n, hypothesis[0].alphabet_size)
        log_coefficient = LOG_FACTORIAL[n] - LOG_FACTORIAL[counts].sum(axis=1)
        pmfs = [np.exp(log_coefficient + counts @ np.log(m.weights)) for m in hypothesis + pieces]
        for i, member in enumerate(members, start=1):
            if n <= member.onset:
                continue
            reject = member.test.rejects(counts)
            errors = [pmf @ reject for pmf in pmfs[: len(hypothesis)]]
            errors += [pmf @ (1.0 - reject) for pmf in pmfs[len(hypothesis) : len(hypothesis) + i]]
            ratios.extend(np.array(errors) / math.exp(-member.exponent * n))
    return np.array(ratios)


def test_point_mass_piece_errors_within_certificate():
    """A piece that is a point mass used to be certified at half a Chernoff
    information, a rate its nearest-set test does not reach (exact α at n = 16
    was 0.0106 against a bound of 0.0039)."""
    hypothesis = [F(0.5, 0.5)]
    pieces = [F(0.0, 1.0)]
    (member,) = build_nested_family(hypothesis, pieces)
    assert member.onset < N_LAST
    for n in range(member.onset + 1, N_LAST + 1):
        bound = math.exp(-member.exponent * n)
        assert exact_error(member.test, hypothesis[0], n)[0] <= bound, n
        assert exact_error(member.test, pieces[0], n)[1] <= bound, n


def test_random_families_errors_within_certificate():
    rng = np.random.default_rng(20261019)
    checked, worst = 0, 0.0
    for atoms, families in ((2, 60), (3, 2)):
        for _ in range(families):
            hypothesis = [FiniteMeasure(rng.dirichlet(np.ones(atoms)))]
            pieces = [FiniteMeasure(rng.dirichlet(np.ones(atoms)))
                      for _ in range(int(rng.integers(1, 3)))]
            ratios = _error_ratios(hypothesis, pieces)
            checked += ratios.size
            worst = max(worst, float(ratios.max(initial=0.0)))
    assert checked >= 5000  # most families are certified well before N_LAST
    assert worst <= 1.0


_SCHEDULES = {
    "nested-2x2": ([F(0.5, 0.5)], [F(0.9, 0.1), F(0.1, 0.9)], 2048),
    "nested-3x3": (
        [F(1 / 3, 1 / 3, 1 / 3)],
        [F(0.6, 0.2, 0.2), F(0.2, 0.6, 0.2), F(0.2, 0.2, 0.6)],
        256,
    ),
    "point-mass-piece": ([F(0.5, 0.5)], [F(0.0, 1.0)], 256),
}


@functools.lru_cache(maxsize=None)
def _exact_curves(name):
    """The schedule, its models with their roles, and each model's exact curve at every k."""
    hypothesis, pieces, n_max = _SCHEDULES[name]
    scenario = scenario_nested_alternatives(
        pieces, hypothesis=hypothesis, n_max=n_max, replications=100
    )
    schedule = nested_schedule(scenario)
    models = [(hypothesis[0], "hypothesis")] + [(q, "alternative") for q in pieces]
    k_grid = range(n_max + 1)
    curves = [exact_curve(schedule, model.weights, n_max, k_grid, role) for model, role in models]
    return schedule, models, curves


@pytest.mark.parametrize("name", sorted(_SCHEDULES))
def test_exact_curve_within_certified_tail(name):
    schedule, models, curves = _exact_curves(name)
    tails = np.array([min(1.0, schedule.certified_tail(k)) for k in range(schedule.n_max + 1)])
    for (model, role), curve in zip(models, curves):
        assert np.all(curve <= tails + 1e-12), (role, model.weights)
        assert curve[-1] == 0.0


@pytest.mark.parametrize("name", ["nested-2x2", "nested-3x3"])
def test_discernibility_paths_match_exact_curve(name):
    """Each Monte Carlo point passes a two-sided binomial test at 1e-6."""
    binomtest = pytest.importorskip("scipy.stats").binomtest
    schedule, models, curves = _exact_curves(name)
    k_grid = list(range(0, schedule.n_max + 1, schedule.n_max // 32))
    reps = 1000
    for index, ((model, role), curve) in enumerate(zip(models, curves)):
        paths = discernibility_paths(
            schedule, model, schedule.n_max, k_grid, reps, RngSpec(31, index), role=role
        )
        for k, estimate in zip(k_grid, paths):
            exact = min(1.0, curve[k])
            assert binomtest(round(estimate * reps), reps, exact).pvalue >= 1e-6, (role, k)


def test_discernibility_table_replays_every_hypothesis():
    """``discernibility.csv`` has one replayed column per hypothesis. Against
    (0.9, 0.1), (0.6, 0.4) errs after k = 32 with probability 0.061, twenty
    times as often as (0.5, 0.5); each column passes a binomial test at 1e-6."""
    binomtest = pytest.importorskip("scipy.stats").binomtest
    hypothesis, reps = [F(0.5, 0.5), F(0.6, 0.4)], 2000
    scenario = scenario_nested_alternatives(
        [F(0.9, 0.1)], hypothesis=hypothesis, n_max=256, k_grid=(0, 32, 64), replications=reps
    )
    table = run_scenario(scenario, seed=5).tables["discernibility"]
    assert table.columns == [
        "k",
        "certified_tail_clamped",
        "err_after_k_hypothesis",
        "err_after_k_hypothesis_2",
        "err_after_k_piece_1",
    ]
    row = dict(zip(table.columns, table.rows[1]))
    assert row["k"] == 32
    schedule = nested_schedule(scenario)
    for column, model in zip(table.columns[2:4], hypothesis):
        (exact,) = exact_curve(schedule, model.weights, 256, [32])
        assert binomtest(round(row[column] * reps), reps, exact).pvalue >= 1e-6, column
    assert round(exact, 3) == 0.061
