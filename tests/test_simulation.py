import importlib.util
import math
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from consistency_lab.errors import ResourceLimitError, ValidationError
from consistency_lab.measures import (
    DensitySpec,
    FiniteMeasure,
    GaussianSequenceModel,
    Partition,
    PoissonModel,
)
from consistency_lab.partition_tests import (
    FrequencyTest,
    PoissonTwoStageTest,
    exact_error,
    poisson_count_threshold,
    separation,
)
from consistency_lab.scenarios import (
    nested_schedule,
    run_scenario,
    scenario_from_dict,
    scenario_nested_alternatives,
)
from consistency_lab.scheduler import TestFamilyMember, interleave
from consistency_lab import simulation
from consistency_lab.simulation import (
    ERROR_BLOCK,
    MAX_PATH_CELL_BYTES,
    PATH_BLOCK,
    PATH_SEGMENT,
    RngSpec,
    WorkerPool,
    discernibility_paths,
    estimate_error,
    poisson_atom_tail_bound,
    wilson_interval,
)
from consistency_lab.simulation import (
    _cells_below,
    _constant_segments,
    _simulate_error_block,
)


def F(*weights):
    return FiniteMeasure(np.array(weights, dtype=float))


def make_test(hypothesis, alternative):
    return separation([F(*hypothesis)], [F(*alternative)], Partition.identity(len(hypothesis)))


# -- determinism ----------------------------------------------------------------------


def test_estimate_error_worker_count_does_not_change_result():
    test = make_test([0.5, 0.5], [0.9, 0.1])
    serial = estimate_error(test, F(0.5, 0.5), 20, 20_000, RngSpec(77, 0), workers=1)
    parallel = estimate_error(test, F(0.5, 0.5), 20, 20_000, RngSpec(77, 0), workers=2)
    assert serial.estimate == parallel.estimate


# -- Poisson tail bound ----------------------------------------------------------------


def test_poisson_tail_bound_value_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    lam, n, x = 1.0, 100, 0.5
    upper = mp.e ** (-n * (lam + x) * mp.log(1 + x / lam) + n * x)
    lower = mp.e ** (-n * (lam - x) * mp.log(1 - x / lam) - n * x)
    oracle = float(upper + lower)
    got = poisson_atom_tail_bound(lam, n, x)
    assert abs(got - oracle) <= 1e-12 * oracle
    assert abs(got - 2.0217399292583463e-05) < 1e-12


def test_poisson_tail_bound_vacuous_at_zero():
    assert abs(poisson_atom_tail_bound(1.0, 10, 1e-12) - 2.0) < 1e-6


def test_poisson_tail_bound_validation():
    with pytest.raises(ValidationError):
        poisson_atom_tail_bound(1.0, 10, 1.0)
    with pytest.raises(ValidationError):
        poisson_atom_tail_bound(1.0, 10, 1.5)
    with pytest.raises(ValidationError):
        poisson_atom_tail_bound(0.0, 10, 0.5)


def test_poisson_tail_bound_dominates_monte_carlo():
    lam, x = 1.0, 0.5
    gen = RngSpec(17, 0).generator()
    for n in (20, 100):
        draws = gen.poisson(n * lam, size=200_000)
        freq = float((np.abs(draws - n * lam) > n * x).mean())
        bound = poisson_atom_tail_bound(lam, n, x)
        sigma = math.sqrt(max(freq, 1.0 / 200_000) * (1 - freq) / 200_000)
        assert freq <= bound + 3 * sigma


# -- Gaussian sequence model -------------------------------------------------------------


def test_gaussian_model_validation():
    with pytest.raises(ValidationError):
        GaussianSequenceModel(signal=np.array([np.inf]), noise=1.0)
    with pytest.raises(ValidationError):
        GaussianSequenceModel(signal=np.array([1.0]), noise=0.0)


# -- estimate_error -----------------------------------------------------------------------


def test_estimate_error_validates_budget():
    test = make_test([0.5, 0.5], [0.9, 0.1])
    with pytest.raises(ValidationError):
        estimate_error(test, F(0.5, 0.5), 5, 99, RngSpec(0, 0))
    with pytest.raises(ValidationError):
        estimate_error(test, F(0.5, 0.5), 5, 0, RngSpec(0, 0))


def test_estimate_error_constant_accept_is_exact_zero():
    from consistency_lab.partition_tests import FrequencyTest

    # identical vector sets: every outcome is a tie, ties accept
    test = FrequencyTest(
        hypothesis_vectors=[[0.5, 0.5]],
        alternative_vectors=[[0.5, 0.5]],
    )
    report = estimate_error(test, F(0.5, 0.5), 5, 1000, RngSpec(41, 0))
    assert report.estimate == 0.0 and report.lo == 0.0
    assert (report.lo, report.hi) == wilson_interval(0.0, 1000)
    # the type II error of the same test is exactly one
    report = estimate_error(test, F(0.5, 0.5), 5, 1000, RngSpec(41, 0), role="alternative")
    assert report.estimate == 1.0 and report.hi == 1.0
    assert (report.lo, report.hi) == wilson_interval(1.0, 1000)


def test_estimate_error_matches_exact_oracle():
    test = make_test([0.5, 0.5], [1.0, 0.0])
    exact = exact_error(test, F(0.5, 0.5), 2)[0]
    report = estimate_error(test, F(0.5, 0.5), 2, 100_000, RngSpec(43, 0))
    assert_allclose(exact, 0.25, atol=1e-12)
    sigma = math.sqrt(exact * (1 - exact) / 100_000)
    assert abs(report.estimate - exact) <= 3 * sigma


def test_estimate_error_ci_shrinks_with_replications():
    test = make_test([0.5, 0.5], [0.9, 0.1])
    small = estimate_error(test, F(0.5, 0.5), 10, 10_000, RngSpec(47, 0))
    large = estimate_error(test, F(0.5, 0.5), 10, 20_000, RngSpec(47, 64))
    ratio = (large.hi - large.lo) / (small.hi - small.lo)
    assert 0.55 <= ratio <= 0.9  # roughly 1/sqrt(2)


def test_estimate_error_accept_side():
    test = make_test([0.5, 0.5], [0.9, 0.1])
    beta_exact = exact_error(test, F(0.9, 0.1), 30)[1]
    report = estimate_error(
        test, F(0.9, 0.1), 30, 50_000, RngSpec(53, 0), role="alternative"
    )
    sigma = math.sqrt(max(beta_exact * (1 - beta_exact), 1e-9) / 50_000)
    assert abs(report.estimate - beta_exact) <= 4 * sigma


def test_estimate_error_density_model():
    uniform = DensitySpec.uniform()
    tilt = DensitySpec.pu_family(0.4)
    test = separation([uniform], [tilt], Partition.half_split())
    cell_law = FiniteMeasure(test.hypothesis_vectors[0])
    exact = exact_error(test, cell_law, 100)[0]
    mc = estimate_error(test, cell_law, 100, 20_000, RngSpec(59, 0))
    sigma = math.sqrt(max(exact * (1 - exact), 1e-9) / 20_000)
    assert abs(mc.estimate - exact) <= 4 * sigma


def test_wilson_interval_bounds():
    low, high = wilson_interval(0.0, 1000)
    assert 0.0 <= low <= 1e-12 and low < high < 0.01
    low, high = wilson_interval(0.5, 1000)
    assert 0.45 < low < 0.5 < high < 0.55


@pytest.mark.parametrize("replications", [100, 1000, 2000, 4000])
def test_wilson_interval_holds_every_estimate(replications):
    """Every estimate k/n a Monte Carlo run can give lies in its own interval,
    and the interval of 0 starts at 0, that of 1 ends at 1, exactly."""
    for k in range(replications + 1):
        estimate = k / replications
        low, high = wilson_interval(estimate, replications)
        assert 0.0 <= low <= estimate <= high <= 1.0, (k, low, high)
    assert wilson_interval(0.0, replications)[0] == 0.0
    assert wilson_interval(1.0, replications)[1] == 1.0


@pytest.mark.parametrize(
    "estimate, replications, message",
    [
        (0.5, 0, "replications must be an integer >= 1"),
        (0.5, -3, "replications must be an integer >= 1"),
        (1.5, 100, r"estimate in \[0, 1\], got 1.5"),
        (-0.1, 100, r"estimate in \[0, 1\]"),
        (math.nan, 100, r"estimate in \[0, 1\], got nan"),
    ],
)
def test_wilson_interval_rejects_what_is_not_a_proportion(estimate, replications, message):
    with pytest.raises(ValidationError, match=message):
        wilson_interval(estimate, replications)


# -- binning draws into cells and counting them -------------------------------------------

_EDGE_MODELS = [DensitySpec.one_plus_sine(i) for i in (1, 2, 3)] + [
    DensitySpec.cesaro_mixture(8),
    DensitySpec.pu_family(0.4),
]
_DYADIC_PARTITIONS = [
    Partition.half_split(),
    Partition.intervals(np.arange(5) / 4),
    Partition.intervals(np.arange(9) / 8),
]


def _bin(probs, uniforms):
    """The path replay's binning: the cell of the draw from the cell law ``probs``
    behind each uniform counts the interior cumulative probabilities at or below it."""
    return _cells_below(np.cumsum(probs[:-1]), uniforms, np.empty(uniforms.shape, np.uint8))


@pytest.mark.parametrize("model", _EDGE_MODELS, ids=DensitySpec.label)
def test_edge_binning_equals_quantile_binning(model):
    """On dyadic edges, which bisection visits exactly, the cells agree draw for draw."""
    uniforms = RngSpec(101, 0).generator().random((40, 1000))
    points = model.quantile(uniforms)
    for partition in _DYADIC_PARTITIONS:
        his = np.array([hi for _, hi in partition.cells])
        cells, k = _bin(model.cell_law(partition).weights, uniforms), partition.k
        assert cells.shape == uniforms.shape
        assert np.array_equal(cells, np.searchsorted(his, points, side="left"))
        assert set(np.unique(cells)) == set(range(k))


@pytest.mark.parametrize(
    "model", [DensitySpec.uniform()] + _EDGE_MODELS, ids=DensitySpec.label
)
def test_edge_binning_extreme_uniforms(model):
    extremes = np.array([0.0, 1.0 - 2.0**-53])
    for partition in _DYADIC_PARTITIONS:
        cells = _bin(model.cell_law(partition).weights, extremes)
        assert cells.tolist() == [0, partition.k - 1]


@pytest.mark.parametrize("n_edges", [1, 2, 3, 8, 64, 128, 129, 300])
def test_cells_below_equals_searchsorted(n_edges):
    """Counted edges match ``searchsorted`` on and next to every edge, with and
    without zero weights, which repeat a cumulative weight (and put one at 0),
    into the replay's ``uint8`` cells below 256 cells and ``intp`` cells above."""
    gen = RngSpec(107, n_edges).generator()
    weights = gen.random(n_edges + 1)
    sparse = weights.copy()
    sparse[::2] = 0.0
    for w in (weights, sparse):
        edges = np.cumsum(w / w.sum())[:-1]
        uniforms = np.concatenate(
            [
                edges,
                np.nextafter(edges, -np.inf),
                np.nextafter(edges, np.inf),
                [0.0, 1.0 - 2.0**-53],
                gen.random(1000),
            ]
        )
        out = np.empty(uniforms.shape, dtype=np.uint8 if n_edges < 256 else np.intp)
        cells = _cells_below(edges, uniforms, out)
        assert cells is out
        assert np.array_equal(cells, np.searchsorted(edges, uniforms, side="right"))


@pytest.mark.parametrize(
    "model, partition",
    [
        (F(0.1, 0.2, 0.3, 0.4), Partition.atoms([[0, 3], [1], [2]])),
        (DensitySpec.one_plus_sine(3), Partition.intervals([0.0, 0.1, 0.35, 0.7, 1.0])),
        (F(0.1, 0.2, 0.3, 0.4), None),
    ],
    ids=["atom-groups-out-of-order", "sine-non-dyadic-edges", "atoms-as-cells"],
)
def test_bin_draws_follows_induced_vector(model, partition):
    """A draw's cell counts the cumulative probabilities of the ``cell_law``, the
    exact columns' cells, at or below its uniform; so the cells occur at its rates."""
    uniforms = RngSpec(109, 0).generator().random((40, 1000))
    probs = model.cell_law(partition).weights
    cells, k = _bin(probs, uniforms), probs.size
    expected = np.searchsorted(np.cumsum(probs)[:-1], uniforms, side="right")
    assert np.array_equal(cells, expected)
    assert_allclose(np.bincount(cells.ravel(), minlength=k) / cells.size, probs, atol=0.01)


def test_bin_draws_rejects_density_without_interval_partition():
    """Draws fall into the cells of the ``cell_law``; a density has cells only
    under an interval partition."""
    for partition in (None, Partition.atoms([[0], [1]])):
        with pytest.raises(ValidationError, match="interval partition"):
            DensitySpec.uniform().cell_law(partition)


class _RecordingTest:
    """Rejects nothing and keeps what the block handed it."""

    def __init__(self):
        self.seen = []

    def rejects(self, counts):
        self.seen.append(counts)
        return np.zeros(counts.shape[0])


def test_poisson_block_without_atoms_gives_zero_counts():
    test = _RecordingTest()
    model = PoissonModel(1e-12, F(0.2, 0.3, 0.5))
    total = _simulate_error_block((test, model, 1, True, 300, RngSpec(107, 0)))
    assert total == 0.0
    (counts,) = test.seen
    assert counts.shape == (300, 3)
    assert not counts.any()


def test_poisson_block_counts_are_per_atom_poisson_draws():
    test = _RecordingTest()
    model = PoissonModel(0.5, F(0.2, 0.3, 0.5))
    _simulate_error_block((test, model, 4, True, 400, RngSpec(109, 0)))
    (counts,) = test.seen
    per_rep = counts.sum(1)
    assert (per_rep == 0).any() and (per_rep > 0).any()
    # the block's only draw: one Poisson count per replication and atom
    expected = RngSpec(109, 0).generator().poisson(4 * 0.5 * model.shape.weights, size=(400, 3))
    assert np.array_equal(counts, expected)


def test_poisson_process_mean_atom_count():
    """The atom total a Poisson error block hands its test is Poisson(n * mass)."""
    test = _RecordingTest()
    estimate_error(test, PoissonModel(1.0, F(0.5, 0.5)), 100, 10_000, RngSpec(11, 0))
    totals = np.concatenate(test.seen).sum(axis=1)
    assert totals.size == 10_000
    # Poisson(100): sd 10, standard error 0.1
    assert abs(float(totals.mean()) - 100.0) <= 3 * 0.1


def test_poisson_process_conditional_shape():
    """Given the total, a Poisson error block's atoms are i.i.d. from the shape."""
    test = _RecordingTest()
    estimate_error(test, PoissonModel(2.0, F(0.3, 0.7)), 10, 3000, RngSpec(13, 0))
    counts = np.concatenate(test.seen)
    atoms = int(counts.sum())
    freq = float(counts[:, 0].sum() / atoms)
    sigma = math.sqrt(0.3 * 0.7 / atoms)
    assert abs(freq - 0.3) <= 3 * sigma


@pytest.mark.parametrize(
    "model, partition",
    [
        (F(0.2, 0.3, 0.5), None),
        (F(0.1, 0.2, 0.3, 0.4), Partition.atoms([[0, 3], [1], [2]])),
        (DensitySpec.pu_family(0.4), Partition.intervals(np.arange(5) / 4)),
    ],
    ids=["atoms-as-cells", "atom-partition", "density"],
)
def test_iid_block_counts_are_multinomial_draws(model, partition):
    test = _RecordingTest()
    law = model.cell_law(partition)
    probs = law.weights
    _simulate_error_block((test, law, 37, True, 400, RngSpec(131, 0)))
    (counts,) = test.seen
    # the block's only draw: the cell counts of 37 draws per replication
    expected = RngSpec(131, 0).generator().multinomial(37, probs, size=400)
    assert np.array_equal(counts, expected)
    assert counts.shape == (400, probs.size) and (counts.sum(axis=1) == 37).all()


def test_iid_block_rejects_density_without_partition():
    """An i.i.d. model is a cell law; a density gives one only under a partition."""
    test = _RecordingTest()
    with pytest.raises(ValidationError, match="DensitySpec.*partition"):
        estimate_error(test, DensitySpec.uniform(), 5, 100, RngSpec(0, 0), workers=2)
    assert test.seen == []  # refused before any block draws


def test_iid_error_block_cost_does_not_grow_with_n():
    n = 10**7  # drawing the observations would take 8192e7 uniforms here
    uniform = DensitySpec.uniform()
    test = separation([uniform], [DensitySpec.pu_family(0.4)], Partition.half_split())
    law = FiniteMeasure(test.hypothesis_vectors[0])
    t0 = time.perf_counter()
    total = _simulate_error_block((test, law, n, True, ERROR_BLOCK, RngSpec(137, 0)))
    assert time.perf_counter() - t0 < 1.0
    assert total == 0.0


def test_density_estimate_is_independent_of_workers():
    uniform = DensitySpec.uniform()
    test = separation([uniform], [DensitySpec.pu_family(0.4)], Partition.half_split())
    law = FiniteMeasure(test.hypothesis_vectors[0])
    reps = 3 * ERROR_BLOCK + 1  # four blocks, two per worker
    serial = estimate_error(test, law, 8, reps, RngSpec(139, 0), workers=1)
    parallel = estimate_error(test, law, 8, reps, RngSpec(139, 0), workers=2)
    assert serial == parallel
    assert 0.0 < serial.estimate < 1.0


def test_worker_pool_keeps_task_order():
    with WorkerPool(2) as pool:
        assert pool.map(str, list(range(7))) == [str(i) for i in range(7)]


def test_worker_pool_starts_no_more_processes_than_blocks(monkeypatch):
    """A worker count far above the block count starts one process per block;
    the recording executor runs the blocks here and starts no process."""
    started = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            started.append(max_workers)

        def map(self, fn, tasks, chunksize):
            return map(fn, tasks)

        def shutdown(self):
            pass

    monkeypatch.setattr(simulation, "ProcessPoolExecutor", RecordingExecutor)
    with WorkerPool(100000) as pool:
        assert pool.map(str, list(range(3))) == ["0", "1", "2"]
        assert pool.map(str, list(range(7))) == [str(i) for i in range(7)]  # the same pool
    assert started == [3]
    uniform = DensitySpec.uniform()
    test = separation([uniform], [DensitySpec.pu_family(0.4)], Partition.half_split())
    law = FiniteMeasure(test.hypothesis_vectors[0])
    reps = ERROR_BLOCK + 1  # two blocks
    many = estimate_error(test, law, 8, reps, RngSpec(139, 0), workers=100000)
    assert started == [3, 2]
    assert many == estimate_error(test, law, 8, reps, RngSpec(139, 0), workers=1)


def test_process_pool_class_loads_on_first_access():
    """``ProcessPoolExecutor`` stays a module attribute, imported when first
    read; any other missing name is an ``AttributeError`` naming the module."""
    import concurrent.futures

    assert simulation.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor
    message = "module 'consistency_lab.simulation' has no attribute 'no_such_name'"
    with pytest.raises(AttributeError, match=message):
        simulation.no_such_name


def test_unpatched_worker_pool_returns_the_serial_result(monkeypatch):
    """A pool that starts before the class is loaded loads it, and its two
    processes give the bits of one."""
    monkeypatch.delattr(simulation, "ProcessPoolExecutor")
    assert "ProcessPoolExecutor" not in vars(simulation)
    test = separation(
        [DensitySpec.uniform()], [DensitySpec.pu_family(0.4)], Partition.half_split()
    )
    law = FiniteMeasure(test.hypothesis_vectors[0])
    reps = ERROR_BLOCK + 1  # two blocks
    with WorkerPool(2) as pool:
        pooled = estimate_error(test, law, 8, reps, RngSpec(139, 0), workers=pool)
        assert pool._executor is not None
    assert pooled == estimate_error(test, law, 8, reps, RngSpec(139, 0), workers=1)


def _workload_scenarios():
    """The scenario files of the benchmark workloads, as dicts."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.SCENARIOS


@pytest.mark.parametrize("seed", [1, 2, 7])
@pytest.mark.parametrize("name", ["kolmogorov-4cells", "sine-1-3-half"])
def test_error_table_monte_carlo_agrees_with_exact_columns(name, seed):
    """Every row with finite exact columns passes a two-sided binomial test at 1e-6."""
    binomtest = pytest.importorskip("scipy.stats").binomtest
    scenario = scenario_from_dict(_workload_scenarios()[name])
    reps = scenario.sim.replications
    table = run_scenario(scenario, seed=seed).tables["errors"]
    checked = 0
    for values in table.rows:
        row = dict(zip(table.columns, values))
        if math.isnan(row["total_exact"]):
            continue
        for kind in ("alpha", "beta"):
            hits = round(row[f"{kind}_mc"] * reps)
            assert binomtest(hits, reps, row[f"{kind}_exact"]).pvalue >= 1e-6, (row, kind)
            checked += 1
    assert checked >= 2 * len(scenario.sim.n_grid)


def test_error_table_simulates_the_hypothesis_attaining_alpha_exact():
    """With several hypotheses, alpha_mc estimates the member whose exact alpha is the max."""
    binomtest = pytest.importorskip("scipy.stats").binomtest
    scenario = scenario_from_dict({
        "name": "two-hypotheses",
        "model": {"type": "density"},
        "hypothesis": [{"kind": "uniform"}, {"kind": "pu_family", "u": 0.1}],
        "alternative": [{"kind": "pu_family", "u": 0.6}],
        "partition": {"cells": [[0.0, 0.5], [0.5, 1.0]]},
        "sim": {"replications": 4000, "n_grid": [32]},
    })
    table = run_scenario(scenario, seed=3).tables["errors"]
    (row,) = [dict(zip(table.columns, values)) for values in table.rows]
    assert row["alpha_exact"] > 0.05  # attained by pu_family(0.1), not by uniform
    hits = round(row["alpha_mc"] * 4000)
    assert binomtest(hits, 4000, row["alpha_exact"]).pvalue >= 1e-6


def _two_argument_decision(test, counts, totals):
    """The two-stage decision from counts and separately passed atom totals."""
    totals = np.asarray(totals, dtype=float)
    count_reject = np.abs(totals - test.n * test.mass0) > test.n * test.deviation_rate
    if test.frequency_test is None:
        return count_reject.astype(float)
    freq_reject = (test.frequency_test.rejects(counts) > 0.5) & (totals > 0)
    return (count_reject | freq_reject).astype(float)


def test_poisson_two_stage_rejects_takes_totals_as_row_sums():
    counts = RngSpec(113, 0).generator().poisson([0.5, 1.0], size=(500, 2))
    totals = counts.sum(axis=1)
    assert (totals == 0).any() and (totals > 0).any()
    nearest = separation([F(0.5, 0.5)], [F(0.3, 0.7)], Partition.identity(2))
    for freq_test in (None, nearest):
        test = PoissonTwoStageTest(n=2, mass0=1.0, deviation_rate=1.0, frequency_test=freq_test)
        decision = test.rejects(counts)
        assert 0.0 < decision.mean() < 1.0
        assert np.array_equal(decision, _two_argument_decision(test, counts, totals))


def test_poisson_error_cost_does_not_grow_with_n():
    n = 10**9  # an atom draw would need about 1e12 uniforms here
    rate, _ = poisson_count_threshold(1.0, n, target=1.0 / (n * n))
    test = PoissonTwoStageTest(n=n, mass0=1.0, deviation_rate=rate)
    t0 = time.perf_counter()
    report = estimate_error(test, PoissonModel(1.0, F(0.5, 0.5)), n, 1000, RngSpec(113, 0))
    assert time.perf_counter() - t0 < 1.0
    assert report.estimate == 0.0


# -- discernibility paths -------------------------------------------------------------------


def _schedule_for(alternatives, exponents, n_max):
    hyp = F(0.5, 0.5)
    members = []
    for alt, c in zip(alternatives, exponents):
        test = separation([hyp], [F(*alt)], Partition.identity(2))
        members.append(TestFamilyMember(test, exponent=c, onset=1))
    return interleave(members, n_max)


def test_discernibility_curve_monotone_and_zero_at_end():
    schedule = _schedule_for([[0.9, 0.1]], [0.05], 256)
    curve = discernibility_paths(
        schedule, F(0.5, 0.5), 256, list(range(0, 257, 32)), 400, RngSpec(61, 0),
        role="hypothesis",
    )
    fractions = curve
    assert np.all(np.diff(fractions) <= 1e-12)
    assert fractions[-1] == 0.0


def test_discernibility_perfect_family_never_errs():
    hyp = F(1.0, 0.0)
    test = separation([hyp], [F(0.0, 1.0)], Partition.identity(2))
    schedule = interleave([TestFamilyMember(test, exponent=2.0, onset=1)], 64)
    curve = discernibility_paths(
        schedule, hyp, 64, [0, 16, 64], 300, RngSpec(67, 0), role="hypothesis"
    )
    assert np.all(curve == 0.0)
    curve_alt = discernibility_paths(
        schedule, F(0.0, 1.0), 64, [0, 16, 64], 300, RngSpec(68, 0), role="alternative"
    )
    assert np.all(curve_alt == 0.0)


def test_discernibility_validation():
    schedule = _schedule_for([[0.9, 0.1]], [0.5], 64)
    # paths are drawn from a cell law; a density gives one only under a partition
    refusal = "^unsupported model type DensitySpec: the replay draws from a FiniteMeasure cell law"
    with pytest.raises(ValidationError, match=refusal):
        discernibility_paths(schedule, DensitySpec.uniform(), 64, [0], 100, RngSpec(0, 0))
    with pytest.raises(ValidationError):
        discernibility_paths(schedule, F(0.5, 0.5), 64, [5, 3], 100, RngSpec(0, 0))
    with pytest.raises(ValidationError):
        discernibility_paths(schedule, F(0.5, 0.5), 200, [0], 100, RngSpec(0, 0))
    with pytest.raises(ValidationError):
        discernibility_paths(
            schedule, F(0.5, 0.5), 64, [0], 100, RngSpec(0, 0), role="both"
        )


def _count_pool_starts(monkeypatch) -> list:
    """Every process pool the simulation starts from now on, one entry each."""
    starts = []

    class CountingPool(simulation.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(simulation, "ProcessPoolExecutor", CountingPool)
    return starts


@pytest.mark.parametrize(
    "model",
    [DensitySpec.uniform(), PoissonModel(1.0, F(0.5, 0.5))],
    ids=["density", "poisson"],
)
def test_discernibility_refuses_a_model_without_cell_law_before_any_pool(monkeypatch, model):
    """A model that is not a cell law is named and refused before a pool starts,
    though the replay has two blocks for two workers."""
    starts = _count_pool_starts(monkeypatch)
    schedule = _schedule_for([[0.9, 0.1]], [0.5], 64)
    name = type(model).__name__
    with pytest.raises(ValidationError) as refused:
        discernibility_paths(schedule, model, 64, [0], 2 * PATH_BLOCK, RngSpec(0, 0), workers=2)
    assert str(refused.value) == (
        f"unsupported model type {name}: the replay draws from a FiniteMeasure cell law, "
        "such as an entry of Scenario.cell_laws"
    )
    assert starts == []
    # the same replay of a cell law starts one pool
    discernibility_paths(schedule, F(0.5, 0.5), 64, [0], 2 * PATH_BLOCK, RngSpec(0, 0), workers=2)
    assert len(starts) == 1


# -- segment replay against the per-n loop -----------------------------------------------


def _reference_path_block(schedule, model, n_max, k_grid, role, size, rng):
    """The replay as a per-n loop: one ``rejects`` call per prefix length."""
    gen = rng.generator()
    cum = np.cumsum(model.weights)
    cum[-1] = 1.0
    cells = np.searchsorted(cum, gen.random((size, n_max)), side="right")
    k = model.alphabet_size
    counts = np.zeros((size, k), dtype=np.int64)
    rows = np.arange(size)
    last_error = np.zeros(size, dtype=np.int64)
    for n in range(1, n_max + 1):
        counts[rows, cells[:, n - 1]] += 1
        rejected = np.asarray(schedule.test_at(n).rejects(counts)) > 0.5
        errors = rejected if role == "hypothesis" else ~rejected
        last_error[errors] = n
    return np.array([(last_error > k).sum() for k in k_grid], dtype=np.int64)


def _reference_curve(schedule, model, n_max, k_grid, replications, rng, role):
    full, rest = divmod(replications, PATH_BLOCK)
    sizes = [PATH_BLOCK] * full + ([rest] if rest else [])
    total = sum(
        _reference_path_block(schedule, model, n_max, k_grid, role, size, rng.block(b))
        for b, size in enumerate(sizes)
    )
    return total / replications


def _replay_case(case):
    """(schedule, hypothesis cell law, alternative cell law) for one replay case.

    The first block tests against a point 40% of the way to the first piece,
    so its decisions differ often from the later test against both pieces.
    Exponent 0.05 puts the block boundary at 89, inside the second segment.
    Both roles draw from the report's cell laws: the hypothesis and the first piece.

    In the two-cell cases both roles draw their paths from (0.75, 0.25).
    ``tie`` tests (0.5, 0.5) against (1, 0): a path sits on an exact tie at
    every ``n`` where its first-cell count is ``3n/4``; 88 members of exponent
    30 that share the test make blocks, and so segments, of length 1 for
    ``n`` = 3..88. ``tight`` tests
    (-1, 2) against (1, 0), whose margin is twice the first-cell frequency:
    the 2-Lipschitz bound is attained, and a path whose first draw lands in
    the second cell accepts at ``n = 1`` and rejects soon after.
    """
    if case in ("tie", "tight"):
        hypothesis = [0.5, 0.5] if case == "tie" else [-1.0, 2.0]
        test = FrequencyTest([hypothesis], [[1.0, 0.0]])
        if case == "tie":
            members = [TestFamilyMember(test, 30.0)] * 88
        else:
            members = [TestFamilyMember(test, 0.05)]
        return interleave(members, 1024), F(0.75, 0.25), F(0.75, 0.25)
    if case == "density":
        hypothesis = DensitySpec.uniform()
        pieces = [DensitySpec.pu_family(0.4), DensitySpec.one_plus_sine(1)]
        partition = Partition.intervals([0.0, 0.3, 0.5, 1.0])
    else:
        hypothesis = F(0.25, 0.25, 0.25, 0.25)
        pieces = [F(0.4, 0.4, 0.1, 0.1), F(0.05, 0.05, 0.45, 0.45)]
        partition = Partition.atoms([[0, 1], [2, 3]])
    report = separation([hypothesis], pieces, partition)
    h, a = report.hypothesis_vectors, report.alternative_vectors
    weak = FrequencyTest(h, h + 0.4 * (a[:1] - h))
    both = FrequencyTest(h, a)
    members = [TestFamilyMember(weak, 0.05), TestFamilyMember(both, 0.05)]
    return interleave(members, 1024), FiniteMeasure(h[0]), FiniteMeasure(a[0])


def _recorded_rows(monkeypatch):
    """Every frequency row that ``FrequencyTest.decide`` decides from now on, and
    a ``None`` for every ``settled`` call: the replay calls ``settled`` once per
    segment, the per-n loop never."""
    seen = []
    decide, settled = FrequencyTest.decide, FrequencyTest.settled

    def recording(self, freq):
        seen.append(freq.T.copy())  # callers may reuse the array
        return decide(self, freq)

    def marking(self, freq, drift):
        seen.append(None)
        return settled(self, freq, drift)

    monkeypatch.setattr(FrequencyTest, "decide", recording)
    monkeypatch.setattr(FrequencyTest, "settled", marking)
    return seen


def _rows_by_segment(seen, segments):
    """``(lo, hi, rows)`` for every recorded ``decide`` call of a replay, with
    the segment of the ``settled`` call before it; blocks walk every segment."""
    out, index = [], -1
    for rows in seen:
        if rows is None:
            index += 1
        else:
            lo, hi, _ = segments[index % len(segments)]
            out.append((lo, hi, rows))
    return out


@pytest.mark.parametrize("case", ["atoms", "density", "tie", "tight"])
@pytest.mark.parametrize("role", ["hypothesis", "alternative"])
def test_segment_replay_matches_per_n_loop(case, role, monkeypatch):
    schedule, hypothesis, alternative = _replay_case(case)
    model = hypothesis if role == "hypothesis" else alternative
    seen = _recorded_rows(monkeypatch)
    # 200 is not a multiple of the segment length and settles few paths;
    # at 1024 most paths settle in most segments.
    for n_max in (3 * PATH_SEGMENT + 8, 1024):
        ks = list(range(n_max + 1))
        for replications in (PATH_BLOCK + 1, 1):  # the last block holds one path
            rng = RngSpec(71, replications)
            seen.clear()
            curve = discernibility_paths(schedule, model, n_max, ks, replications, rng, role=role)
            replayed = _rows_by_segment(seen, _constant_segments(schedule, n_max))
            seen.clear()
            want = _reference_curve(schedule, model, n_max, ks, replications, rng, role)
            assert np.array_equal(curve, want)
            if replications == 1:
                continue
            if case != "tight":  # the curves compared are not trivial (tight rejects at once)
                assert 0.0 < want[1] < 1.0
            decided = sum(len(rows) for _, _, rows in replayed)
            if n_max == 1024:  # settled paths skip rows; open paths of long segments remain
                assert decided < replications * n_max
                assert decided > 0
            if case == "tie":  # no exact tie ever settles
                def ties(rows):  # frequencies (3/4, 1/4), exact at counts (3n/4, n/4)
                    return rows[:, 0] == 0.75

                reference = np.concatenate(seen)
                assert sum(ties(rows).sum() for _, _, rows in replayed) == ties(reference).sum() > 0
                # where segments have length 1 only exact ties stay open
                single = [rows for lo, hi, rows in replayed if hi - lo == 1]
                assert single and all(ties(rows).all() for rows in single)


@pytest.mark.parametrize("case", ["atoms", "density"])
def test_segment_replay_in_row_chunks_matches_per_n_loop(case, monkeypatch):
    schedule, hypothesis, _ = _replay_case(case)
    n_max, reps = 3 * PATH_SEGMENT + 8, PATH_BLOCK + 1
    ks = list(range(0, n_max + 1, 4))
    monkeypatch.setattr(simulation, "PATH_DRAW_CHUNK", 3 * n_max + 1)  # 3 paths at a time
    curve = discernibility_paths(schedule, hypothesis, n_max, ks, reps, RngSpec(83, 0))
    want = _reference_curve(schedule, hypothesis, n_max, ks, reps, RngSpec(83, 0), "hypothesis")
    assert np.array_equal(curve, want)


def test_path_replay_at_a_million_draws_stays_in_bounded_memory():
    """100 paths at n_max 10^6, which took 956 MiB drawn at once."""
    scenario = scenario_nested_alternatives([F(0.9, 0.1), F(0.1, 0.9)], n_max=10**6)
    schedule = nested_schedule(scenario)
    tracemalloc.start()
    try:
        curve = discernibility_paths(
            schedule, F(0.5, 0.5), 10**6, [0, 1000, 10**6], 100, RngSpec(89, 0)
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200e6
    assert curve[0] > 0.0 and curve[-1] == 0.0


def test_path_replay_above_its_cell_limit_fails_before_allocating():
    schedule = _schedule_for([[0.9, 0.1]], [0.05], 10**7)
    paths = MAX_PATH_CELL_BYTES // 10**7 + 1
    with pytest.raises(ResourceLimitError) as info:
        discernibility_paths(schedule, F(0.5, 0.5), 10**7, [0], paths, RngSpec(0, 0))
    assert str(info.value) == (
        f"path replay: {paths} paths at n_max = 10000000 need {paths * 10**7} bytes "
        f"of cells, above the {MAX_PATH_CELL_BYTES} byte limit"
    )


@pytest.mark.parametrize("case", ["atoms"])
def test_segment_replay_matches_per_n_loop_with_two_workers(case):
    schedule, hypothesis, _ = _replay_case(case)
    ks = list(range(0, 201, 10))
    rng = RngSpec(73, 0)
    reps = 2 * PATH_BLOCK + 3
    curve = discernibility_paths(schedule, hypothesis, 200, ks, reps, rng, workers=2)
    want = _reference_curve(schedule, hypothesis, 200, ks, reps, rng, "hypothesis")
    assert np.array_equal(curve, want)


@pytest.mark.parametrize("size", [5, 130, 300])  # 300 atoms take intp cells
def test_segment_replay_matches_per_n_loop_on_long_alphabets(size):
    hypothesis = FiniteMeasure(np.full(size, 1.0 / size))
    tilt = np.linspace(0.0, 2.0, size)
    alternative = FiniteMeasure(tilt / tilt.sum())
    test = separation([hypothesis], [alternative], Partition.identity(size))
    schedule = interleave([TestFamilyMember(test, 0.05)], 1024)
    n_max = PATH_SEGMENT + 8
    ks = list(range(n_max + 1))
    for model, role in ((hypothesis, "hypothesis"), (alternative, "alternative")):
        rng = RngSpec(79, size)
        curve = discernibility_paths(schedule, model, n_max, ks, PATH_BLOCK + 1, rng, role=role)
        want = _reference_curve(schedule, model, n_max, ks, PATH_BLOCK + 1, rng, role)
        assert np.array_equal(curve, want)
        assert 0.0 < want[8] < 1.0


def test_path_replay_is_fast():
    """Acceptance-criterion size: nested 2x2 schedule, 1000 paths, n_max 2048."""
    scenario = scenario_nested_alternatives(
        [F(0.9, 0.1), F(0.1, 0.9)], n_max=2048, replications=1000,
    )
    schedule = nested_schedule(scenario)
    ks = list(range(0, 2049, 64))
    models = [(F(0.5, 0.5), "hypothesis"), (F(0.9, 0.1), "alternative"), (F(0.1, 0.9), "alternative")]
    for index, (model, role) in enumerate(models):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            discernibility_paths(schedule, model, 2048, ks, 1000, RngSpec(83, index), role=role)
            times.append(time.perf_counter() - start)
        assert min(times) < 1.0
