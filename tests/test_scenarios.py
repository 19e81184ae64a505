import copy
import dataclasses
import importlib.util
import json
import math
import pickle
import sys
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest

from consistency_lab import scenarios, simulation
from consistency_lab.cli import load_scenario
from consistency_lab.errors import (
    ConstructionError,
    DegenerateScenarioError,
    ValidationError,
)
from consistency_lab.distances import hull_variation, hull_variation_prefixes
from consistency_lab.measures import (
    DensitySpec,
    FiniteMeasure,
    GaussianSequenceModel,
    Partition,
    PoissonModel,
    discretize,
)
from consistency_lab.partition_tests import (
    FrequencyTest,
    LinearFunctionalTest,
    PoissonTwoStageTest,
    UnionTest,
    build_frequency_test,
    exact_error,
    poisson_count_threshold,
    separation,
)
from consistency_lab.reports import scenario_hash
from consistency_lab.scenarios import (
    Scenario,
    SimParams,
    build_nested_family,
    nested_schedule,
    run_scenario,
    scenario_from_dict,
    scenario_kolmogorov_family,
    scenario_mazur_mixture,
    scenario_nested_alternatives,
    scenario_poisson,
    scenario_signal_detection,
    scenario_sine_indistinguishable,
)
from consistency_lab.scheduler import TestFamilyMember, interleave
from consistency_lab.simulation import (
    RngSpec,
    discernibility_paths,
    estimate_error,
    poisson_atom_tail_bound,
    wilson_interval,
)


def F(*weights):
    return FiniteMeasure(np.array(weights, dtype=float))


def table_dict(table):
    return [dict(zip(table.columns, row)) for row in table.rows]


# -- sine scenario --------------------------------------------------------------------


def test_sine_scenario_margins():
    scenario = scenario_sine_indistinguishable(2)
    run = run_scenario(scenario, seed=1)
    rows = table_dict(run.tables["separation"])
    assert rows[0]["margin"] == pytest.approx(1 / math.pi, abs=1e-12)
    assert rows[1]["margin"] == 0.0


def test_sine_scenario_margin_decay_bound():
    part = Partition.intervals([0.0, 0.25, 0.5, 0.75, 1.0])
    scenario = scenario_sine_indistinguishable(32, grid_size=64, partition=part)
    run = run_scenario(scenario, seed=1)
    rows = table_dict(run.tables["separation"])
    for i in (8, 16, 32):
        assert rows[i - 1]["margin"] <= 4 / (math.pi * i) + 1e-12


def test_sine_scenario_period_aligned_margins_non_increasing():
    scenario = scenario_sine_indistinguishable(32)  # half-split partition
    run = run_scenario(scenario, seed=1)
    rows = table_dict(run.tables["separation"])
    margins = [rows[i - 1]["margin"] for i in (2, 4, 8, 16, 32)]
    assert all(b <= a + 1e-12 for a, b in zip(margins, margins[1:]))
    assert all(m == 0.0 for m in margins)  # even frequencies align with the split


def test_sine_scenario_reports_hull():
    run = run_scenario(scenario_sine_indistinguishable(3, grid_size=32), seed=1)
    hull = run.reports["hull"]
    assert 0.0 <= hull["value"] <= 1.0
    assert hull["kraft_bound"] == pytest.approx(1.0 - hull["value"])
    assert len(hull["mixture_q"]) == 3


# -- Mazur scenario -------------------------------------------------------------------


def test_mazur_scenario_values():
    run = run_scenario(scenario_mazur_mixture(4, grid_size=32), seed=1)
    rows = table_dict(run.tables["cesaro"])
    assert rows[0]["tv_mixture"] == pytest.approx(1 / math.pi, abs=1e-6)
    assert rows[0]["kraft_mixture"] == pytest.approx(1 - 1 / math.pi, abs=1e-6)
    tvs = [r["tv_mixture"] for r in rows]
    assert all(b < a for a, b in zip(tvs, tvs[1:]))
    hulls = [r["hull_value"] for r in rows]
    assert all(b <= a + 1e-9 for a, b in zip(hulls, hulls[1:]))


def _hull_lp_sizes(monkeypatch):
    """Kind and number of alternatives of every hull LP that ``scenarios``
    solves from now on: ``("cold", j)`` for one LP, ``("scan", j)`` for the
    prefixes ``1..j`` of one scan."""
    sizes = []

    def cold(a, b):
        sizes.append(("cold", len(b)))
        return hull_variation(a, b)

    def scan(a, b):
        sizes.append(("scan", len(b)))
        return hull_variation_prefixes(a, b)

    monkeypatch.setattr(scenarios, "hull_variation", cold)
    monkeypatch.setattr(scenarios, "hull_variation_prefixes", scan)
    return sizes


def test_mazur_scenario_solves_its_own_hull_lp_once(monkeypatch):
    sizes = _hull_lp_sizes(monkeypatch)
    run = run_scenario(scenario_mazur_mixture(4, grid_size=32), seed=1)
    # rows 1..3 come from one scan; the m = 4 Cesaro row is the scenario's LP
    assert sizes == [("cold", 4), ("scan", 3)]
    assert table_dict(run.tables["cesaro"])[-1]["hull_value"] == run.reports["hull"]["value"]


@pytest.mark.parametrize(
    "change",
    [
        {"alternative": [DensitySpec.one_plus_sine(i) for i in range(2, 6)]},
        {"alternative": [DensitySpec.one_plus_sine(i) for i in range(4, 0, -1)]},
        {"hypothesis": [DensitySpec.pu_family(0.1)]},
    ],
    ids=["sines-2-5", "sines-4-1", "hypothesis"],
)
def test_cesaro_scan_solves_a_fresh_lp_for_other_families(change, monkeypatch):
    scenario = dataclasses.replace(scenario_mazur_mixture(4, grid_size=32), **change)
    sizes = _hull_lp_sizes(monkeypatch)
    run = run_scenario(scenario, seed=1)
    assert sizes == [("cold", len(scenario.alternative)), ("scan", 3), ("cold", 4)]
    fresh = hull_variation(
        [discretize(DensitySpec.uniform(), 32)],
        [discretize(DensitySpec.one_plus_sine(i), 32) for i in range(1, 5)],
    )
    assert table_dict(run.tables["cesaro"])[-1]["hull_value"] == fresh.value


def test_cesaro_scan_of_one_solves_no_scan(monkeypatch):
    sizes = _hull_lp_sizes(monkeypatch)
    run = run_scenario(scenario_mazur_mixture(1, grid_size=32), seed=1)
    assert sizes == [("cold", 1)]
    assert table_dict(run.tables["cesaro"])[-1]["hull_value"] == run.reports["hull"]["value"]


def test_cesaro_rows_match_cold_lps_within_rounding():
    run = run_scenario(scenario_mazur_mixture(6, grid_size=32), seed=1)
    uniform = [discretize(DensitySpec.uniform(), 32)]
    sines = [discretize(DensitySpec.one_plus_sine(i), 32) for i in range(1, 7)]
    for m, row in enumerate(table_dict(run.tables["cesaro"]), start=1):
        assert abs(row["hull_value"] - hull_variation(uniform, sines[:m]).value) <= 1e-12


# -- Kolmogorov scenario --------------------------------------------------------------


def test_kolmogorov_scenario_examples():
    scenario = scenario_kolmogorov_family([0.0, 0.4], n_grid=[100])
    run = run_scenario(scenario, seed=2, replications=2000)
    ks = table_dict(run.tables["ks"])
    assert ks[0]["ks_distance"] == 0.0
    assert ks[1]["ks_distance"] == pytest.approx(0.2, abs=1e-9)

    errors = table_dict(run.tables["errors"])
    with_test = [r for r in errors if r["model"] == "pu_family(0.4)"]
    assert with_test[0]["total_exact"] < 0.1  # u=0.4 at n=100
    degenerate = [r for r in errors if r["model"] == "pu_family(0)"]
    assert math.isnan(degenerate[0]["alpha_exact"])


def test_kolmogorov_scenario_error_curve_decreases():
    scenario = scenario_kolmogorov_family([0.4], n_grid=[16, 64, 256])
    run = run_scenario(scenario, seed=3, replications=500)
    totals = [r["total_exact"] for r in table_dict(run.tables["errors"])]
    assert totals[0] > totals[1] > totals[2]


def test_kolmogorov_scenario_validates_u():
    with pytest.raises(ValidationError):
        scenario_kolmogorov_family([1.0], n_grid=[10])


# -- signal detection scenario ---------------------------------------------------------


def test_signal_detection_analytic_and_monotone():
    scenario = scenario_signal_detection(
        [[0.0]], [[1.0]], 1, epsilon_list=[1.0, 0.5, 0.2, 0.1]
    )
    run = run_scenario(scenario, seed=4, replications=20_000)
    rows = table_dict(run.tables["epsilon_sweep"])
    assert rows[0]["total_analytic"] == pytest.approx(0.6170750774519738, abs=1e-12)
    assert rows[-1]["total_analytic"] == pytest.approx(5.733031437583892e-07, abs=1e-15)
    totals = [r["total_mc"] for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))


def test_signal_detection_noise_dominates_limit():
    test = LinearFunctionalTest(functional=np.array([1.0]), base=np.array([0.0]))
    assert 2.0 * test.error(1e6) > 0.999  # type I + type II


def test_signal_detection_projection_margins():
    theta1 = [[1.0 / (j + 1) for j in range(64)]]
    scenario = scenario_signal_detection([[0.0] * 64], theta1, 64, epsilon_list=[0.5])
    run = run_scenario(scenario, seed=5, replications=200)
    rows = table_dict(run.tables["projection"])
    # sup-norm margin is attained at the first coordinate already
    assert rows[0]["m"] == 1
    assert rows[0]["ratio"] >= 0.5
    assert rows[-1]["margin_projected"] == rows[-1]["margin_full"]


def test_signal_detection_zero_margin_rejected():
    with pytest.raises(ConstructionError):
        scenario_signal_detection([[0.0, 1.0]], [[0.0, 1.0]], 2, epsilon_list=[0.1])


# -- nested alternatives ----------------------------------------------------------------


def test_nested_single_piece_reduces_to_single_family():
    scenario = scenario_nested_alternatives(
        [F(0.9, 0.1)], n_max=128, replications=200
    )
    schedule = nested_schedule(scenario)
    # one block, family 1 from n = 1 on: no boundary, and n = 100 runs family 1
    assert [(start, end, index) for index, _, start, end in schedule.blocks()] == [(1, None, 1)]


def test_nested_union_still_detects_first_piece():
    hyp = [F(0.5, 0.5)]
    members = build_nested_family(hyp, [F(0.9, 0.1), F(0.1, 0.9)])
    union = members[1].test
    beta_union = exact_error(union, F(0.9, 0.1), 64)[1]
    solo = members[0].test
    beta_solo = exact_error(solo, F(0.9, 0.1), 64)[1]
    assert beta_union <= beta_solo + 1e-12
    assert beta_union < 1e-3


def test_nested_approaching_alternatives_have_positive_margins():
    pieces = [
        F(0.5 + 2.0 ** (-i), 0.5 - 2.0 ** (-i)) for i in range(2, 6)
    ]
    hyp = [F(0.5, 0.5)]
    for i, piece in enumerate(pieces, start=2):
        from consistency_lab.partition_tests import separation

        rep = separation(hyp, [piece], Partition.identity(2))
        assert rep.margin == pytest.approx(2.0 ** (-i))


def test_nested_zero_margin_piece_named():
    with pytest.raises(ConstructionError, match="piece 2"):
        build_nested_family([F(0.5, 0.5)], [F(0.9, 0.1), F(0.5, 0.5)])
    # a margin within the tie tolerance is no margin
    with pytest.raises(ConstructionError, match="^piece 1 has zero separation margin$"):
        build_nested_family([F(0.5, 0.5)], [F(0.5 + 5e-13, 0.5 - 5e-13)])


def _members(family) -> list:
    """Each member's vectors (as bytes), exponent and onset, to compare families bit for bit."""
    return [
        (m.test.hypothesis_vectors.tobytes(), m.test.alternative_vectors.tobytes(),
         m.exponent, m.onset)
        for m in family
    ]


def test_finite_scenario_without_partition_keeps_its_measures_as_cell_laws():
    """Without a partition a finite scenario's atoms are its cells: its cell
    laws are its own measures, and its family is theirs. Each measure is a
    fixed point of the constructor, so a second construction moves no bit."""
    pieces = [F(0.7, 0.2, 0.1), F(0.2, 0.7, 0.1)]
    assert all(FiniteMeasure(p.weights) == p for p in pieces)  # fixed points
    assert pieces[0].weights.tolist() == [0.7, 0.2, 0.1]  # stored as given
    scenario = Scenario(
        name="raw-atoms", model_type="finite", hypothesis=[F(0.1, 0.2, 0.7)], alternative=pieces
    )
    hypothesis, alternative = scenario.cell_laws
    laws, models = hypothesis + alternative, scenario.hypothesis + scenario.alternative
    assert len(laws) == len(models) == 3
    assert all(law is model for law, model in zip(laws, models))
    assert _members(scenario.family) == _members(
        build_nested_family(scenario.hypothesis, scenario.alternative)
    )


def test_finite_measures_are_fixed_points_of_their_constructor():
    """A vector off 1 by more than its rounding is divided by its sum once;
    the stored weights then make the same measure again, bit for bit."""
    gen = np.random.default_rng(17)
    for _ in range(2000):
        w = gen.random(int(gen.integers(2, 300)))
        measure = FiniteMeasure(w / w.sum() * (1 + gen.uniform(-5e-10, 5e-10)))
        assert np.array_equal(FiniteMeasure(measure.weights).weights, measure.weights)


def test_finite_scenario_json_round_trip_moves_no_bit():
    scenario = Scenario(
        name="round-trip", model_type="finite",
        hypothesis=[F(0.1, 0.2, 0.7)], alternative=[FiniteMeasure([0.7, 0.2, 0.1])],
    )
    parsed = scenario_from_dict(scenario.to_json_dict())
    assert parsed == scenario
    assert scenario_hash(parsed.to_json_dict()) == scenario_hash(scenario.to_json_dict())


def test_cell_laws_are_the_partition_images_of_the_models():
    """With a partition each law is the model's induced cell vector as a
    measure, and the family is built on those laws, not on the atoms."""
    scenario = Scenario(
        name="two-cells", model_type="finite",
        hypothesis=[F(0.25, 0.25, 0.25, 0.25)], alternative=[F(0.5, 0.25, 0.125, 0.125)],
        partition=Partition.atoms([[0, 1], [2, 3]]),
    )
    assert scenario.cell_laws == ((F(0.5, 0.5),), (F(0.75, 0.25),))
    assert scenario.cell_laws is scenario.cell_laws
    assert _members(scenario.family) == _members(build_nested_family(*scenario.cell_laws))
    assert scenario.family[0].test.alternative_vectors.shape == (1, 2)


def test_nested_family_checks_stored_certificates():
    hypothesis, pieces = [F(0.5, 0.5)], [F(0.9, 0.1), F(0.1, 0.9)]
    derived = build_nested_family(hypothesis, pieces)
    exponents = [m.exponent for m in derived]
    onsets = [m.onset for m in derived]
    assert [m.onset for m in build_nested_family(hypothesis, pieces, exponents)] == onsets
    stored = build_nested_family(hypothesis, pieces, exponents, onsets)
    assert [(m.exponent, m.onset) for m in stored] == list(zip(exponents, onsets))
    # one onset earlier, the summed terms exceed the bound
    with pytest.raises(ValidationError, match="^schedule.exponents .*member 2 "):
        build_nested_family(hypothesis, pieces, exponents, [onsets[0], onsets[1] - 1])
    # an exponent above the smallest term exponent holds from no onset
    with pytest.raises(ValidationError, match="^schedule.exponents .*member 1 "):
        build_nested_family(hypothesis, pieces, [0.09, 0.09])


def test_scenario_fields_cannot_be_assigned():
    scenario = scenario_nested_alternatives([F(0.9, 0.1), F(0.1, 0.9)], n_max=256)
    assert type(scenario.hypothesis) is type(scenario.alternative) is tuple
    assert all(type(values) is tuple for values in scenario.schedule.values())
    for field in dataclasses.fields(scenario):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(scenario, field.name, getattr(scenario, field.name))
    with pytest.raises(dataclasses.FrozenInstanceError):
        scenario.alternative = []
    partitioned = scenario_kolmogorov_family([0.2], [8])
    with pytest.raises(dataclasses.FrozenInstanceError):
        partitioned.partition.cells = ((0.0, 1.0),)
    for mapping, key, value in (
        (scenario.schedule, "exponents", (5.0, 5.0)),
        (partitioned.model_options, "grid_size", "x"),
    ):
        with pytest.raises(TypeError):
            mapping[key] = value
    signals = scenario_signal_detection([[0.0, 0.0]], [[1.0, 0.5]], 2, [0.5])
    assert not any(s.flags.writeable for s in signals.hypothesis + signals.alternative)


#: builder name -> a scenario it builds; and a partitioned scenario file
_BUILT = {
    "sine_indistinguishable": lambda: scenario_sine_indistinguishable(3),
    "mazur_mixture": lambda: scenario_mazur_mixture(4, grid_size=32),
    "kolmogorov_family": lambda: scenario_kolmogorov_family([0.2], [8]),
    "signal_detection": lambda: scenario_signal_detection([[0.0, 0.0]], [[1.0, 0.5]], 2, [0.5]),
    "nested_alternatives": lambda: scenario_nested_alternatives(
        [F(0.9, 0.1), F(0.1, 0.9)], n_max=256
    ),
    "poisson": lambda: scenario_poisson(
        PoissonModel(1.0, F(0.5, 0.5)), PoissonModel(1.5, F(0.3, 0.7)), [8]
    ),
    "partitioned-file": lambda: scenario_from_dict(
        {**_FINITE_FILE, "partition": {"cells": [[0], [1]]}, "sim": {"n_grid": [64]}}
    ),
}


def _stored_arrays(scenario) -> list:
    """Every array a scenario keeps: weights, Poisson shapes and signals."""
    models = [m.shape if isinstance(m, PoissonModel) else m
              for m in scenario.hypothesis + scenario.alternative]
    return [m.weights if isinstance(m, FiniteMeasure) else m
            for m in models if isinstance(m, (FiniteMeasure, np.ndarray))]


def _same(a, b) -> bool:
    """``a == b``; ``gaussian_sequence`` scenarios by their JSON form, because
    ``==`` on their signal arrays is elementwise."""
    if a.model_type == "gaussian_sequence":
        return a.to_json_dict() == b.to_json_dict()
    return a == b


@pytest.mark.parametrize("case", sorted(_BUILT))
def test_scenario_round_trips_compare_equal(case):
    scenario = _BUILT[case]()
    data = json.loads(json.dumps(scenario.to_json_dict()))
    first, second = scenario_from_dict(data), scenario_from_dict(data)
    assert _same(first, second)
    for other in (first, pickle.loads(pickle.dumps(scenario)), copy.deepcopy(scenario)):
        assert _same(other, scenario)
        with pytest.raises(TypeError):
            other.model_options["grid_size"] = 8
        assert not any(a.flags.writeable for a in _stored_arrays(other))


def test_unpickling_a_scenario_runs_every_check():
    scenario = scenario_sine_indistinguishable(1)
    object.__setattr__(scenario, "model_options", MappingProxyType({"grid_size": 1}))
    data = pickle.dumps(scenario)
    with pytest.raises(ValidationError, match="^model.grid_size must be an integer >= 2, got 1$"):
        pickle.loads(data)
    with pytest.raises(ValidationError, match="^model.grid_size must be an integer >= 2, got 1$"):
        copy.deepcopy(scenario)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"alternative": []}, "hypothesis and alternative families must be nonempty"),
        ({"model_options": {"grid_size": 1}}, "model.grid_size must be an integer >= 2, got 1"),
        ({"schedule": {}}, "scenario 'schedule' is not supported by density models"),
        ({"partition": Partition.identity(2)},
         "density models need a partition of intervals, got one of atoms"),
    ],
    ids=["alternative", "model_options", "schedule", "partition"],
)
def test_replace_is_refused_with_the_constructors_message(change, message):
    scenario = scenario_sine_indistinguishable(1)
    values = {field.name: getattr(scenario, field.name) for field in dataclasses.fields(scenario)}
    with pytest.raises(ValidationError) as constructed:
        Scenario(**{**values, **change})
    with pytest.raises(ValidationError) as replaced:
        dataclasses.replace(scenario, **change)
    assert str(replaced.value) == str(constructed.value) == message


def test_nested_scenario_curve_and_bounds():
    scenario = scenario_nested_alternatives(
        [F(0.9, 0.1), F(0.1, 0.9)], n_max=512, replications=300,
        k_grid=list(range(0, 513, 64)),
    )
    run = run_scenario(scenario, seed=6, replications=300)
    table = run.tables["discernibility"]
    rows = table_dict(table)
    for label in ("hypothesis", "piece_1", "piece_2"):
        values = [r[f"err_after_k_{label}"] for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] == 0.0
        # certified tail dominates the empirical curve wherever it is informative
        for r in rows:
            bound = r["certified_tail_clamped"]
            sigma = math.sqrt(max(bound * (1 - bound), 1e-6) / 300)
            assert r[f"err_after_k_{label}"] <= bound + 3 * sigma
    assert "schedule" in run.reports


# -- Poisson scenario --------------------------------------------------------------------


def test_poisson_scenario_mass_difference_drives_errors():
    scenario = scenario_poisson(
        PoissonModel(1.0, F(0.5, 0.5)), PoissonModel(2.0, F(0.5, 0.5)), n_grid=[8, 64]
    )
    run = run_scenario(scenario, seed=7, replications=2000)
    rows = table_dict(run.tables["poisson_errors"])
    assert rows[1]["beta_mc"] < rows[0]["beta_mc"]
    assert rows[1]["alpha_lo"] <= rows[1]["count_stage_bound"]


def test_poisson_scenario_shape_difference_drives_errors():
    scenario = scenario_poisson(
        PoissonModel(1.0, F(0.5, 0.5)), PoissonModel(1.0, F(0.9, 0.1)), n_grid=[8, 64]
    )
    run = run_scenario(scenario, seed=8, replications=2000)
    rows = table_dict(run.tables["poisson_errors"])
    assert rows[1]["beta_mc"] < rows[0]["beta_mc"]
    assert rows[1]["beta_mc"] < 0.05


def test_poisson_scenario_degenerate():
    with pytest.raises(DegenerateScenarioError):
        scenario_poisson(
            PoissonModel(1.0, F(0.5, 0.5)), PoissonModel(1.0, F(0.5, 0.5)), n_grid=[8]
        )


#: Four millionths from (0.5, 0.5) in each atom: separated, far above the tie tolerance.
_NEAR_HALF = F(0.500004, 0.499996)


def test_poisson_near_equal_shapes_with_equal_mass_load():
    scenario = scenario_poisson(
        PoissonModel(1.0, F(0.5, 0.5)), PoissonModel(1.0, _NEAR_HALF), n_grid=[8]
    )
    loaded = scenario_from_dict(scenario.to_json_dict())
    assert loaded.alternative[0].shape.weights.tolist() == [0.500004, 0.499996]


def test_poisson_near_equal_shapes_get_a_frequency_stage(monkeypatch):
    built = []

    class Recording(PoissonTwoStageTest):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(scenarios, "PoissonTwoStageTest", Recording)
    h0, h1 = PoissonModel(1.0, F(0.5, 0.5)), PoissonModel(1.5, _NEAR_HALF)
    run_scenario(scenario_poisson(h0, h1, n_grid=[8, 32]), seed=1, replications=100)
    assert len(built) == 2
    assert all(isinstance(t.frequency_test, scenarios.FrequencyTest) for t in built)


def test_every_package_test_decides_booleans():
    counts = np.array([[9, 1], [5, 5], [0, 0], [1, 9]])
    freq_test = build_frequency_test(separation([F(0.5, 0.5)], [F(0.9, 0.1)], None))
    tests = [
        freq_test,
        UnionTest([freq_test]),
        PoissonTwoStageTest(n=10, mass0=1.0, deviation_rate=0.5),
        PoissonTwoStageTest(n=10, mass0=1.0, deviation_rate=0.5, frequency_test=freq_test),
    ]
    for test in tests:
        assert test.rejects(counts).dtype == bool
    assert freq_test.rejects(counts).tolist() == [True, False, False, False]
    signal = LinearFunctionalTest(functional=np.array([1.0, 0.5]), base=np.zeros(2))
    decisions = signal.rejects(np.array([[0.0, 0.0], [2.0, 1.0]]))
    assert decisions.dtype == bool and decisions.tolist() == [False, True]


def test_poisson_two_stage_test_is_a_frozen_value():
    test = PoissonTwoStageTest(n=8, mass0=1.0, deviation_rate=0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        test.deviation_rate = -1.0
    assert test == PoissonTwoStageTest(8, 1.0, 0.5)


@pytest.mark.parametrize("rate", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
def test_poisson_two_stage_rate_must_be_positive(rate):
    """A NaN rate would make the count stage accept every atom count."""
    with pytest.raises(ValidationError, match="deviation rate must be positive"):
        PoissonTwoStageTest(8, 1.0, rate)


def test_poisson_two_stage_conditional_matches_exact():
    # conditioned on the atom count, the frequency stage is a plain
    # multinomial test: compare its exact error with the conditional
    # Monte Carlo estimate
    h0, h1 = F(0.5, 0.5), F(0.9, 0.1)
    from consistency_lab.partition_tests import build_frequency_test, separation

    rep = separation([h0], [h1], Partition.identity(2))
    freq_test = build_frequency_test(rep)
    k = 40
    exact = exact_error(freq_test, h0, k)[0]
    mc = estimate_error(freq_test, h0, k, 50_000, RngSpec(71, 0))
    sigma = math.sqrt(exact * (1 - exact) / 50_000)
    assert abs(mc.estimate - exact) <= 3 * sigma


def test_poisson_count_threshold_monotone_in_n():
    rate8, _ = poisson_count_threshold(1.0, 8, target=1.0 / 64)
    rate64, _ = poisson_count_threshold(1.0, 64, target=1.0 / 4096)
    assert rate64 <= rate8


def _linear_scan_thresholds(mass0, ns, targets):
    """Per ``n`` of ``ns``, the first rate of the grid whose bound meets its
    target, with that bound, as a scan of the grid finds them; the largest
    rate when none does.

    A bound ``exp(n a) + exp(n b)`` meets its target only where both terms
    do, so the scan starts, for all ``n`` at once, at the first rate where
    ``n max(a, b) <= log(target)`` (1e-6 of slack covers rounding) and goes
    on from there with the scalar ``poisson_atom_tail_bound``, which settles
    the boundary rate."""
    lam = mass0
    x = mass0 * np.arange(1, 1000) / 1000.0
    a = -(lam + x) * np.log1p(x / lam) + x  # upper-tail exponent per draw
    b = -(lam - x) * np.log(1.0 - x / lam) - x  # lower-tail exponent per draw
    near = ns[:, None] * np.maximum(a, b) <= np.log(targets)[:, None] + 1e-6
    starts = np.where(near.any(axis=1), near.argmax(axis=1), x.size)
    grid, found = x.tolist(), []
    for n, target, start in zip(ns.tolist(), targets.tolist(), starts.tolist()):
        rate, value = grid[-1], None
        for candidate in grid[start:]:
            bound = poisson_atom_tail_bound(mass0, n, candidate)
            if bound <= target:
                rate, value = candidate, bound
                break
        found.append((rate, poisson_atom_tail_bound(mass0, n, rate) if value is None else value))
    return found


def test_poisson_count_threshold_bisection_matches_linear_scan():
    for mass0 in (0.5, 1.0, 1.5, 2.0):
        for first in range(1, 4097, 512):  # 512 sample sizes per array of bounds
            ns = np.arange(first, first + 512)
            targets = 1.0 / (ns * ns)
            scans = _linear_scan_thresholds(mass0, ns, targets)
            for n, target, scan in zip(ns.tolist(), targets.tolist(), scans):
                assert poisson_count_threshold(mass0, n, target) == scan, (mass0, n)
    # a target no rate of the grid meets falls back to the largest rate
    assert [poisson_count_threshold(1.0, 1, 1e-300)] == _linear_scan_thresholds(
        1.0, np.array([1]), np.array([1e-300])
    )


def _two_stage_exact(test, model, n, role):
    """Exact error probability of a two-stage test in ``role``: its rejection
    probability under the hypothesis, its acceptance probability under the alternative.

    Conditions on the atom total ``N ~ Poisson(n * mass)``: the count stage
    decides on ``N`` alone, an empty process is accepted, and otherwise the
    frequency stage sees ``Multinomial(N, shape)`` counts. The sum over ``N``
    stops once the Poisson tail left out is below 1e-12.
    """
    lam = n * model.mass
    total = seen = 0.0
    N = 0
    while N <= lam or 1.0 - seen >= 1e-12:
        pmf = math.exp(N * math.log(lam) - lam - math.lgamma(N + 1))
        if abs(N - n * test.mass0) > n * test.deviation_rate:
            reject = 1.0
        elif N == 0:
            reject = 0.0
        else:
            reject = exact_error(test.frequency_test, model.shape, N)[0]
        total += pmf * (reject if role == "hypothesis" else 1.0 - reject)
        seen += pmf
        N += 1
    return total


@pytest.mark.parametrize("n", [8, 32])
def test_poisson_two_stage_monte_carlo_matches_exact_oracle(n):
    h0, h1 = PoissonModel(1.0, F(0.5, 0.5)), PoissonModel(1.5, F(0.3, 0.7))
    freq_test = build_frequency_test(separation([h0.shape], [h1.shape], Partition.identity(2)))
    rate, _ = poisson_count_threshold(h0.mass, n, target=1.0 / (n * n))
    test = PoissonTwoStageTest(n=n, mass0=h0.mass, deviation_rate=rate, frequency_test=freq_test)
    reps = 20_000
    for model, role, stream in ((h0, "hypothesis", 0), (h1, "alternative", 1)):
        exact = _two_stage_exact(test, model, n, role)
        assert 0.01 < exact < 0.99  # both stages and both outcomes matter here
        mc = estimate_error(test, model, n, reps, RngSpec(131, stream), role=role)
        sigma = math.sqrt(exact * (1 - exact) / reps)
        assert abs(mc.estimate - exact) <= 4 * sigma, (role, mc.estimate, exact)


def test_monte_carlo_pairs_take_the_run_streams_in_order():
    """Row ``i`` of an error table draws its type I error on stream task ``2i``
    of the run's seed and its type II error on task ``2i + 1``."""
    seed, reps = 5, 2000
    streams = RngSpec(seed)
    h0, h1 = PoissonModel(1.0, F(0.5, 0.5)), PoissonModel(1.5, F(0.3, 0.7))
    run = run_scenario(scenario_poisson(h0, h1, n_grid=[8, 32]), seed, replications=reps)
    freq_test = build_frequency_test(separation([h0.shape], [h1.shape], None))
    for i, row in enumerate(table_dict(run.tables["poisson_errors"])):
        n = row["n"]
        test = PoissonTwoStageTest(n, h0.mass, row["deviation_rate"], freq_test)
        alpha = estimate_error(test, h0, n, reps, streams.task(2 * i))
        beta = estimate_error(test, h1, n, reps, streams.task(2 * i + 1), role="alternative")
        for role, report in (("alpha", alpha), ("beta", beta)):
            assert (row[f"{role}_mc"], row[f"{role}_lo"], row[f"{role}_hi"]) == (
                report.estimate, report.lo, report.hi
            )

    # The noise sweep simulates one pair per row: the one that attains its
    # analytic total. With two hypotheses that is the second, the closer one.
    for hypothesis, worst in (([[0.0, 0.0]], 0), ([[0.0, 0.0], [0.0, 0.2]], 1)):
        scenario = scenario_signal_detection(hypothesis, [[1.0, 0.5]], 2, epsilon_list=[0.5, 1.0])
        run = run_scenario(scenario, seed, replications=reps)
        s0, s1 = scenario.hypothesis[worst], scenario.alternative[0]
        test = LinearFunctionalTest(functional=s1 - s0, base=s0)
        for i, row in enumerate(table_dict(run.tables["epsilon_sweep"])):
            eps = row["epsilon"]
            alpha = estimate_error(
                test, GaussianSequenceModel(s0, eps), 1, reps, streams.task(2 * i)
            )
            beta = estimate_error(
                test, GaussianSequenceModel(s1, eps), 1, reps, streams.task(2 * i + 1),
                role="alternative",
            )
            # both errors sum to the closed form erfc(|f| / (2 eps) / sqrt(2)), to the bit
            norm = math.sqrt(float((s1 - s0) @ (s1 - s0)))
            assert row["total_analytic"] == math.erfc(norm / (2.0 * eps) / math.sqrt(2.0))
            assert row["alpha_exact"] == row["beta_exact"] == test.error(eps)
            assert (row["alpha_mc"], row["beta_mc"]) == (alpha.estimate, beta.estimate)
            assert row["total_mc"] == alpha.estimate + beta.estimate
            assert (row["alpha_lo"], row["alpha_hi"]) == (alpha.lo, alpha.hi)
            assert (row["beta_lo"], row["beta_hi"]) == (beta.lo, beta.hi)


def test_every_error_table_brackets_its_estimates_by_wilson_intervals():
    """The three error tables share one column run, and each ``_lo``/``_hi``
    pair is the Wilson interval of its ``_mc`` estimate at the run's replications."""
    reps = 300
    runs = {
        "errors": scenario_kolmogorov_family([0.0, 0.4], n_grid=[8, 32]),
        "epsilon_sweep": scenario_signal_detection([[0.0]], [[1.0]], 1, epsilon_list=[0.2, 1.0]),
        "poisson_errors": scenario_poisson(
            PoissonModel(1.0, F(0.5, 0.5)), PoissonModel(1.5, F(0.3, 0.7)), n_grid=[8, 512]
        ),
    }
    unseparated = 0
    for name, scenario in runs.items():
        table = run_scenario(scenario, seed=3, replications=reps).tables[name]
        start = table.columns.index("alpha_exact")
        assert tuple(table.columns[start : start + len(scenarios.ERROR_COLUMNS)]) == (
            scenarios.ERROR_COLUMNS
        )
        for row in table_dict(table):
            if name == "errors" and row["model"] == "pu_family(0)":  # not separated: all NaN
                assert all(math.isnan(row[c]) for c in (*scenarios.ERROR_COLUMNS, "total_exact"))
                unseparated += 1
                continue
            for role in ("alpha", "beta"):
                estimate, low, high = (row[f"{role}_{end}"] for end in ("mc", "lo", "hi"))
                assert low <= estimate <= high, (name, row)
                assert (low, high) == wilson_interval(estimate, reps)
            assert row["total_mc"] == row["alpha_mc"] + row["beta_mc"]
    assert unseparated == 2
    # n = 512 draws no error in 300 replications, yet its interval is not 0 ± 0
    last = table_dict(table)[-1]
    assert last["alpha_mc"] == 0.0 and last["alpha_hi"] > 0.0


# -- serialization round trip -------------------------------------------------------------


def test_scenario_json_round_trip_runs_identically():
    for scenario in (
        scenario_sine_indistinguishable(2),
        scenario_kolmogorov_family([0.4], n_grid=[16]),
        scenario_nested_alternatives([F(0.9, 0.1)], n_max=64, replications=200),
        scenario_poisson(
            PoissonModel(1.0, F(0.5, 0.5)), PoissonModel(2.0, F(0.5, 0.5)), n_grid=[8]
        ),
        scenario_signal_detection([[0.0]], [[1.0]], 1, epsilon_list=[0.5]),
    ):
        data = scenario.to_json_dict()
        parsed = scenario_from_dict(data)
        assert parsed.to_json_dict() == data
        run1 = run_scenario(scenario, seed=12, replications=200)
        run2 = run_scenario(parsed, seed=12, replications=200)
        assert set(run1.tables) == set(run2.tables)
        for name in run1.tables:
            assert run1.tables[name].rows == run2.tables[name].rows


_BUILDER_HASHES = {
    "sine": "d0212f628904b50d4432cab2489acd694a10f9ed04754ede91481a8f5356c168",
    "mazur": "f5f4d02b5048446c04f084b08cbeebcefd0720755be1e0721f529d68dc0d873a",
    "kolmogorov": "4e23a7a308b6c193fff1af77b82e7546e38698ec4252d5439c534e08dd2693e3",
    "signal": "cbb2037d8e1b6866becdf1f5f0b9967597109e371b1c95d20d092e06c3962443",
    "nested": "39a780aea195cf6b75ddcaf1d1b740ca1f766e4fc6e18a702e8279e8a2416b7f",
    "poisson": "f8a9edc21693ee3307670f090bbff83b75ea77a01e4d1ce6f829151d913ba47a",
}


def _builder(name):
    return {
        "sine": lambda: scenario_sine_indistinguishable(3),
        "mazur": lambda: scenario_mazur_mixture(4),
        "kolmogorov": lambda: scenario_kolmogorov_family([0.2, 0.4], n_grid=[16, 32]),
        "signal": lambda: scenario_signal_detection(
            [[0.0, 0.0]], [[1.0, 0.5]], 2, epsilon_list=[0.5, 1.0]
        ),
        "nested": lambda: scenario_nested_alternatives(
            [F(0.9, 0.1), F(0.1, 0.9)], n_max=256, replications=200
        ),
        "poisson": lambda: scenario_poisson(
            PoissonModel(1.0, F(0.5, 0.5)), PoissonModel(1.5, F(0.3, 0.7)), n_grid=[8, 32]
        ),
    }[name]()


@pytest.mark.parametrize("name", sorted(_BUILDER_HASHES))
def test_builder_scenario_hash_is_pinned(name):
    """The hash every output manifest records; a serialization change moves it."""
    assert scenario_hash(_builder(name).to_json_dict()) == _BUILDER_HASHES[name]


_EMPTY_SCHEDULE = {"exponents": [], "onsets": []}
#: Per model type, the partitions and schedules its scenarios may not carry,
#: with the message a scenario built in code raises, as its file does.
_UNSUPPORTED = {
    "finite": [
        ({"partition": Partition.half_split()},
         "finite models need a partition of atoms, got one of intervals"),
    ],
    "density": [
        ({"partition": Partition.atoms([[0], [1]])},
         "density models need a partition of intervals, got one of atoms"),
        ({"schedule": _EMPTY_SCHEDULE}, "scenario 'schedule' is not supported by density models"),
    ],
    "poisson": [
        ({"partition": Partition.identity(2)},
         "scenario 'partition' is not supported by poisson models"),
        ({"schedule": _EMPTY_SCHEDULE}, "scenario 'schedule' is not supported by poisson models"),
    ],
    "gaussian_sequence": [
        ({"partition": Partition.half_split()},
         "scenario 'partition' is not supported by gaussian_sequence models"),
        ({"schedule": _EMPTY_SCHEDULE},
         "scenario 'schedule' is not supported by gaussian_sequence models"),
    ],
}


@pytest.mark.parametrize("name", sorted(_BUILDER_HASHES))
def test_built_scenarios_pass_the_checks_of_files(name):
    """A builder's scenario round-trips through its file form, and a partition or
    schedule its model type refuses in a file is refused at construction too."""
    scenario = _builder(name)
    data = scenario.to_json_dict()
    assert scenario_from_dict(data).to_json_dict() == data
    for changes, message in _UNSUPPORTED[scenario.model_type]:
        with pytest.raises(ValidationError) as info:
            dataclasses.replace(scenario, **changes)
        assert str(info.value) == message


def _bench_scenarios() -> dict:
    """``SCENARIOS`` of ``bench/workloads.py``, the benchmark's scenario files."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module.SCENARIOS


_BENCH_HASHES = {
    "sine-1-5-g128": "2cd352699b37241abec866496d08e5d9fcd907493f6ca3f93bc95699fec95b74",
    "sine-1-7-g128": "e28e92d048df103810f95524d34b759ba52e993d7824176164740a75db9071a6",
    "sine-1-8-g128": "5ccedf2c661aaf48295ff0614abd3253d46720209c8389ab551aa4f15824abed",
    "mazur-16-g64": "fddc2c771dc559299bd3bbe2ccc3a2ad8d80d95daa3dfd28208b5fb5603e2f32",
    "kolmogorov-0-02-04": "0214970762cb36e4225ebf89b27bb598d0b49000cd99c5465619907599af67ee",
    "nested-2x2": "5f8e0ad26fbd1423632257cdc65ce4d6cf8b617f907fd0fab080452c501d7fb8",
    "nested-3x3": "bcab4d620c1324198aea8e5eb9bd8366470c06370cfed1d5a9b2bce4768dcdb8",
    "nested-2x2-no-grid": "171c229f0f40549835611dbeebf989e656ec1dafde83028b2cc6e2c38fb6ed41",
    "kolmogorov-4cells": "52f27735b8e04e64601063a4c56508e527383e77e990e327ffa01a3c8bc9f424",
    "sine-1-3-half": "21996d58663f7e294fe93d4afe89abd749c23413a4ccfc7ab92112d6af8d41ba",
    "poisson-two-stage": "eed3364dc3b843b7127a248c47909f4f2fc362cbcbd30ce935d5eaa19cf9090b",
    "signal-2d": "a4f9572f948cff9b2764565fb22b6bcbbc9b726e1d26f26f5c0f1cfb2c2680c0",
}


def test_bench_scenario_file_hashes_are_pinned():
    scenarios_by_name = _bench_scenarios()
    assert set(scenarios_by_name) == set(_BENCH_HASHES)
    for name, data in scenarios_by_name.items():
        parsed = scenario_from_dict(json.loads(json.dumps(data)))
        assert scenario_hash(parsed.to_json_dict()) == _BENCH_HASHES[name], name


_SINE_FILE = {
    "name": "parity",
    "model": {"type": "density", "grid_size": 64},
    "hypothesis": [{"kind": "uniform"}],
    "alternative": [{"kind": "one_plus_sine", "frequency": 1}],
}
_SINE_MODELS = dict(
    name="parity",
    model_type="density",
    hypothesis=[DensitySpec.uniform()],
    alternative=[DensitySpec.one_plus_sine(1)],
)
_FINITE_FILE = {
    "name": "parity",
    "model": {"type": "finite"},
    "hypothesis": [{"weights": [0.5, 0.5]}],
    "alternative": [{"weights": [0.9, 0.1]}],
}
_FINITE_MODELS = dict(
    name="parity", model_type="finite", hypothesis=[F(0.5, 0.5)], alternative=[F(0.9, 0.1)]
)
_SIGNAL_FILE = {
    "name": "parity",
    "model": {"type": "gaussian_sequence"},
    "hypothesis": [{"signal": [0.0]}],
    "alternative": [{"signal": [1.0]}],
}


def _density_model(**options):
    return {"model": {"type": "density", **options}}


#: (file, its change, the same value given to a builder or constructor, message)
_PARITY = {
    "string-grid-size": (
        _SINE_FILE, _density_model(grid_size="64"),
        lambda: scenario_sine_indistinguishable(1, grid_size="64"),
        "model.grid_size must be an integer >= 2, got '64'",
    ),
    "zero-grid-size": (
        _SINE_FILE, _density_model(grid_size=0),
        lambda: scenario_sine_indistinguishable(1, grid_size=0),
        "model.grid_size must be an integer >= 2, got 0",
    ),
    "one-grid-size": (
        _SINE_FILE, _density_model(grid_size=1),
        lambda: scenario_mazur_mixture(1, grid_size=1),
        "model.grid_size must be an integer >= 2, got 1",
    ),
    "bool-grid-size": (
        _SINE_FILE, _density_model(grid_size=True),
        lambda: scenario_sine_indistinguishable(1, grid_size=True),
        "model.grid_size must be an integer >= 2, got True",
    ),
    "zero-cesaro-scan": (
        _SINE_FILE, _density_model(cesaro_scan=0),
        lambda: Scenario(**_SINE_MODELS, model_options={"cesaro_scan": 0}),
        "model.cesaro_scan must be an integer >= 1, got 0",
    ),
    "misspelled-model-option": (
        _SINE_FILE, _density_model(gridsize=64),
        lambda: Scenario(**_SINE_MODELS, model_options={"gridsize": 64}),
        "model.gridsize is not a model option; the options are grid_size, cesaro_scan",
    ),
    "finite-grid-size": (
        _FINITE_FILE, {"model": {"type": "finite", "grid_size": 64}},
        lambda: Scenario(**_FINITE_MODELS, model_options={"grid_size": 64}),
        "model.grid_size is not supported by finite models",
    ),
    "zero-n-grid": (
        _SINE_FILE, {"sim": {"n_grid": [0]}},
        lambda: scenario_kolmogorov_family([0.4], n_grid=[0]),
        "sim.n_grid must be an integer >= 1, got 0",
    ),
    "fractional-replications": (
        _FINITE_FILE, {"sim": {"replications": 200.7}},
        lambda: scenario_nested_alternatives([F(0.9, 0.1)], replications=200.7),
        "sim.replications must be an integer >= 100, got 200.7",
    ),
    "too-few-replications": (
        _FINITE_FILE, {"sim": {"replications": 50}},
        lambda: scenario_nested_alternatives([F(0.9, 0.1)], replications=50),
        "sim.replications must be an integer >= 100, got 50",
    ),
    "fractional-atom": (
        _FINITE_FILE, {"partition": {"cells": [[0], [1.5]]}},
        lambda: Partition.atoms([[0], [1.5]]),
        "partition.cells must be an integer >= 0, got 1.5",
    ),
    "bool-atom": (
        _FINITE_FILE, {"partition": {"cells": [[0], [True]]}},
        lambda: Partition.atoms([[0], [True]]),
        "partition.cells must be an integer >= 0, got True",
    ),
    "number-cells": (
        _FINITE_FILE, {"partition": {"cells": 3}},
        lambda: Partition.atoms(3),
        "partition.cells must be a list of lists, got 3",
    ),
    "string-edge": (
        _SINE_FILE, {"partition": {"cells": [["0", 0.5], [0.5, 1]]}},
        lambda: Partition("intervals", [["0", 0.5], [0.5, 1]]),
        "partition.cells must be numbers, got [['0', 0.5], [0.5, 1]]",
    ),
    "three-edge-cell": (
        _SINE_FILE, {"partition": {"cells": [[0, 0.5, 0.7], [0.5, 1]]}},
        lambda: scenario_sine_indistinguishable(
            1, partition=Partition("intervals", [[0, 0.5, 0.7], [0.5, 1]])
        ),
        "partition.cells must be pairs of numbers, got [[0, 0.5, 0.7], [0.5, 1]]",
    ),
    "empty-atom-group": (
        _FINITE_FILE, {"partition": {"cells": [[0, 1], []]}},
        lambda: Partition.atoms([[0, 1], []]),
        "atom groups must be nonempty, disjoint and cover the whole alphabet",
    ),
    "bool-k-grid": (
        _FINITE_FILE, {"sim": {"k_grid": [True]}},
        lambda: scenario_nested_alternatives([F(0.9, 0.1)], k_grid=[True]),
        "sim.k_grid must be an integer >= 0, got True",
    ),
    "string-epsilon-list": (
        _SIGNAL_FILE, {"sim": {"epsilon_list": ["0.5"]}},
        lambda: scenario_signal_detection([[0.0]], [[1.0]], 1, epsilon_list=["0.5"]),
        "sim.epsilon_list must be numbers, got ['0.5']",
    ),
    "string-exponents": (
        _FINITE_FILE, {"schedule": {"exponents": ["a"]}},
        lambda: Scenario(**_FINITE_MODELS, schedule={"exponents": ["a"]}),
        "schedule.exponents must be numbers, got ['a']",
    ),
    "zero-onset": (
        _FINITE_FILE, {"schedule": {"onsets": [0]}},
        lambda: Scenario(**_FINITE_MODELS, schedule={"onsets": [0]}),
        "schedule.onsets must be an integer >= 1, got 0",
    ),
    "misspelled-schedule-key": (
        _FINITE_FILE, {"schedule": {"exponent": [0.1]}},
        lambda: Scenario(**_FINITE_MODELS, schedule={"exponent": [0.1]}),
        "schedule.exponent is not a schedule option; the options are exponents, onsets",
    ),
    "schedule-list": (
        _FINITE_FILE, {"schedule": [0.1]},
        lambda: Scenario(**_FINITE_MODELS, schedule=[0.1]),
        "scenario 'schedule' must be an object, got list",
    ),
    "scalar-n-grid": (
        _SINE_FILE, {"sim": {"n_grid": 5}},
        lambda: scenario_kolmogorov_family([0.4], n_grid=5),
        "sim.n_grid must be a list of numbers, got 5",
    ),
    "string-n-grid": (
        _SINE_FILE, {"sim": {"n_grid": "16"}},
        lambda: scenario_kolmogorov_family([0.4], n_grid="16"),
        "sim.n_grid must be a list of numbers, got '16'",
    ),
    "scalar-k-grid": (
        _FINITE_FILE, {"sim": {"k_grid": 3}},
        lambda: scenario_nested_alternatives([F(0.9, 0.1)], k_grid=3),
        "sim.k_grid must be a list of numbers, got 3",
    ),
    "scalar-epsilon-list": (
        _SIGNAL_FILE, {"sim": {"epsilon_list": 0.5}},
        lambda: scenario_signal_detection([[0.0]], [[1.0]], 1, epsilon_list=0.5),
        "sim.epsilon_list must be a list of numbers, got 0.5",
    ),
    "nested-epsilon-list": (
        _SIGNAL_FILE, {"sim": {"epsilon_list": [[0.5], [1.0]]}},
        lambda: scenario_signal_detection([[0.0]], [[1.0]], 1, epsilon_list=[[0.5], [1.0]]),
        "sim.epsilon_list must be a list of numbers, got [[0.5], [1.0]]",
    ),
    "scalar-exponents": (
        _FINITE_FILE, {"schedule": {"exponents": 0.1}},
        lambda: Scenario(**_FINITE_MODELS, schedule={"exponents": 0.1}),
        "schedule.exponents must be a list of numbers, got 0.1",
    ),
    "nested-exponents": (
        _FINITE_FILE, {"schedule": {"exponents": [[0.1]]}},
        lambda: Scenario(**_FINITE_MODELS, schedule={"exponents": [[0.1]]}),
        "schedule.exponents must be a list of numbers, got [[0.1]]",
    ),
    "scalar-onsets": (
        _FINITE_FILE, {"schedule": {"onsets": 5}},
        lambda: Scenario(**_FINITE_MODELS, schedule={"onsets": 5}),
        "schedule.onsets must be a list of numbers, got 5",
    ),
    "density-epsilon-list": (
        _SINE_FILE, {"sim": {"epsilon_list": [0.5]}},
        lambda: Scenario(**_SINE_MODELS, sim=SimParams(epsilon_list=[0.5])),
        "sim.epsilon_list is not supported by density models",
    ),
    "density-k-grid": (
        _SINE_FILE, {"sim": {"k_grid": [0, 8]}},
        lambda: Scenario(**_SINE_MODELS, sim=SimParams(k_grid=[0, 8])),
        "sim.k_grid is not supported by density models",
    ),
    "finite-epsilon-list": (
        _FINITE_FILE, {"sim": {"epsilon_list": [0.5]}},
        lambda: Scenario(**_FINITE_MODELS, sim=SimParams(epsilon_list=[0.5])),
        "sim.epsilon_list is not supported by finite models",
    ),
    "signal-n-grid": (
        _SIGNAL_FILE, {"sim": {"n_grid": [8], "epsilon_list": [0.5]}},
        lambda: dataclasses.replace(
            scenario_signal_detection([[0.0]], [[1.0]], 1, [0.5]),
            sim=SimParams(n_grid=[8], epsilon_list=[0.5]),
        ),
        "sim.n_grid is not supported by gaussian_sequence models",
    ),
    "string-signal": (
        _SIGNAL_FILE, {"hypothesis": [{"signal": ["a"]}]},
        lambda: scenario_signal_detection([["a"]], [[1.0]], 1, [0.5]),
        "signal must be numbers, got ['a']",
    ),
    "nan-signal": (
        _SIGNAL_FILE, {"hypothesis": [{"signal": [math.nan]}]},
        lambda: scenario_signal_detection([[math.nan]], [[1.0]], 1, [0.5]),
        "signal must be finite",
    ),
    "empty-signal": (
        _SIGNAL_FILE, {"hypothesis": [{"signal": []}]},
        lambda: dataclasses.replace(
            scenario_signal_detection([[0.0]], [[1.0]], 1, [0.5]), hypothesis=[[]]
        ),
        "signal must be a nonempty 1-D vector",
    ),
    "nan-epsilon-list": (
        _SIGNAL_FILE, {"sim": {"epsilon_list": [0.5, math.nan]}},
        lambda: scenario_signal_detection([[0.0]], [[1.0]], 1, [0.5, math.nan]),
        "sim.epsilon_list must be positive and finite, got nan",
    ),
    "infinite-epsilon-list": (
        _SIGNAL_FILE, {"sim": {"epsilon_list": [math.inf]}},
        lambda: scenario_signal_detection([[0.0]], [[1.0]], 1, [math.inf]),
        "sim.epsilon_list must be positive and finite, got inf",
    ),
    "number-name": (
        _FINITE_FILE, {"name": 5},
        lambda: Scenario(**{**_FINITE_MODELS, "name": 5}),
        "scenario name must be a string, got 5",
    ),
    "null-name": (
        _SIGNAL_FILE, {"name": None},
        lambda: dataclasses.replace(
            scenario_signal_detection([[0.0]], [[1.0]], 1, [0.5]), name=None
        ),
        "scenario name must be a string, got None",
    ),
}


@pytest.mark.parametrize("case", sorted(_PARITY))
def test_files_and_builders_pass_one_validation(case, tmp_path):
    """A value a file is refused for is refused in code, with the same message."""
    data, change, build, message = _PARITY[case]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**data, **change}))
    with pytest.raises(ValidationError) as from_file:
        load_scenario(path)
    with pytest.raises(ValidationError) as from_code:
        build()
    assert str(from_file.value) == str(from_code.value) == message


def _paths(replications=100, n_max=64, k_grid=(0,)):
    family = scenario_nested_alternatives([F(0.9, 0.1)], n_max=64).family
    return discernibility_paths(interleave(family, 64), F(0.5, 0.5), n_max, k_grid, replications,
                                RngSpec(0))


def _estimate(n):
    test = build_frequency_test(separation([F(0.5, 0.5)], [F(0.9, 0.1)], None))
    return estimate_error(test, F(0.5, 0.5), n, 100, RngSpec(0))


#: case -> (a library call, the whole message it raises); each argument is read
#: by ``measures._integer``, ``_positive``, ``_vector`` or ``_real``.
_ARGUMENTS = {
    "fractional-onset": (
        lambda: TestFamilyMember(None, 0.5, onset=1.5), "onset must be an integer >= 1, got 1.5"
    ),
    "bool-onset": (
        lambda: TestFamilyMember(None, 0.5, onset=True), "onset must be an integer >= 1, got True"
    ),
    "fractional-n-max": (
        lambda: interleave([TestFamilyMember(None, 0.5)], 2.5),
        "n_max must be an integer >= 1, got 2.5",
    ),
    "fractional-tail-n": (
        lambda: poisson_atom_tail_bound(1, 2.5, 0.5), "n must be an integer >= 1, got 2.5"
    ),
    "string-lam": (
        lambda: poisson_atom_tail_bound("1", 4, 0.5), "lam must be positive and finite, got '1'"
    ),
    "fractional-wilson-replications": (
        lambda: wilson_interval(0.5, 1.5), "replications must be an integer >= 1, got 1.5"
    ),
    "fractional-path-replications": (
        lambda: _paths(1.5), "replications must be an integer >= 1, got 1.5"
    ),
    "bool-noise": (
        lambda: GaussianSequenceModel([0.0], True), "noise must be positive and finite, got True"
    ),
    "string-noise": (
        lambda: GaussianSequenceModel([0.0], "1"), "noise must be positive and finite, got '1'"
    ),
    "nan-model-signal": (
        lambda: GaussianSequenceModel([math.nan], 1.0), "signal must be finite"
    ),
    "infinite-mass": (
        lambda: PoissonModel(math.inf, F(0.5, 0.5)), "mass must be positive and finite, got inf"
    ),
    "string-grid-size": (
        lambda: discretize(DensitySpec.uniform(), "64"),
        "grid_size must be an integer >= 2, got '64'",
    ),
    "infinite-deviation-rate": (
        lambda: PoissonTwoStageTest(8, 1.0, math.inf),
        "deviation rate must be positive and finite, got inf",
    ),
    "fractional-estimate-n": (lambda: _estimate(2.5), "n must be an integer >= 1, got 2.5"),
    "bool-estimate-n": (lambda: _estimate(True), "n must be an integer >= 1, got True"),
    "fractional-path-n-max": (
        lambda: _paths(n_max=2.5), "n_max must be an integer >= 1, got 2.5"
    ),
    "fractional-k-grid": (
        lambda: _paths(k_grid=[2.5]), "k_grid must be an integer >= 0, got 2.5"
    ),
    "bool-k-grid": (lambda: _paths(k_grid=[True]), "k_grid must be an integer >= 0, got True"),
    "string-exponent": (
        lambda: TestFamilyMember(None, "0.5"),
        "member exponent must be finite with exp(-exponent) < 1, got '0.5'",
    ),
    "string-wilson-estimate": (
        lambda: wilson_interval("0.5", 10),
        "wilson_interval needs an estimate in [0, 1], got '0.5'",
    ),
    "string-tail-x": (
        lambda: poisson_atom_tail_bound(1.0, 4, "0.5"), "x must satisfy 0 < x < lam, got '0.5'"
    ),
    "model-of-another-class": (
        lambda: Scenario(name="s", model_type="finite", hypothesis=[DensitySpec.uniform()],
                         alternative=[F(0.5, 0.5)]),
        "finite models must be FiniteMeasure",
    ),
    "file-not-an-object": (
        lambda: scenario_from_dict([]), "scenario file must contain a JSON object"
    ),
    "signal-dimension": (
        lambda: scenario_signal_detection([[0.0, 0.0]], [[1.0]], 2, [0.5]),
        "every signal must have dimension 2",
    ),
    "zero-pieces": (lambda: build_nested_family([F(0.5, 0.5)], []), "at least one piece required"),
    "poisson-shape-not-a-measure": (
        lambda: PoissonModel(1.0, [0.5, 0.5]), "shape must be a FiniteMeasure"
    ),
    "vector-sets-of-two-dimensions": (
        lambda: FrequencyTest([[0.5, 0.5]], [[0.2, 0.3, 0.5]]),
        "vector sets live in different dimensions",
    ),
}


@pytest.mark.parametrize("case", sorted(_ARGUMENTS))
def test_library_arguments_are_refused_by_name(case):
    call, message = _ARGUMENTS[case]
    with pytest.raises(ValidationError) as refused:
        call()
    assert str(refused.value) == message


def test_builders_take_numpy_integers():
    pairs = [
        (scenario_mazur_mixture(np.int64(4), grid_size=np.int64(32)),
         scenario_mazur_mixture(4, grid_size=32)),
        (scenario_kolmogorov_family([0.4], n_grid=np.array([16, 32])),
         scenario_kolmogorov_family([0.4], n_grid=[16, 32])),
        (scenario_nested_alternatives([F(0.9, 0.1)], n_max=np.int64(64),
                                      k_grid=[np.int64(0), np.int64(64)]),
         scenario_nested_alternatives([F(0.9, 0.1)], n_max=64, k_grid=[0, 64])),
        (scenario_nested_alternatives([F(0.9, 0.1)], n_max=64, k_grid=np.array([0, 8, 16])),
         scenario_nested_alternatives([F(0.9, 0.1)], n_max=64, k_grid=[0, 8, 16])),
    ]
    for built, plain in pairs:
        assert scenario_hash(built.to_json_dict()) == scenario_hash(plain.to_json_dict())
        values = [*built.model_options.values(), built.sim.replications,
                  *built.sim.n_grid, *built.sim.k_grid]
        assert all(type(v) is int for v in values)


def test_margin_grid_is_nan_unless_every_cell_edge_is_on_the_grid():
    for edge, on_grid in ((0.25, True), (0.3, False)):  # 16 and 19.2 cells of 64
        partition = Partition.intervals([0.0, edge, 1.0])
        run = run_scenario(scenario_sine_indistinguishable(2, partition=partition), seed=1)
        margins = [row["margin_grid"] for row in table_dict(run.tables["separation"])]
        assert [math.isnan(m) for m in margins] == [not on_grid] * 2


def test_scenario_from_dict_validation():
    with pytest.raises(ValidationError):
        scenario_from_dict({"name": "x"})
    with pytest.raises(ValidationError):
        scenario_from_dict(
            {"name": "x", "model": {"type": "martian"}, "hypothesis": [], "alternative": []}
        )
    with pytest.raises(ValidationError):
        scenario_from_dict(
            {
                "name": "x",
                "model": {"type": "finite"},
                "hypothesis": [{"no_weights": 1}],
                "alternative": [],
            }
        )


def test_discernibility_workers_do_not_change_results():
    from consistency_lab.simulation import RngSpec as Spec
    from consistency_lab.simulation import discernibility_paths

    scenario = scenario_nested_alternatives(
        [F(0.9, 0.1), F(0.1, 0.9)], n_max=256, replications=600,
    )
    schedule = nested_schedule(scenario)
    kwargs = dict(n_max=256, k_grid=[0, 64, 128, 256], replications=600,
                  rng=Spec(99, 0), role="hypothesis")
    serial = discernibility_paths(schedule, F(0.5, 0.5), workers=1, **kwargs)
    parallel = discernibility_paths(schedule, F(0.5, 0.5), workers=2, **kwargs)
    assert np.array_equal(serial, parallel)


@pytest.fixture
def pool_starts(monkeypatch):
    """Pools started through ``simulation.ProcessPoolExecutor``, with their processes."""
    started = []

    class CountingPool(simulation.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)
            self.processes = []

        def shutdown(self, *args, **kwargs):
            self.processes = list((self._processes or {}).values())
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(simulation, "ProcessPoolExecutor", CountingPool)
    return started


def _signal_scenario():
    return scenario_signal_detection([[0.0]], [[1.0]], 1, epsilon_list=[0.5, 0.2])


def test_run_scenario_starts_one_pool(pool_starts):
    reps = simulation.ERROR_BLOCK + 1  # two blocks in every estimate_error call
    parallel = run_scenario(_signal_scenario(), seed=3, replications=reps, workers=2)
    assert len(pool_starts) == 1
    serial = run_scenario(_signal_scenario(), seed=3, replications=reps, workers=1)
    run_scenario(_signal_scenario(), seed=3, replications=simulation.ERROR_BLOCK, workers=2)
    assert len(pool_starts) == 1  # neither serial nor single-block calls start one
    for name in serial.tables:
        assert parallel.tables[name].rows == serial.tables[name].rows


def test_run_scenario_shuts_pool_down_when_a_table_raises(pool_starts, monkeypatch):
    def fail(scenario):
        raise RuntimeError("projection failed")

    monkeypatch.setattr(scenarios, "_projection_table", fail)
    with pytest.raises(RuntimeError, match="projection failed"):
        run_scenario(
            _signal_scenario(), seed=3, replications=simulation.ERROR_BLOCK + 1, workers=2
        )
    (pool,) = pool_starts
    assert len(pool.processes) == 2
    assert not any(process.is_alive() for process in pool.processes)


def test_rerun_same_seed_identical_tables():
    scenario = scenario_kolmogorov_family([0.4], n_grid=[16, 32])
    a = run_scenario(scenario, seed=9, replications=300)
    b = run_scenario(scenario, seed=9, replications=300)
    for name in a.tables:
        assert a.tables[name].rows == b.tables[name].rows
    c = run_scenario(scenario, seed=10, replications=300)
    assert any(
        a.tables[n].rows != c.tables[n].rows for n in a.tables
    )  # seed actually matters somewhere
