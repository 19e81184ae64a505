import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from consistency_lab import partition_tests
from consistency_lab.cli import load_scenario, main
from consistency_lab.errors import ValidationError
from consistency_lab.measures import FiniteMeasure, Partition, PoissonModel
from consistency_lab.partition_tests import separation
from consistency_lab.reports import dumps_canonical, format_value, scenario_hash, write_json
from consistency_lab.scenarios import (
    nested_schedule,
    scenario_kolmogorov_family,
    scenario_nested_alternatives,
    scenario_poisson,
    scenario_sine_indistinguishable,
)


def F(*weights):
    return FiniteMeasure(np.array(weights, dtype=float))


@pytest.fixture
def scenario_file(tmp_path):
    def write(scenario, name="scenario.json"):
        path = tmp_path / name
        write_json(path, scenario.to_json_dict())
        return path

    return write


def exit_code(argv) -> int:
    """The exit code of ``main(argv)``, also where the argument parser exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def read_tree(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


# -- distinguish -----------------------------------------------------------------------


def test_distinguish_separated_exit_zero(scenario_file, capsys):
    path = scenario_file(scenario_sine_indistinguishable(1))
    code = main(["distinguish", "--scenario", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    margin = float(out.splitlines()[0].split("=")[1])
    assert margin == pytest.approx(1 / math.pi, abs=1e-12)
    assert "verdict=separated" in out


def test_distinguish_zero_margin_exit_two(scenario_file, capsys):
    scenario = scenario_sine_indistinguishable(2)
    scenario = replace(scenario, alternative=scenario.alternative[1:])  # the aligned frequency
    path = scenario_file(scenario)
    code = main(["distinguish", "--scenario", str(path)])
    out = capsys.readouterr().out
    assert code == 2
    assert "margin=0" in out


def test_distinguish_margin_within_the_tie_tolerance_exit_two(tmp_path, capsys):
    data = {
        "name": "tied-pair",
        "model": {"type": "finite"},
        "hypothesis": [{"weights": [0.5, 0.5]}],
        "alternative": [{"weights": [0.5 + 5e-13, 0.5 - 5e-13]}],
        "partition": {"cells": [[0], [1]]},
    }
    path = tmp_path / "tied.json"
    path.write_text(dumps_canonical(data))
    code = main(["distinguish", "--scenario", str(path)])
    out = capsys.readouterr().out
    assert code == 2
    assert 0.0 < float(out.splitlines()[0].split("=")[1]) <= 1e-12
    assert "verdict=weakly-indistinguishable-on-this-partition" in out


def test_distinguish_and_schedule_read_the_same_cells(tmp_path, capsys):
    """The piece differs from the hypothesis on the atoms but not on the
    partition's two cells: both commands read the cell laws and exit 2."""
    data = {
        "name": "cell-twin",
        "model": {"type": "finite"},
        "hypothesis": [{"weights": [0.25, 0.25, 0.25, 0.25]}],
        "alternative": [{"weights": [0.4, 0.1, 0.4, 0.1]}],
        "partition": {"cells": [[0, 1], [2, 3]]},
        "sim": {"replications": 200},
    }
    path = tmp_path / "cell-twin.json"
    path.write_text(json.dumps(data))
    assert main(["distinguish", "--scenario", str(path)]) == 2
    out, err = capsys.readouterr()
    assert (out.splitlines()[0], out.splitlines()[-1], err) == (
        "margin=0", "verdict=weakly-indistinguishable-on-this-partition", ""
    )
    out_dir = tmp_path / "o"
    assert main(["schedule", "--scenario", str(path), "--out", str(out_dir)]) == 2
    assert capsys.readouterr() == ("", "verdict: piece 1 has zero separation margin\n")
    assert not out_dir.exists()


def test_distinguish_missing_file(tmp_path, capsys):
    code = main(["distinguish", "--scenario", str(tmp_path / "absent.json")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_json_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"name": oops}')
    code = main(["bound", "--scenario", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "line 1" in err and "column" in err


# -- scenario schema -------------------------------------------------------------------


def _density_scenario(tmp_path, alternative, name="density.json", **extra):
    data = {
        "name": "density-parameters",
        "model": {"type": "density"},
        "hypothesis": [{"kind": "uniform"}],
        "alternative": [alternative],
        "partition": {"cells": [[0.0, 0.5], [0.5, 1.0]]},
        **extra,
    }
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize(
    "alternative",
    [
        {"kind": "one_plus_sine", "frequency": 2.7},
        {"kind": "one_plus_sine", "frequency": True},
        {"kind": "pu_family", "u": "0.3"},
    ],
    ids=["fractional-frequency", "bool-frequency", "string-u"],
)
def test_density_parameter_not_coerced(tmp_path, capsys, alternative):
    path = _density_scenario(tmp_path, alternative)
    code = main(["distinguish", "--scenario", str(path)])
    out, err = capsys.readouterr()
    kind, param = alternative["kind"], list(alternative)[1]
    assert code == 1
    assert out == ""
    assert f"{kind} {param} must be" in err


@pytest.mark.parametrize(
    "given, canonical",
    [
        ({"kind": "one_plus_sine", "frequency": 3}, {"kind": "one_plus_sine", "frequency": 3}),
        ({"kind": "one_plus_sine", "frequency": 3.0}, {"kind": "one_plus_sine", "frequency": 3}),
        ({"kind": "pu_family", "u": 0}, {"kind": "pu_family", "u": 0.0}),
    ],
    ids=["int-frequency", "integral-float-frequency", "int-u"],
)
def test_density_parameter_accepted_with_unchanged_hash(tmp_path, capsys, given, canonical):
    path = _density_scenario(tmp_path, given)
    code = main(["distinguish", "--scenario", str(path)])
    assert code in (0, 2)  # separated, or a zero margin: either way not an error
    assert "kraft_bound=" in capsys.readouterr().out
    reference = _density_scenario(tmp_path, canonical, name="canonical.json")
    assert scenario_hash(load_scenario(path).to_json_dict()) == scenario_hash(
        load_scenario(reference).to_json_dict()
    )


def test_partition_without_cells_names_the_key(tmp_path, capsys):
    path = _density_scenario(tmp_path, {"kind": "uniform"}, partition={"breakpoints": [0.5]})
    code = main(["distinguish", "--scenario", str(path)])
    assert code == 1
    assert "scenario 'partition' lacks required key 'cells'" in capsys.readouterr().err


_POISSON_H0 = {"mass": 1.0, "shape": [0.5, 0.5]}
_POISSON_H1 = {"mass": 1.5, "shape": [0.3, 0.7]}


@pytest.mark.parametrize(
    "model, hypothesis, alternative, epsilon_list, code, message",
    [
        ("gaussian_sequence", [[1.0]], [[0.0, 0.0]], [0.5], 1, "one dimension"),
        ("gaussian_sequence", [[1.0, 0.0]], [[1.0, 0.0]], [0.5], 2, "not separated"),
        ("gaussian_sequence", [[0.0]], [[1.0]], [0.0], 1,
         "sim.epsilon_list must be positive and finite, got 0.0"),
        ("gaussian_sequence", [[0.0]], [[1.0]], [math.nan], 1,
         "sim.epsilon_list must be positive and finite, got nan"),
        ("finite", [], [{"weights": [0.9, 0.1]}], [], 1, "must be nonempty"),
        ("poisson", [_POISSON_H0], [_POISSON_H0], [], 1, "mean measures coincide"),
        ("poisson", [_POISSON_H0, _POISSON_H1], [_POISSON_H1], [], 1, "exactly one hypothesis"),
        (
            "poisson",
            [_POISSON_H0],
            [{"mass": 1.5, "shape": [0.2, 0.3, 0.5]}],
            [],
            1,
            "families live on different alphabets: [2, 3]",
        ),
        (
            "finite",
            [{"weights": [0.5, 0.5]}],
            [{"weights": [0.2, 0.3, 0.5]}],
            [],
            1,
            "families live on different alphabets: [2, 3]",
        ),
    ],
    ids=[
        "signal-dimensions-differ",
        "signal-zero-margin",
        "signal-zero-noise",
        "signal-nan-noise",
        "empty-hypothesis",
        "poisson-coincide",
        "two-poisson-hypotheses",
        "poisson-shapes-on-different-alphabets",
        "finite-families-on-different-alphabets",
    ],
)
def test_scenario_file_gets_the_builder_checks(
    tmp_path, capsys, model, hypothesis, alternative, epsilon_list, code, message
):
    def entry(m):
        return {"signal": m} if model == "gaussian_sequence" else m

    data = {
        "name": "checked",
        "model": {"type": model},
        "hypothesis": [entry(m) for m in hypothesis],
        "alternative": [entry(m) for m in alternative],
        "sim": {"replications": 200, "n_grid": [8], "epsilon_list": epsilon_list},
    }
    path = tmp_path / "checked.json"
    path.write_text(json.dumps(data))
    out_dir = tmp_path / "o"
    assert main(["simulate", "--scenario", str(path), "--out", str(out_dir)]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err
    assert not out_dir.exists()


_FINITE = {
    "name": "json-numbers",
    "model": {"type": "finite"},
    "hypothesis": [{"weights": [0.5, 0.5]}],
    "alternative": [{"weights": [0.9, 0.1]}],
    "partition": {"cells": [[0], [1]]},
    "sim": {"replications": 200},
}
_POISSON = {
    "name": "json-numbers",
    "model": {"type": "poisson"},
    "hypothesis": [_POISSON_H0],
    "alternative": [_POISSON_H1],
}

_DENSITY = {
    "name": "density",
    "model": {"type": "density", "grid_size": 64},
    "hypothesis": [{"kind": "uniform"}],
    "alternative": [{"kind": "pu_family", "u": 0.4}],
    "partition": {"cells": [[0.0, 0.5], [0.5, 1.0]]},
    "sim": {"replications": 200, "n_grid": [16]},
}

_SIGNAL = {
    "name": "signal",
    "model": {"type": "gaussian_sequence"},
    "hypothesis": [{"signal": [0.0]}],
    "alternative": [{"signal": [1.0]}],
    "sim": {"replications": 200, "epsilon_list": [0.5]},
}


@pytest.mark.parametrize(
    "scenario, field, value, key",
    [
        (_FINITE, ("alternative", 0, "weights"), ["0.1", "0.9"], "weights"),
        (_FINITE, ("alternative", 0, "weights"), [True, False], "weights"),
        (_POISSON, ("alternative", 0, "mass"), True, "mass"),
        (_POISSON, ("alternative", 0, "mass"), "1.5", "mass"),
        (_FINITE, ("sim", "replications"), 200.7, "sim.replications"),
        (_FINITE, ("sim", "n_grid"), [8.9], "sim.n_grid"),
        (_FINITE, ("sim", "k_grid"), [True], "sim.k_grid"),
        (_DENSITY, ("model", "grid_size"), "64", "model.grid_size"),
        (_FINITE, ("partition", "cells"), [[0.5], [1]], "partition.cells"),
        (_FINITE, ("partition", "cells"), [[True], [False]], "partition.cells"),
        (_FINITE, ("partition", "cells"), "ab", "partition.cells"),
        (_DENSITY, ("partition", "cells"), [["0", "0.5"], ["0.5", "1"]], "partition.cells"),
        (_DENSITY, ("partition", "cells"), [[False, 0.5], [0.5, True]], "partition.cells"),
        (_FINITE, ("alternative", 0, "weights"), [[0.5], 0.5], "weights"),
        (_POISSON, ("alternative", 0, "shape"), [[0.3], 0.7], "shape"),
        (_SIGNAL, ("alternative", 0, "signal"), [[0.5], 1.0], "signal"),
        (_SIGNAL, ("sim", "epsilon_list"), [[0.5], 1.0], "sim.epsilon_list"),
        (_FINITE, ("schedule",), {"exponents": [[0.5], 0.5]}, "schedule.exponents"),
    ],
    ids=[
        "string-weights",
        "bool-weights",
        "bool-mass",
        "string-mass",
        "fractional-replications",
        "fractional-n-grid",
        "bool-k-grid",
        "string-grid-size",
        "fractional-atom",
        "bool-atoms",
        "string-atom-cells",
        "string-edges",
        "bool-edges",
        "ragged-weights",
        "ragged-shape",
        "ragged-signal",
        "ragged-epsilon-list",
        "ragged-exponents",
    ],
)
def test_json_numbers_are_checked_not_coerced(tmp_path, capsys, scenario, field, value, key):
    data = json.loads(json.dumps(scenario))
    *parents, last = field
    target = data
    for part in parents:
        target = target[part]
    target[last] = value
    path = tmp_path / "numbers.json"
    path.write_text(json.dumps(data))
    assert main(["distinguish", "--scenario", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{key} must be" in err


_NESTED = {
    "name": "nested",
    "model": {"type": "finite"},
    "hypothesis": [{"weights": [0.5, 0.5]}],
    "alternative": [{"weights": [0.9, 0.1]}, {"weights": [0.1, 0.9]}],
    "sim": {"replications": 200, "n_grid": [64]},
}
_HALVES = {"cells": [[0, 1], [1, 2]]}


@pytest.mark.parametrize(
    "command, scenario, changes, message",
    [
        ("simulate", _FINITE, {"sim": [1]}, "scenario 'sim' must be an object, got list"),
        (
            "schedule",
            _NESTED,
            {"schedule": [1, 2]},
            "scenario 'schedule' must be an object, got list",
        ),
        (
            "distinguish",
            _FINITE,
            {"hypothesis": {"weights": [0.5, 0.5]}},
            "scenario 'hypothesis' must be a list, got dict",
        ),
        (
            "schedule",
            _NESTED,
            {"schedule": {"exponents": [0.01], "onsets": []}},
            "schedule.exponents must have one entry per alternative piece (2), got 1",
        ),
        (
            "schedule",
            _NESTED,
            {"schedule": {"exponents": [], "onsets": [8, 8, 8]}},
            "schedule.onsets must have one entry per alternative piece (2), got 3",
        ),
        (
            "simulate",
            _NESTED,
            {
                "alternative": [{"weights": [0.0, 1.0]}],
                "schedule": {"exponents": [100], "onsets": [1]},
            },
            "schedule.exponents and schedule.onsets: member 1 certifies exp(-100 n) from "
            "onset 1, which the per-cell bound does not imply (smallest term exponent 0.1308)",
        ),
        (
            "distinguish",
            _POISSON,
            {"partition": _HALVES},
            "scenario 'partition' is not supported by poisson models",
        ),
        (
            "distinguish",
            _SIGNAL,
            {"partition": _HALVES},
            "scenario 'partition' is not supported by gaussian_sequence models",
        ),
        (
            "simulate",
            _DENSITY,
            {"model": {"type": "density", "gridsize": 64}},
            "model.gridsize is not a model option; the options are grid_size, cesaro_scan",
        ),
        (
            "simulate",
            _FINITE,
            {"model": {"type": "finite", "grid_size": 64}},
            "model.grid_size is not supported by finite models",
        ),
        (
            "bound",
            _FINITE,
            {"model": {"type": "finite", "cesaro_scan": 4}},
            "model.cesaro_scan is not supported by finite models",
        ),
        (
            "simulate",
            _POISSON,
            {"model": {"type": "poisson", "cesaro_scan": 4}},
            "model.cesaro_scan is not supported by poisson models",
        ),
        (
            "simulate",
            _SIGNAL,
            {"model": {"type": "gaussian_sequence", "grid_size": 64}},
            "model.grid_size is not supported by gaussian_sequence models",
        ),
        (
            "simulate",
            _DENSITY,
            {"schedule": {"exponents": [0.1]}},
            "scenario 'schedule' is not supported by density models",
        ),
        (
            "simulate",
            _FINITE,
            {"partiton": _HALVES},
            "partiton is not a scenario key; the options are "
            "name, model, hypothesis, alternative, partition, schedule, sim",
        ),
        (
            "simulate",
            _FINITE,
            {"sim": {"replicatons": 200}},
            "sim.replicatons is not a sim option; "
            "the options are replications, n_grid, k_grid, epsilon_list",
        ),
        (
            "schedule",
            _NESTED,
            {"schedule": {"exponent": [0.1, 0.1]}},
            "schedule.exponent is not a schedule option; the options are exponents, onsets",
        ),
        (
            "schedule",
            _NESTED,
            {"sim": {"n_grid": [256], "k_grid": [0, 512]}},
            "sim.k_grid must be sorted and within [0, 256], the schedule horizon "
            "(the largest sim.n_grid entry, or 1024)",
        ),
        (
            "simulate",
            _FINITE,
            {
                "hypothesis": [{"weights": [0.5, 0.25, 0.25]}],
                "alternative": [{"weights": [0.8, 0.1, 0.1]}],
            },
            "partition covers 2 atoms, measure has 3",
        ),
        (
            "simulate",
            _DENSITY,
            {"partition": {"cells": [[0], [1]]}},
            "partition.cells must be pairs of numbers, got [[0], [1]]",
        ),
        (
            "simulate",
            _DENSITY,
            {"partition": {"cells": [[0, 0.5, 0.7], [0.5, 1]]}},
            "partition.cells must be pairs of numbers, got [[0, 0.5, 0.7], [0.5, 1]]",
        ),
        (
            "simulate",
            _FINITE,
            {"partition": {"cells": 3}},
            "partition.cells must be a list of lists, got 3",
        ),
        (
            "simulate",
            _FINITE,
            {"partition": {"cells": [[0], [1]], "kind": "intervals"}},
            "partition.kind is not a partition option; the options are cells",
        ),
        (
            "simulate",
            _FINITE,
            {"alternative": [[0.9, 0.1]]},
            "model entries must be objects, got list",
        ),
        (
            "simulate",
            _DENSITY,
            {"model": {"grid_size": 64}},
            "scenario 'model' must be an object with a 'type'",
        ),
    ],
    ids=[
        "sim-list",
        "schedule-list",
        "hypothesis-object",
        "schedule-exponents-short",
        "schedule-onsets-long",
        "schedule-not-implied",
        "poisson-partition",
        "signal-partition",
        "misspelled-model-option",
        "finite-grid-size",
        "finite-cesaro-scan",
        "poisson-cesaro-scan",
        "signal-grid-size",
        "density-schedule",
        "misspelled-top-level-key",
        "misspelled-sim-key",
        "misspelled-schedule-key",
        "k-grid-past-horizon",
        "partition-alphabet",
        "one-edge-cells",
        "three-edge-cell",
        "number-cells",
        "misspelled-partition-key",
        "model-entry-list",
        "model-without-type",
    ],
)
def test_invalid_scenario_file_names_the_key(
    tmp_path, capsys, command, scenario, changes, message
):
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps({**scenario, **changes}))
    out_dir = tmp_path / "o"
    assert main([command, "--scenario", str(path), "--out", str(out_dir)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "command, scenario, message",
    [
        ("bound", _POISSON, "bound requires finite or density models"),
        ("schedule", _DENSITY, "schedules require finite-alphabet scenarios"),
        (
            "simulate",
            {key: value for key, value in _FINITE.items() if key != "partition"},
            "scenario 'json-numbers' supports no metrics (missing partition/grids?)",
        ),
    ],
    ids=["bound-poisson", "schedule-density", "simulate-finite-without-partition"],
)
def test_unsupported_command_message_is_pinned(tmp_path, capsys, command, scenario, message):
    path = tmp_path / "unsupported.json"
    path.write_text(json.dumps(scenario))
    out_dir = tmp_path / "o"
    assert main([command, "--scenario", str(path), "--out", str(out_dir)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"
    assert not out_dir.exists()


# -- bound -----------------------------------------------------------------------------


def test_bound_prints_hull_and_mixtures(scenario_file, capsys):
    path = scenario_file(scenario_kolmogorov_family([0.4], n_grid=[16]))
    code = main(["bound", "--scenario", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "hull_variation=0.2" in out
    assert "kraft_bound=0.8" in out


def test_bound_identical_sets_is_one(tmp_path, capsys):
    data = {
        "name": "same",
        "model": {"type": "finite"},
        "hypothesis": [{"weights": [0.5, 0.5]}],
        "alternative": [{"weights": [0.5, 0.5]}],
    }
    path = tmp_path / "same.json"
    path.write_text(dumps_canonical(data))
    assert main(["bound", "--scenario", str(path)]) == 0
    assert "kraft_bound=1" in capsys.readouterr().out


def test_bound_disjoint_supports_is_zero(tmp_path, capsys):
    data = {
        "name": "disjoint",
        "model": {"type": "finite"},
        "hypothesis": [{"weights": [1.0, 0.0]}],
        "alternative": [{"weights": [0.0, 1.0]}],
    }
    path = tmp_path / "disjoint.json"
    path.write_text(dumps_canonical(data))
    assert main(["bound", "--scenario", str(path)]) == 0
    assert "kraft_bound=0\n" in capsys.readouterr().out


def test_bound_sine_1_8_grid_128_is_certified(scenario_file, capsys):
    path = scenario_file(scenario_sine_indistinguishable(8, grid_size=128))
    assert main(["bound", "--scenario", str(path)]) == 0
    fields = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert float(fields["hull_variation"]) == pytest.approx(0.0623629183566958, abs=1e-12)  # HiGHS
    assert -1e-15 <= float(fields["duality_gap"]) <= 1e-12


# -- simulate --------------------------------------------------------------------------


def test_simulate_writes_tables_and_manifest(scenario_file, tmp_path, capsys):
    path = scenario_file(scenario_kolmogorov_family([0.4], n_grid=[16, 32]))
    out_dir = tmp_path / "out"
    code = main(
        ["simulate", "--scenario", str(path), "--out", str(out_dir), "--seed", "5",
         "--reps", "300"]
    )
    assert code == 0
    names = {p.name for p in out_dir.iterdir()}
    assert {"errors.csv", "ks.csv", "separation.csv", "manifest.json"} <= names
    manifest = (out_dir / "manifest.json").read_text()
    assert '"seed": 5' in manifest
    assert '"replications": 300' in manifest
    first = (out_dir / "errors.csv").read_text().splitlines()
    assert first[0].startswith("# command=")


def _csv_rows(path: Path) -> list:
    """The header and data rows of a written table, without its manifest lines."""
    return [line.split(",") for line in path.read_text().splitlines() if not line.startswith("#")]


def test_simulate_finite_with_partition_writes_separation(tmp_path, capsys):
    path = tmp_path / "finite.json"
    path.write_text(json.dumps(_FINITE))
    out_dir = tmp_path / "o"
    assert main(["simulate", "--scenario", str(path), "--out", str(out_dir)]) == 0
    assert capsys.readouterr().out == f"wrote 1 metric tables to {out_dir}\n"
    margin = separation([F(0.5, 0.5)], [F(0.9, 0.1)], Partition.identity(2)).margin
    assert _csv_rows(out_dir / "separation.csv") == [
        ["index", "model", "margin", "margin_grid"],
        ["1", "alternative_1", format_value(margin), "nan"],
    ]


def test_distinguish_without_partition_exit_one(tmp_path, capsys):
    path = tmp_path / "finite.json"
    path.write_text(json.dumps({k: v for k, v in _FINITE.items() if k != "partition"}))
    assert main(["distinguish", "--scenario", str(path)]) == 1
    assert capsys.readouterr() == ("", "error: distinguish requires a scenario with a partition\n")


def test_errors_past_the_enumeration_budget_write_nan_exact_columns(
    tmp_path, capsys, monkeypatch
):
    path = tmp_path / "density.json"
    path.write_text(json.dumps(_DENSITY))
    argv = ["simulate", "--scenario", str(path), "--out"]
    assert main(argv + [str(tmp_path / "exact")]) == 0
    monkeypatch.setattr(partition_tests, "ENUMERATION_BUDGET", 0)
    assert main(argv + [str(tmp_path / "over")]) == 0
    header, exact = _csv_rows(tmp_path / "exact" / "errors.csv")
    over_header, over = _csv_rows(tmp_path / "over" / "errors.csv")
    assert header == over_header
    columns = ["alpha_exact", "beta_exact", "total_exact"]
    assert all(exact[header.index(c)] != "nan" for c in columns)
    assert [over[header.index(c)] for c in columns] == ["nan"] * 3
    # the Monte Carlo columns take the same streams either way
    assert [v for c, v in zip(header, over) if c not in columns] == [
        v for c, v in zip(header, exact) if c not in columns
    ]


def test_simulate_same_seed_byte_identical(scenario_file, tmp_path):
    path = scenario_file(scenario_kolmogorov_family([0.4], n_grid=[16]))
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert main(
            ["simulate", "--scenario", str(path), "--out", str(d), "--seed", "9",
             "--reps", "200"]
        ) == 0
    assert read_tree(d1) == read_tree(d2)


def _poisson_scenario():
    h0 = PoissonModel(1.0, FiniteMeasure(np.array([0.5, 0.5])))
    h1 = PoissonModel(1.5, FiniteMeasure(np.array([0.3, 0.7])))
    return scenario_poisson(h0, h1, n_grid=[8, 32])


def _nested_scenario():
    return scenario_nested_alternatives([F(0.9, 0.1), F(0.1, 0.9)], n_max=256)


@pytest.mark.parametrize(
    "command, scenario, reps, table",
    [
        ("simulate", _poisson_scenario, "9000", "poisson_errors.csv"),  # two blocks per estimate
        ("schedule", _nested_scenario, "501", "discernibility.csv"),  # three blocks per curve
    ],
    ids=["simulate-poisson", "schedule-nested"],
)
def test_multi_block_outputs_independent_of_workers(
    scenario_file, tmp_path, command, scenario, reps, table
):
    path = scenario_file(scenario())
    trees = {}
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        assert main(
            [command, "--scenario", str(path), "--out", str(out), "--seed", "3",
             "--reps", reps, "--workers", str(workers)]
        ) == 0
        trees[workers] = read_tree(out)
    assert set(trees[1]) == set(trees[2]) and table in trees[1]
    for name, data in trees[1].items():
        other = trees[2][name]
        if name != "schedule.json":  # the manifest and tables record their worker count ...
            assert data != other
        assert data.replace(b'"workers": 1', b'"workers": 2').replace(
            b"# workers=1", b"# workers=2"
        ) == other  # ... and nothing else differs


def test_simulate_plots_flag_emits_svg(scenario_file, tmp_path):
    path = scenario_file(scenario_kolmogorov_family([0.4], n_grid=[16, 32, 64]))
    out_dir = tmp_path / "plots"
    assert main(
        ["simulate", "--scenario", str(path), "--out", str(out_dir), "--reps", "200",
         "--plots"]
    ) == 0
    svgs = list(out_dir.glob("*.svg"))
    assert svgs and all(s.read_text().startswith("<svg") for s in svgs)


# -- schedule --------------------------------------------------------------------------


def test_schedule_writes_schedule_and_curve(scenario_file, tmp_path):
    scenario = scenario_nested_alternatives(
        [F(0.9, 0.1), F(0.1, 0.9)], n_max=256, replications=200,
        k_grid=list(range(0, 257, 32)),
    )
    path = scenario_file(scenario)
    out_dir = tmp_path / "sched"
    code = main(
        ["schedule", "--scenario", str(path), "--out", str(out_dir), "--seed", "3",
         "--reps", "200"]
    )
    assert code == 0
    schedule = json.loads((out_dir / "schedule.json").read_text())
    assert schedule["blocks"][0]["start"] == 1
    for block in schedule["blocks"]:  # bound_at_start is exp(-c n) past the printed onset
        c, onset, start = block["exponent"], block["onset"], block["start"]
        assert block["bound_at_start"] == (math.exp(-c * start) if start > onset else 1.0)
    assert (out_dir / "discernibility.csv").exists()


def test_schedule_zero_margin_piece_exit_two(tmp_path, capsys):
    data = {
        "name": "bad-piece",
        "model": {"type": "finite"},
        "hypothesis": [{"weights": [0.5, 0.5]}],
        "alternative": [{"weights": [0.9, 0.1]}, {"weights": [0.5, 0.5]}],
        "sim": {"replications": 200, "n_grid": [64], "k_grid": [0, 32, 64]},
        "schedule": {"exponents": [], "onsets": []},
    }
    path = tmp_path / "bad.json"
    path.write_text(dumps_canonical(data))
    code = main(["schedule", "--scenario", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert "piece 2" in err


@pytest.mark.parametrize(
    "pieces, schedule, code, message",
    [
        (
            [[0.5 + 1e-8, 0.5 - 1e-8]],
            None,
            2,
            "verdict: piece 1 has exponent 2.094e-17; exp(-c) is not below 1: "
            "no summable bound",
        ),
        (  # the deviation exponents cancel to a negative number
            [[0.5 + 1e-9, 0.5 - 1e-9]],
            None,
            2,
            "verdict: piece 1 has exponent -1.124e-18; exp(-c) is not below 1: "
            "no summable bound",
        ),
        (
            [[0.9, 0.1]],
            {"exponents": [1e-300]},
            1,
            "error: schedule.exponents: member 1 has exponent 1e-300; exp(-c) is not "
            "below 1: no summable bound",
        ),
        (
            [[0.9, 0.1], [0.1, 0.9]],
            {"exponents": [1e-300, 1e-300]},
            1,
            "error: schedule.exponents: member 1 has exponent 1e-300; exp(-c) is not "
            "below 1: no summable bound",
        ),
    ],
    ids=["derived-tiny", "derived-negative", "stored-one-member", "stored-two-members"],
)
def test_schedule_without_a_summable_certificate_names_its_source(
    tmp_path, capsys, pieces, schedule, code, message
):
    data = {
        "name": "unsummable",
        "model": {"type": "finite"},
        "hypothesis": [{"weights": [0.5, 0.5]}],
        "alternative": [{"weights": w} for w in pieces],
        "sim": {"replications": 200, "n_grid": [64]},
    }
    if schedule is not None:
        data["schedule"] = schedule
    path = tmp_path / "unsummable.json"
    path.write_text(json.dumps(data))
    out_dir = tmp_path / "o"
    assert main(["schedule", "--scenario", str(path), "--out", str(out_dir)]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"{message}\n"
    assert not out_dir.exists()


def test_schedule_nmax_below_first_boundary_exit_one(tmp_path, capsys):
    # tiny exponents force a first boundary far beyond the requested horizon
    data = {
        "name": "short-horizon",
        "model": {"type": "finite"},
        "hypothesis": [{"weights": [0.5, 0.5]}],
        "alternative": [{"weights": [0.9, 0.1]}, {"weights": [0.1, 0.9]}],
        "sim": {"replications": 200, "n_grid": [16], "k_grid": [0, 8, 16]},
        "schedule": {"exponents": [0.01, 0.01], "onsets": [21, 21]},  # the bound's onsets
    }
    path = tmp_path / "short.json"
    path.write_text(dumps_canonical(data))
    code = main(["schedule", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "first block boundary" in capsys.readouterr().err


def test_schedule_too_large_to_replay_names_the_stage_and_size(tmp_path, capsys):
    data = {
        "name": "nested-huge",
        "model": {"type": "finite"},
        "hypothesis": [{"weights": [0.5, 0.5]}],
        "alternative": [{"weights": [0.9, 0.1]}, {"weights": [0.1, 0.9]}],
        "sim": {"replications": 300, "n_grid": [10_000_000], "k_grid": [0, 10_000_000]},
    }
    path = tmp_path / "huge.json"
    path.write_text(dumps_canonical(data))
    code = main(["schedule", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: path replay: 250 paths at n_max = 10000000 need ")
    assert "2500000000 bytes" in err


def _nested_without_grid(tmp_path) -> Path:
    """Finite nested scenario with neither ``sim.n_grid`` nor stored certificates."""
    data = {
        "name": "nested-no-grid",
        "model": {"type": "finite"},
        "hypothesis": [{"weights": [0.5, 0.5]}],
        "alternative": [{"weights": [0.9, 0.1]}, {"weights": [0.1, 0.9]}],
        "sim": {"replications": 200},
    }
    path = tmp_path / "no-grid.json"
    path.write_text(dumps_canonical(data))
    return path


def test_schedule_without_n_grid_runs_to_default_horizon(tmp_path):
    out_dir = tmp_path / "o"
    code = main(["schedule", "--scenario", str(_nested_without_grid(tmp_path)),
                 "--out", str(out_dir)])
    assert code == 0
    schedule = json.loads((out_dir / "schedule.json").read_text())
    assert schedule["n_max"] == 1024  # nested_schedule's default horizon
    rows = (out_dir / "discernibility.csv").read_text().splitlines()
    assert rows[-1].startswith("1024,")


def _count_family_builds(monkeypatch) -> list:
    import consistency_lab.scenarios as scenarios

    calls = []
    original = scenarios.build_nested_family

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(scenarios, "build_nested_family", counting)
    return calls


def test_schedule_builds_the_family_once(tmp_path, monkeypatch):
    calls = _count_family_builds(monkeypatch)
    code = main(["schedule", "--scenario", str(_nested_without_grid(tmp_path)),
                 "--out", str(tmp_path / "o")])
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["schedule", "simulate"])
def test_stored_certificates_build_the_family_once(command, scenario_file, tmp_path, monkeypatch):
    # the load-time check of the stored certificates builds the family that
    # the schedule then interleaves
    path = scenario_file(scenario_nested_alternatives(
        [F(0.9, 0.1), F(0.1, 0.9)], n_max=256, replications=200, k_grid=[0, 128, 256],
    ))
    calls = _count_family_builds(monkeypatch)
    assert main([command, "--scenario", str(path), "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1


def test_family_is_built_once_per_value(monkeypatch):
    scenario = scenario_nested_alternatives([F(0.9, 0.1), F(0.1, 0.9)], n_max=256)
    calls = _count_family_builds(monkeypatch)
    derived = replace(scenario, schedule={})
    assert calls == []  # nothing stored to check: the family waits for its first use
    assert nested_schedule(derived).n_max == nested_schedule(derived).n_max == 256
    assert derived.family is derived.family
    assert len(calls) == 1
    assert [(m.exponent, m.onset) for m in derived.family] == [
        (m.exponent, m.onset) for m in scenario.family
    ]


def test_replaced_schedule_builds_anew_and_is_checked(monkeypatch):
    scenario = scenario_nested_alternatives([F(0.9, 0.1), F(0.1, 0.9)], n_max=256)
    exponents, onsets = scenario.schedule["exponents"], scenario.schedule["onsets"]
    calls = _count_family_builds(monkeypatch)
    halved = replace(scenario, schedule={"exponents": [c / 2 for c in exponents]})
    assert len(calls) == 1  # the stored exponents are checked at construction
    nested_schedule(halved)
    assert len(calls) == 1
    assert [m.exponent for m in halved.family] == [
        min(exponents[:i]) / 2 for i in range(1, len(exponents) + 1)
    ]
    assert [m.exponent for m in scenario.family] == list(exponents)
    # one onset earlier, the summed terms exceed the bound
    with pytest.raises(ValidationError, match="^schedule.exponents .*member 2 "):
        replace(scenario, schedule={**scenario.schedule, "onsets": [onsets[0], onsets[1] - 1]})
    with pytest.raises(ValidationError, match="^schedule.exponents .*member 1 "):
        replace(scenario, schedule={"exponents": [0.09, 0.09]})


def test_schedule_rejects_density_scenario(scenario_file, tmp_path, capsys):
    path = scenario_file(scenario_kolmogorov_family([0.4], n_grid=[16]))
    code = main(["schedule", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "finite-alphabet" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_no_workers_env_fallback(scenario_file, tmp_path, monkeypatch):
    """Only ``--workers`` sets the worker count that every output file records:
    a variable left in the shell changes no output byte."""
    path = scenario_file(scenario_kolmogorov_family([0.4], n_grid=[16]))
    monkeypatch.setenv("CONSISTENCY_LAB_WORKERS", "2")
    out_dir = tmp_path / "env"
    assert main(
        ["simulate", "--scenario", str(path), "--out", str(out_dir), "--reps", "200"]
    ) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["workers"] == 1


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--workers", "0"], "--workers must be >= 1, got 0"),
        (["--workers", "-4"], "--workers must be >= 1, got -4"),
        (["--workers", "abc"], "error: argument --workers: invalid int value: 'abc'"),
    ],
    ids=["zero", "negative", "not-integer"],
)
def test_workers_below_one_or_not_integer_rejected(
    scenario_file, tmp_path, capsys, flags, message
):
    """Every bad ``--workers`` is an operational error, exit code 1, before any
    output: the parser's malformed-flag exit included."""
    path = scenario_file(scenario_kolmogorov_family([0.4], n_grid=[16]))
    out_dir = tmp_path / "out"
    code = exit_code(
        ["simulate", "--scenario", str(path), "--out", str(out_dir), "--reps", "200"] + flags
    )
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


def test_help_exits_zero(capsys):
    assert exit_code(["simulate", "--help"]) == 0
    assert "--workers" in capsys.readouterr().out


def _refused_before_loading(monkeypatch, tmp_path, capsys, argv) -> str:
    """Standard error of ``argv``, a command and its flags, after asserting that
    it exits 1 without loading its scenario or making its output directory."""
    import consistency_lab.cli as cli

    loaded = []
    monkeypatch.setattr(cli, "load_scenario", loaded.append)
    out_dir = tmp_path / "out"
    assert exit_code(argv + ["--scenario", str(tmp_path / "s.json"), "--out", str(out_dir)]) == 1
    assert loaded == []
    assert not out_dir.exists()
    return capsys.readouterr().err


@pytest.mark.parametrize("seed", [-1, 2**64, "x"], ids=["negative", "two-to-the-64", "not-integer"])
def test_seed_outside_64_bits_rejected_before_any_work(tmp_path, monkeypatch, capsys, seed):
    err = _refused_before_loading(monkeypatch, tmp_path, capsys, ["simulate", "--seed", str(seed)])
    assert "--seed" in err and str(seed) in err


@pytest.mark.parametrize("reps", [0, 50])
@pytest.mark.parametrize("command", ["distinguish", "bound", "simulate", "schedule"])
def test_reps_below_100_rejected_before_any_work(tmp_path, monkeypatch, capsys, command, reps):
    """``--reps`` below ``MIN_REPLICATIONS`` is an operational error that names
    the flag, for every command, also those that run no Monte Carlo."""
    err = _refused_before_loading(monkeypatch, tmp_path, capsys, [command, "--reps", str(reps)])
    assert f"--reps must be >= 100, got {reps}" in err


def test_largest_64_bit_seed_accepted(scenario_file, tmp_path):
    path = scenario_file(scenario_kolmogorov_family([0.4], n_grid=[16]))
    out_dir = tmp_path / "out"
    argv = ["simulate", "--scenario", str(path), "--out", str(out_dir), "--reps", "200"]
    assert main(argv + ["--seed", str(2**64 - 1)]) == 0
    assert f'"seed": {2**64 - 1}' in (out_dir / "manifest.json").read_text()
