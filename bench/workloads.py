"""Scenario files and CLI commands of the benchmark workloads.

Each workload is a fixed list of ``consistency-lab`` commands run on scenario
files written here, independent of the package's scenario builders. The
workload seed reaches the program only as the ``--seed`` of each command, so
one seed always gives the same inputs and, by the program's reproducibility
contract, the same output bytes.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

UNIFORM = {"kind": "uniform"}
HALF_SPLIT = [[0.0, 0.5], [0.5, 1.0]]
K_GRID = list(range(0, 2049, 64))


def _sine(i: int) -> dict:
    return {"kind": "one_plus_sine", "frequency": i}


def _pu(u: float) -> dict:
    return {"kind": "pu_family", "u": u}


def _sine_family(name: str, last: int, grid_size: int, **model) -> dict:
    """Uniform hypothesis against ``one_plus_sine`` 1..``last``."""
    return {
        "name": name,
        "model": {"type": "density", "grid_size": grid_size, **model},
        "hypothesis": [UNIFORM],
        "alternative": [_sine(i) for i in range(1, last + 1)],
    }


def _nested(name: str, hypothesis: list, pieces: list, sim: dict) -> dict:
    """Finite nested-alternatives scenario without stored certificates.

    With no ``schedule`` key the CLI derives exponents and verifies onsets by
    exact enumeration, as it does for a user's first run of a new scenario.
    """
    return {
        "name": name,
        "model": {"type": "finite"},
        "hypothesis": [{"weights": w} for w in hypothesis],
        "alternative": [{"weights": w} for w in pieces],
        "sim": sim,
    }


SCENARIOS = {
    # floors: deterministic distance numerics only.
    "sine-1-5-g128": _sine_family("sine-1-5-g128", 5, 128),
    "sine-1-7-g128": _sine_family("sine-1-7-g128", 7, 128),
    "sine-1-8-g128": _sine_family("sine-1-8-g128", 8, 128),
    "mazur-16-g64": _sine_family("mazur-16-g64", 16, 64, cesaro_scan=16),
    "kolmogorov-0-02-04": {
        "name": "kolmogorov-0-02-04",
        "model": {"type": "density", "grid_size": 64},
        "hypothesis": [UNIFORM],
        "alternative": [_pu(0.0), _pu(0.2), _pu(0.4)],
        "partition": {"cells": HALF_SPLIT},
        "sim": {"replications": 4000, "n_grid": []},
    },
    # paths: sample-path replay of interleaved schedules.
    "nested-2x2": _nested(
        "nested-2x2",
        [[0.5, 0.5]],
        [[0.9, 0.1], [0.1, 0.9]],
        {"replications": 500, "n_grid": [2048], "k_grid": K_GRID},
    ),
    "nested-3x3": _nested(
        "nested-3x3",
        [[1 / 3, 1 / 3, 1 / 3]],
        [[0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]],
        {"replications": 500, "n_grid": [2048], "k_grid": K_GRID},
    ),
    "nested-2x2-no-grid": _nested(
        "nested-2x2-no-grid",
        [[0.5, 0.5]],
        [[0.9, 0.1], [0.1, 0.9]],
        {"replications": 500},
    ),
    # errors: i.i.d. Monte Carlo for every model class next to exact values.
    "kolmogorov-4cells": {
        "name": "kolmogorov-4cells",
        "model": {"type": "density", "grid_size": 64},
        "hypothesis": [UNIFORM],
        "alternative": [_pu(0.2), _pu(0.4)],
        "partition": {"cells": [[0.0, 0.25], [0.25, 0.5], [0.5, 0.75], [0.75, 1.0]]},
        "sim": {"replications": 4000, "n_grid": [8, 16, 32, 64]},
    },
    "sine-1-3-half": {
        "name": "sine-1-3-half",
        "model": {"type": "density", "grid_size": 64},
        "hypothesis": [UNIFORM],
        "alternative": [_sine(1), _sine(2), _sine(3)],
        "partition": {"cells": HALF_SPLIT},
        "sim": {"replications": 2000, "n_grid": [16, 48, 96]},
    },
    "poisson-two-stage": {
        "name": "poisson-two-stage",
        "model": {"type": "poisson"},
        "hypothesis": [{"mass": 1.0, "shape": [0.5, 0.5]}],
        "alternative": [{"mass": 1.5, "shape": [0.3, 0.7]}],
        "sim": {"replications": 4000, "n_grid": [8, 32, 128, 512]},
    },
    "signal-2d": {
        "name": "signal-2d",
        "model": {"type": "gaussian_sequence"},
        "hypothesis": [{"signal": [0.0, 0.0]}],
        "alternative": [{"signal": [1.0, 0.5]}],
        "sim": {"replications": 100000, "epsilon_list": [0.25, 0.5, 1.0, 2.0]},
    },
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output must contain.

    ``outputs`` names the files a successful run must write (``bound``
    prints to stdout instead). ``fails_with`` is the message of a known fault
    that makes the command fail on every run today; the command counts as
    failed while it fails with that message, and any other failure is an
    error of the benchmark run.
    """

    command: str
    scenario: str
    outputs: tuple = ()
    fails_with: Optional[str] = None

    @property
    def label(self) -> str:
        return f"{self.command}-{self.scenario}"

    def argv(self, scenario_dir: Path, out_dir: Path, seed: int, workers: int) -> list:
        return [
            self.command,
            "--scenario", str(scenario_dir / f"{self.scenario}.json"),
            "--out", str(out_dir / self.label),
            "--seed", str(seed),
            "--workers", str(workers),
        ]


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    commands: tuple

    @property
    def scenarios(self) -> list:
        return sorted({c.scenario for c in self.commands})


SCHEDULE_OUTPUTS = ("schedule.json", "discernibility.csv")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "floors",
            workers=1,
            commands=(
                Command("bound", "sine-1-5-g128"),
                Command("bound", "sine-1-7-g128"),
                Command(
                    "bound",
                    "sine-1-8-g128",
                    fails_with="disagrees with mixture distance",
                ),
                Command("simulate", "mazur-16-g64", ("ks.csv", "hull.csv", "cesaro.csv")),
                Command("simulate", "kolmogorov-0-02-04", ("ks.csv", "hull.csv")),
            ),
        ),
        Workload(
            "paths",
            workers=1,
            commands=(
                Command("schedule", "nested-2x2", SCHEDULE_OUTPUTS),
                Command("schedule", "nested-3x3", SCHEDULE_OUTPUTS),
                Command(
                    "schedule",
                    "nested-2x2-no-grid",
                    SCHEDULE_OUTPUTS,
                    fails_with="supports no metrics",
                ),
            ),
        ),
        Workload(
            "errors",
            workers=2,
            commands=(
                Command("simulate", "kolmogorov-4cells", ("ks.csv", "hull.csv", "errors.csv")),
                Command("simulate", "sine-1-3-half", ("ks.csv", "hull.csv", "errors.csv")),
                Command("simulate", "poisson-two-stage", ("poisson_errors.csv",)),
                Command("simulate", "signal-2d", ("epsilon_sweep.csv",)),
            ),
        ),
    )
}


def write_scenarios(workload: Workload, directory: Path) -> list:
    """Write the workload's scenario files; returns their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name in workload.scenarios:
        path = directory / f"{name}.json"
        path.write_text(json.dumps(SCENARIOS[name], indent=1) + "\n", encoding="utf-8")
        paths.append(path)
    return paths
