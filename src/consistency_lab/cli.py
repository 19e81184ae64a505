"""Command-line front end: scenario loading, execution, report emission.

Exit codes: 0 success, 1 operational error (bad input or flag, missing file,
worker failure), 2 domain verdict (families not separated on the requested
partition, or a schedule piece that cannot be built).
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import __version__
from .distances import hull_variation, kraft_bound
from .errors import ConstructionError, ValidationError
from .measures import FiniteMeasure
from .partition_tests import separation
from .reports import (
    format_value,
    scenario_hash,
    svg_line_chart,
    write_csv,
    write_json,
)
from .scenarios import (
    Scenario,
    bound_families,
    run_scenario,
    scenario_from_dict,
    scheduled,
)
from .simulation import MIN_REPLICATIONS


@dataclass(frozen=True)
class RunConfig:
    """Verbatim run parameters; recorded in every output manifest."""

    out_dir: Path
    seed: int
    replications: Optional[int]
    workers: int
    plots: bool


#: Integer flags checked before any work: flag -> (least, past the largest, the range in words).
_FLAG_RANGES = {
    "seed": (0, 2**64, "in [0, 2**64)"),
    "workers": (1, float("inf"), ">= 1"),
    "reps": (MIN_REPLICATIONS, float("inf"), f">= {MIN_REPLICATIONS}"),
}


def load_scenario(path: Path) -> Scenario:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read scenario file: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"malformed scenario JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    return scenario_from_dict(data)


def _manifest(scenario: Scenario, config: RunConfig, command: str) -> dict:
    return {
        "command": command,
        "scenario": scenario.name,
        "scenario_hash": scenario_hash(scenario.to_json_dict()),
        "seed": config.seed,
        "replications": (
            config.replications
            if config.replications is not None
            else scenario.sim.replications
        ),
        "workers": config.workers,
        "version": __version__,
    }


def cmd_distinguish(scenario: Scenario, config: RunConfig) -> int:
    if scenario.partition is None:
        raise ValidationError("distinguish requires a scenario with a partition")
    report = separation(scenario.hypothesis, scenario.alternative, scenario.partition)
    h = [FiniteMeasure(v) for v in report.hypothesis_vectors]
    a = [FiniteMeasure(v) for v in report.alternative_vectors]
    bound = kraft_bound(h, a)
    i, j = report.witness_pair
    print(f"margin={format_value(report.margin)}")
    print(f"witness=hypothesis[{i}] vs alternative[{j}]")
    print(f"kraft_bound={format_value(bound)}")
    if report.radius <= 0.0:
        print("verdict=weakly-indistinguishable-on-this-partition")
        return 2
    print("verdict=separated")
    return 0


def cmd_bound(scenario: Scenario, config: RunConfig) -> int:
    hull = hull_variation(*bound_families(scenario))
    print(f"hull_variation={format_value(hull.value)}")
    print(f"kraft_bound={format_value(1.0 - hull.value)}")
    print(f"mixture_p={','.join(format_value(float(x)) for x in hull.mixture_p)}")
    print(f"mixture_q={','.join(format_value(float(x)) for x in hull.mixture_q)}")
    print(f"lp_iterations={hull.iterations}")
    print(f"duality_gap={format_value(hull.duality_gap)}")
    return 0


def _run_and_write(scenario: Scenario, config: RunConfig, command: str) -> int:
    """Run every metric of the scenario, write its tables, reports and manifest; count tables."""
    run = run_scenario(
        scenario,
        seed=config.seed,
        replications=config.replications,
        workers=config.workers,
    )
    manifest = _manifest(scenario, config, command)
    out_dir = config.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, table in run.tables.items():
        write_csv(out_dir / f"{name}.csv", table.columns, table.rows, manifest)
        if config.plots and len(table.rows) > 1:
            numeric = [
                c
                for c in range(len(table.columns))
                if all(isinstance(r[c], (int, float)) for r in table.rows)
            ]
            if len(numeric) >= 2:
                x_col = numeric[0]
                series = {
                    table.columns[c]: [float(r[c]) for r in table.rows]
                    for c in numeric[1:]
                }
                chart = svg_line_chart(
                    name, [float(r[x_col]) for r in table.rows], series
                )
                (out_dir / f"{name}.svg").write_text(chart, encoding="utf-8")
    for name, report in run.reports.items():
        write_json(out_dir / f"{name}.json", report)
    write_json(out_dir / "manifest.json", manifest)
    return len(run.tables)


def cmd_simulate(scenario: Scenario, config: RunConfig) -> int:
    tables = _run_and_write(scenario, config, "simulate")
    print(f"wrote {tables} metric tables to {config.out_dir}")
    return 0


def cmd_schedule(scenario: Scenario, config: RunConfig) -> int:
    _run_and_write(scheduled(scenario), config, "schedule")
    print(f"wrote schedule and discernibility curve to {config.out_dir}")
    return 0


_COMMANDS = {
    "distinguish": cmd_distinguish,
    "bound": cmd_bound,
    "simulate": cmd_simulate,
    "schedule": cmd_schedule,
}


class _Parser(argparse.ArgumentParser):
    """Argument parser whose malformed or missing flag is an operational
    error, exit code 1; its subcommand parsers are of this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="consistency-lab",
        description="Distinguishability bounds, partition tests, and discernible schedules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("distinguish", "partition separation margin and the error-floor bound"),
        ("bound", "convex-hull variation distance and the attainable error floor"),
        ("simulate", "run every metric the scenario supports; write CSV/JSON reports"),
        ("schedule", "build the interleaved test schedule and its discernibility curve"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--scenario", required=True, type=Path, help="scenario JSON file")
        cmd.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        cmd.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
        cmd.add_argument("--reps", type=int, default=None, help="replication override")
        cmd.add_argument("--workers", type=int, default=1, help="worker processes (default: 1)")
        cmd.add_argument("--plots", action="store_true", help="emit SVG line charts")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag, (least, past, words) in _FLAG_RANGES.items():
            value = getattr(args, flag)
            if value is not None and not least <= value < past:
                raise ValidationError(f"--{flag} must be {words}, got {value}")
        config = RunConfig(
            out_dir=args.out,
            seed=args.seed,
            replications=args.reps,
            workers=args.workers,
            plots=args.plots,
        )
        scenario = load_scenario(args.scenario)
        return _COMMANDS[args.command](scenario, config)
    except ConstructionError as exc:
        print(f"verdict: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # operational failure: report, never traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
