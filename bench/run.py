"""Benchmark of the consistency-lab CLI, run in process as users run it.

    python3 bench/run.py --workload floors --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1                  # every workload, in turn

Run from anywhere; the package is imported from the ``src`` directory next
to this one. Each run writes the workload's scenario files into a throw-away
directory under ``.bench_out/``, runs one untimed warm-up pass of the
workload's commands and then timed passes until ``--seconds`` is used up (at
least three), and checks the outputs of the last pass against computations
made apart from the program. The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` (CLI commands, over all
passes) and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
alternates traced and untraced passes, reports the per-layer metrics of the
traced passes and the tracing overhead, and writes every span and count to
``.bench_out/trace-<workload>-seed<seed>.json``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Timed passes a run makes at the least, after its warm-up pass.
MIN_TIMED_PASSES = 3
#: Set-up samples taken before each timed pass; set-up reports their median.
SETUP_PROBES_PER_PASS = 2

#: Fresh interpreter that imports the package and loads the scenario files,
#: then reports on stdout; interpreter shutdown is not part of set-up.
SETUP_PROBE = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from consistency_lab.cli import load_scenario
for path in sys.argv[2:]:
    load_scenario(Path(path))
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    outcomes: list  # (command, exit code, stdout, stderr)
    digest: str
    layers: dict = field(default_factory=dict)  # per-layer numbers of a traced pass
    spans: list = field(default_factory=list)  # [name, start, end, parent], from pass start


def cpu_seconds() -> float:
    """CPU time of this process and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mib() -> float:
    """Larger of this process's peak RSS and the largest waited-for child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0  # Linux reports KiB


def time_setup(scenario_files: list) -> float:
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), *map(str, scenario_files)],
        stdout=subprocess.PIPE,
        text=True,
    ) as probe:
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - start
        probe.communicate()
    if line != "ready\n" or probe.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {probe.returncode}")
    return elapsed


def output_digest(directory: Path, outcomes) -> str:
    """Hash of every file written and of every command's exit code and output."""
    digest = hashlib.sha256(repr([(c.label, code, out, err) for c, code, out, err in outcomes]).encode())
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(directory)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_pass(cli, workload, scenario_dir: Path, out_dir: Path, seed: int, workers: int,
             tracer=None) -> Pass:
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    gc.collect()  # every pass starts from a collected heap
    outcomes = []
    if tracer is not None:
        tracer.reset()
    cpu = cpu_seconds()
    start = time.perf_counter()
    for command in workload.commands:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(command.argv(scenario_dir, out_dir, seed, workers))
        outcomes.append((command, code, stdout.getvalue(), stderr.getvalue()))
    wall = time.perf_counter() - start
    cpu = cpu_seconds() - cpu
    result = Pass(wall, cpu, outcomes, output_digest(out_dir, outcomes))
    if tracer is not None:
        result.layers = tracer.summary()
        result.spans = [[n, s - start, e - start, p] for n, s, e, p in tracer.spans]
    return result


def failure_problems(outcomes) -> tuple:
    """Number of failed commands, and failures other than the known faults."""
    failed, problems = 0, []
    for command, code, _, stderr in outcomes:
        if code == 0:
            continue
        failed += 1
        if command.fails_with is None or command.fails_with not in stderr:
            problems.append(f"{command.label} exited {code}: {stderr.strip()}")
    return failed, problems


def check_outputs(workload, passes, out_dir, scenario_dir, seed, cli) -> list:
    import checks  # imports scipy, so only after peak RSS is read
    from workloads import SCENARIOS

    problems = []
    if len({p.digest for p in passes}) != 1:
        problems.append("passes with the same seed wrote different bytes")
    last = passes[-1]
    for command, code, stdout, _ in last.outcomes:
        if code == 0:
            problems += checks.check_command(command, out_dir, stdout, SCENARIOS[command.scenario])
    if workload.workers > 1:
        single = out_dir.parent / "workers-1"
        run_pass(cli, workload, scenario_dir, single, seed, workers=1)
        problems += [f"--workers 1 vs {workload.workers}: {p}"
                     for p in checks.same_bytes_but_workers(out_dir, single)]
    return problems


def measure(workload, seed: int, seconds: float, trace: bool, work_dir: Path) -> dict:
    from workloads import write_scenarios

    import consistency_lab.cli as cli

    scenario_dir = work_dir / "scenarios"
    scenario_files = write_scenarios(workload, scenario_dir)
    out_dir = work_dir / "out"
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()

    setup = []
    if not trace:
        time_setup(scenario_files)  # warm-up, not counted
    start = time.perf_counter()
    warmup = run_pass(cli, workload, scenario_dir, out_dir, seed, workload.workers)
    timed, untraced = [], []
    while True:
        if not trace:
            setup += [time_setup(scenario_files) for _ in range(SETUP_PROBES_PER_PASS)]
            timed.append(run_pass(cli, workload, scenario_dir, out_dir, seed, workload.workers))
        else:
            tracer.install()
            try:
                timed.append(run_pass(cli, workload, scenario_dir, out_dir, seed,
                                      workload.workers, tracer))
            finally:
                tracer.uninstall()
            untraced.append(run_pass(cli, workload, scenario_dir, out_dir, seed, workload.workers))
        elapsed = time.perf_counter() - start
        step = timed[-1].wall_s + (untraced[-1].wall_s if trace else 0.0)
        if len(timed) >= MIN_TIMED_PASSES and elapsed + step > seconds:
            break
    rss = peak_rss_mib()

    passes = [warmup] + timed + untraced
    attempted = len(passes) * len(workload.commands)
    failed, problems = 0, []
    for p in passes:
        count, found = failure_problems(p.outcomes)
        failed += count
        problems += found
    problems = sorted(set(problems))
    problems += check_outputs(workload, passes, out_dir, scenario_dir, seed, cli)

    return {
        "passes": len(passes),
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "timed": timed,
        "untraced": untraced,
        "setup_s": setup,
        "peak_rss_mib": rss,
    }


def walls(passes) -> list:
    return [p.wall_s for p in passes]


def end_to_end(result: dict) -> dict:
    return {
        "setup_s": statistics.median(result["setup_s"]),
        "wall_s": statistics.median(walls(result["timed"])),
        "cpu_s": statistics.median(p.cpu_s for p in result["timed"]),
        "peak_rss_mib": result["peak_rss_mib"],
    }


def per_layer(result: dict, names: list) -> tuple:
    """Per-layer values: medians of times, counts from the first traced pass."""
    from tracing import layer_prefixes

    unknown = [n for n in names if n.rsplit(".", 1)[0] not in layer_prefixes()]
    if unknown:
        raise SystemExit(f"error: BENCHMARK.json names unknown per-layer metrics {sorted(unknown)}")
    layers = [p.layers for p in result["timed"]]
    problems = []
    counts = {k: v for k, v in layers[0].items() if not k.endswith("_s")}
    for other in layers[1:]:
        again = {k: v for k, v in other.items() if not k.endswith("_s")}
        if again != counts:
            problems.append("per-layer counts differ between traced passes")
            break
    traced = statistics.median(walls(result["timed"]))
    values = {
        "trace.wall_s": traced,
        "trace.overhead_s": traced - statistics.median(walls(result["untraced"])),
    }
    for name in names:
        if name in values:
            continue
        if name.endswith("_s"):
            values[name] = statistics.median(layer.get(name, 0.0) for layer in layers)
        else:
            values[name] = counts.get(name, 0.0)
    return values, problems


def environment() -> str:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return (f"cpus={os.cpu_count()} python={platform.python_version()} numpy={numpy.__version__} "
            f"blas={blas.get('name')} {blas.get('version')} OPENBLAS_NUM_THREADS={threads}")


def run_one(args, spec: dict) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        result = measure(workload, args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    problems = result["problems"]
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    if args.trace:
        values, found = per_layer(result, list(units))
        problems += found
        trace_file = OUT / f"trace-{workload.name}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": workload.name,
            "seed": args.seed,
            "traced_wall_s": walls(result["timed"]),
            "untraced_wall_s": walls(result["untraced"]),
            "overhead_s": values["trace.overhead_s"],
            "traced_passes": [{"wall_s": p.wall_s, "layers": p.layers, "spans": p.spans}
                              for p in result["timed"]],
        }) + "\n", encoding="utf-8")
    else:
        values = end_to_end(result)

    print(f"# {environment()}")
    print(f"# workload={workload.name} seed={args.seed} passes={result['passes']} "
          f"(1 warm-up) commands/pass={len(workload.commands)} "
          f"attempted={result['attempted']} failed={result['failed']}")
    print(f"# pass wall_s: {' '.join(f'{w:.3f}' for w in walls(result['timed']))}")
    if args.trace:
        print(f"# untraced pass wall_s: {' '.join(f'{w:.3f}' for w in walls(result['untraced']))}")
        print_layer_table([p.layers for p in result["timed"]])
        print(f"# spans and counts: {trace_file}")
    else:
        print(f"# setup_s samples: {' '.join(f'{s:.4f}' for s in result['setup_s'])}")
    for name, unit in units.items():
        print(f"{name:48s} {values[name]:>16.6g} {unit}")
    for problem in problems:
        print(f"# CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def print_layer_table(layers: list) -> None:
    """calls, busy_s, self_s and counts per traced function (medians of passes)."""
    names = sorted({k.rsplit(".", 1)[0] for layer in layers for k in layer})
    print(f"# {'function':40s} {'calls':>9s} {'busy_s':>9s} {'self_s':>9s}  counts")
    for name in names:
        def median(metric):
            return statistics.median(layer.get(f"{name}.{metric}", 0.0) for layer in layers)

        extra = sorted({k.rsplit(".", 1)[1] for layer in layers for k in layer
                        if k.rsplit(".", 1)[0] == name} - {"calls", "busy_s", "self_s"})
        extras = " ".join(f"{e}={median(e):.0f}" for e in extra)
        timed = any(f"{name}.busy_s" in layer for layer in layers)
        times = f"{median('busy_s'):9.4f} {median('self_s'):9.4f}" if timed else f"{'-':>9s} {'-':>9s}"
        print(f"# {name:40s} {median('calls'):9.0f} {times}  {extras}")


def run_all(args) -> int:
    """Every workload in its own process, so that peak RSS is per workload."""
    from workloads import WORKLOADS

    results, status = {}, 0
    for name in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = completed.stdout.splitlines()
        print(f"## {name}")
        print("\n".join(lines[:-1]))
        if completed.returncode != 0 or not lines:
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        status |= 0 if results[name]["correct"] else 1
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="floors | paths | errors | all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "consistency_lab" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'consistency_lab'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    sys.path.insert(0, str(SRC))
    import consistency_lab

    if Path(consistency_lab.__file__).resolve().parent != SRC / "consistency_lab":
        print(f"error: imported {consistency_lab.__file__}, not the checkout's package",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
