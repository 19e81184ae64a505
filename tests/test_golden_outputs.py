"""Byte identity of the benchmark workloads' outputs.

Every command of ``bench/workloads.py`` runs in process, at seeds 1 and 2, in
a temporary directory with relative paths. One short digest per command and
seed covers its exit code, stdout, stderr and every file it wrote; the
digests must equal those of ``tests/golden_outputs.json``, which also records
the numpy version that made them (another numpy may move the last bits of a
float). A change that moves output bytes on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden_outputs.py

and names each command whose digest moved.
"""
import contextlib
import hashlib
import importlib.util
import io
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from consistency_lab import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden_outputs.json"
SEEDS = (1, 2)
#: The one output line that may differ between worker counts, in CSV and in JSON.
_WORKERS_ENTRY = re.compile(r'^(# workers=\d+|\s*"workers": \d+,?)$', re.MULTILINE)


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    writes = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ under bench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


workloads = _load_workloads()


def _run(command, seed: int, workers: int, out: Path) -> tuple:
    """``(exit code, stdout, stderr, {file: bytes})`` of one command, run in the
    current directory on the scenario files under ``scenarios``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(command.argv(Path("scenarios"), out, seed, workers))
    directory = out / command.label
    files = {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }
    return code, stdout.getvalue(), stderr.getvalue(), files


def _key(workload, command, seed: int) -> str:
    return f"{workload.name}/{command.label}/seed-{seed}"


def _digest(outcome: tuple) -> str:
    code, stdout, stderr, files = outcome
    return hashlib.sha256(repr((code, stdout, stderr, sorted(files.items()))).encode()).hexdigest()[:16]


def _all_outcomes() -> dict:
    """Every workload command at its workload's worker count and at each seed,
    run in the current directory; keyed by :func:`_key`."""
    outcomes = {}
    for workload in workloads.WORKLOADS.values():
        workloads.write_scenarios(workload, Path("scenarios"))
        for seed in SEEDS:
            for command in workload.commands:
                outcomes[_key(workload, command, seed)] = _run(
                    command, seed, workload.workers, Path(f"seed-{seed}")
                )
    return outcomes


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp_path_factory.mktemp("golden"))
        yield _all_outcomes()


def test_workload_outputs_match_the_golden_digests(outcomes):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    digests = {key: _digest(outcome) for key, outcome in outcomes.items()}
    assert len(digests) == 24 and set(digests) == set(golden["digests"])
    moved = sorted(key for key in digests if digests[key] != golden["digests"][key])
    assert moved == [], (
        f"output bytes moved for {moved}; the golden digests were made with numpy "
        f"{golden['numpy']}, this run has numpy {np.__version__}"
    )


def test_error_outputs_do_not_depend_on_the_worker_count(outcomes, tmp_path, monkeypatch):
    """The ``errors`` commands write the same bytes at ``--workers`` 1 as at
    their workload's 2, apart from the recorded workers entry."""
    monkeypatch.chdir(tmp_path)  # the same relative paths as the golden run, so the same stdout
    workload = workloads.WORKLOADS["errors"]
    assert workload.workers == 2
    workloads.write_scenarios(workload, Path("scenarios"))
    for command in workload.commands:
        code, stdout, stderr, files = _run(command, 1, 1, Path("seed-1"))
        pooled = outcomes[_key(workload, command, 1)]
        assert (code, stdout, stderr) == pooled[:3] and code == 0
        assert sorted(files) == sorted(pooled[3])
        for name, data in files.items():
            one, two = (_WORKERS_ENTRY.sub("", d.decode("utf-8")) for d in (data, pooled[3][name]))
            assert one == two, f"{command.label}/{name} depends on the worker count"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch, pytest.MonkeyPatch.context() as patch:
        patch.chdir(scratch)
        digests = {key: _digest(outcome) for key, outcome in sorted(_all_outcomes().items())}
    GOLDEN.write_text(
        json.dumps({"numpy": np.__version__, "digests": digests}, indent=1) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(digests)} digests to {GOLDEN}")
