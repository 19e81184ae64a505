"""Source hygiene of the package: no bare strings besides docstrings, no
statement after a ``return``, ``raise``, ``continue`` or ``break`` in its block,
no private function, class or method that nothing in the package uses, one
owner of the tie tolerance, one reader of partition cells, one module that
reads single values, no dataclass that is not frozen, one owner of the
read-only flag of arrays, no read of the environment, a set-up that loads
neither the process pool nor hashing, one error engine: no code but an argument
guard or an equality asks a model its class, and no scenario code defines
a test, and one place where a scenario's models meet its partition."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
_EXITS = (ast.Return, ast.Raise, ast.Continue, ast.Break)
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _faults(source: str, name: str) -> list:
    """``name:line: problem`` for each stray string and unreachable statement."""
    faults = []
    for node in ast.walk(ast.parse(source, filename=name)):
        for field, block in ast.iter_fields(node):
            if not (isinstance(block, list) and block and isinstance(block[0], ast.stmt)):
                continue
            docstring = isinstance(node, _DOCUMENTED) and field == "body"
            for position, stmt in enumerate(block):
                bare = isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
                if bare and isinstance(stmt.value.value, str) and not (docstring and position == 0):
                    faults.append(f"{name}:{stmt.lineno}: bare string")
            for before, after in zip(block, block[1:]):
                if isinstance(before, _EXITS):
                    faults.append(f"{name}:{after.lineno}: unreachable statement")
    return faults


def test_walker_finds_both_faults():
    source = '''
def f(x):
    """Docstring."""
    for y in x:
        continue
        y += 1
    return x
    """stray"""
'''
    assert sorted(_faults(source, "m.py")) == [
        "m.py:6: unreachable statement",
        "m.py:8: bare string",
        "m.py:8: unreachable statement",
    ]


def test_package_has_no_stray_strings_or_unreachable_statements():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    faults = [f for p in paths for f in _faults(p.read_text(), str(p.relative_to(SRC)))]
    assert faults == []


def _unreferenced(sources: dict) -> list:
    """``name:line: unreferenced _f`` for each private function, class or
    method (a ``_`` name that is not a dunder) of ``sources``, a map of file
    name to source, that no name or attribute in any of them reads."""
    defined, read = [], set()
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source, filename=name)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append((name, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{name}:{line}: unreferenced {fn}" for name, line, fn in defined if fn not in read]


def test_reference_check_finds_unused_private_names():
    sources = {
        "a.py": """
def _used():
    return 1


def _unused():
    return _used()


class _Box:
    def __init__(self):
        self._helper()

    def _helper(self):
        pass

    def _dead(self):
        pass
""",
        "b.py": "from a import _Box\nbox = _Box()\n",
    }
    assert _unreferenced(sources) == ["a.py:6: unreferenced _unused", "a.py:17: unreferenced _dead"]


def test_package_private_names_are_all_used():
    sources = {str(p.relative_to(SRC)): p.read_text() for p in sorted(SRC.rglob("*.py"))}
    assert sources
    assert _unreferenced(sources) == []


def _names(source: str, name: str, target: str) -> list:
    """``name:line: target`` for each name, attribute or import of ``target``."""
    lines = set()
    for node in ast.walk(ast.parse(source, filename=name)):
        if isinstance(node, ast.Name) and node.id == target:
            lines.add(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == target:
            lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(a.name == target for a in node.names):
            lines.add(node.lineno)
    return [f"{name}:{line}: {target}" for line in sorted(lines)]


def test_name_check_finds_names_attributes_and_imports():
    source = "from m import TIE_TOL\nx = TIE_TOL\ny = m.TIE_TOL\nz = 'TIE_TOL'\n"
    assert _names(source, "a.py", "TIE_TOL") == [
        "a.py:1: TIE_TOL", "a.py:2: TIE_TOL", "a.py:3: TIE_TOL",
    ]


def test_only_partition_tests_holds_the_tie_tolerance():
    """Separation and ties are decided in ``partition_tests`` alone: other
    modules read ``SeparationReport.radius`` and the tests' boolean decisions,
    and no module compares vectors by ``allclose`` tolerances."""
    sources = {str(p.relative_to(SRC)): p.read_text() for p in sorted(SRC.rglob("*.py"))}
    assert "consistency_lab/partition_tests.py" in sources
    faults = [
        f
        for name, source in sources.items()
        if name != "consistency_lab/partition_tests.py"
        for f in _names(source, name, "TIE_TOL")
    ]
    faults += [f for name, source in sources.items() for f in _names(source, name, "allclose")]
    assert faults == []


def _says(source: str, name: str, text: str) -> list:
    """``name:line`` for each string constant, f-string parts included, holding ``text``."""
    return [
        f"{name}:{node.lineno}"
        for node in ast.walk(ast.parse(source, filename=name))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and text in node.value
    ]


def test_only_measures_reads_partition_cells():
    """``Partition`` reads and checks its own cells: no other module, the file
    parser included, has a message about ``partition.cells``."""
    sources = {str(p.relative_to(SRC)): p.read_text() for p in sorted(SRC.rglob("*.py"))}
    said = [s for name, source in sources.items() for s in _says(source, name, "partition.cells")]
    assert said and {s.split(":")[0] for s in said} == {"consistency_lab/measures.py"}


def test_only_measures_imports_numbers():
    """A number argument is read by ``measures._integer``, ``_positive`` or
    ``_real``: no other module tests a value against the ``numbers`` types."""
    sources = {str(p.relative_to(SRC)): p.read_text() for p in sorted(SRC.rglob("*.py"))}
    importers = {
        name
        for name, source in sources.items()
        for node in ast.walk(ast.parse(source, filename=name))
        if isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "numbers"
    }
    assert importers == {"consistency_lab/measures.py"}


def test_package_reads_no_environment_variable():
    """Output bytes depend on the command line and the scenario file alone:
    no module reads ``os.environ`` or ``os.getenv``."""
    sources = {str(p.relative_to(SRC)): p.read_text() for p in sorted(SRC.rglob("*.py"))}
    assert sources
    faults = [
        f
        for name, source in sources.items()
        for target in ("environ", "getenv")
        for f in _names(source, name, target)
    ]
    assert faults == []


def _mutable_dataclasses(source: str, name: str) -> list:
    """``name:line: mutable dataclass C`` for each class decorated with
    ``dataclass`` (bare, called or as ``dataclasses.dataclass``) without ``frozen=True``."""
    faults = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if not isinstance(node, ast.ClassDef):
            continue
        for decorator in node.decorator_list:
            call = decorator if isinstance(decorator, ast.Call) else None
            target = call.func if call else decorator
            if getattr(target, "id", getattr(target, "attr", None)) != "dataclass":
                continue
            keywords = call.keywords if call else []
            if not any(
                k.arg == "frozen" and isinstance(k.value, ast.Constant) and k.value.value is True
                for k in keywords
            ):
                faults.append(f"{name}:{node.lineno}: mutable dataclass {node.name}")
    return faults


def test_dataclass_check_finds_every_unfrozen_spelling():
    source = """
import dataclasses
from dataclasses import dataclass


@dataclass
class Bare:
    x: int


@dataclass(order=True)
class Ordered:
    x: int


@dataclasses.dataclass(frozen=False)
class Thawed:
    x: int


@dataclass(frozen=True)
class Frozen:
    x: int


@dataclasses.dataclass(frozen=True, order=True)
class FrozenByModule:
    x: int


class Plain:
    pass
"""
    assert _mutable_dataclasses(source, "m.py") == [
        "m.py:7: mutable dataclass Bare",
        "m.py:12: mutable dataclass Ordered",
        "m.py:17: mutable dataclass Thawed",
    ]


def test_every_package_dataclass_is_frozen():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    faults = [f for p in paths for f in _mutable_dataclasses(p.read_text(), str(p.relative_to(SRC)))]
    assert faults == []


def _flag_writes(source: str, name: str) -> list:
    """``name:line: attr in f`` for each ``setflags`` or ``writeable`` attribute,
    with ``f`` the innermost function around it (``<module>`` outside any)."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Attribute) and node.attr in ("setflags", "writeable"):
            found.append(f"{name}:{node.lineno}: {node.attr} in {owner}")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source, filename=name), "<module>")
    return found


def test_flag_check_names_the_function_around_each_freeze():
    source = """
import numpy as np
a = np.zeros(2)
a.setflags(write=False)


def frozen(values):
    def inner(b):
        b.flags.writeable = False
    array = np.array(values)
    np.ndarray.setflags(array, write=False)
    return inner(array)


class Box:
    def keep(self, values):
        return values.setflags
"""
    assert _flag_writes(source, "m.py") == [
        "m.py:4: setflags in <module>",
        "m.py:9: writeable in inner",
        "m.py:11: setflags in frozen",
        "m.py:17: setflags in keep",
    ]


def test_only_measures_frozen_sets_array_flags():
    """Every value keeps an array as ``measures.frozen`` makes it: a read-only
    copy. No other code freezes an array, its caller's least of all."""
    sources = {str(p.relative_to(SRC)): p.read_text() for p in sorted(SRC.rglob("*.py"))}
    assert "consistency_lab/measures.py" in sources
    writes = [w for name, source in sources.items() for w in _flag_writes(source, name)]
    owned = [
        w for w in writes
        if w.startswith("consistency_lab/measures.py:") and w.endswith(": setflags in frozen")
    ]
    assert len(owned) == 1 and writes == owned


def test_cli_set_up_loads_no_pool_or_hashing_module(tmp_path):
    """Importing the CLI and loading a scenario, the set-up of every command,
    loads neither the process pool nor hashing: the first pool to start
    imports ``concurrent.futures``, the first manifest ``hashlib``."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "name": "two-cells",
        "model": {"type": "finite"},
        "hypothesis": [{"weights": [0.5, 0.5]}],
        "alternative": [{"weights": [0.8, 0.2]}],
        "partition": {"cells": [[0], [1]]},
    }))
    probe = (
        "import sys\n"
        "from pathlib import Path\n"
        "from consistency_lab.cli import load_scenario\n"
        "load_scenario(Path(sys.argv[1]))\n"
        "print(*(m for m in sys.argv[2:] if m in sys.modules))\n"
    )
    deferred = ["concurrent.futures", "multiprocessing", "hashlib"]
    result = subprocess.run(
        [sys.executable, "-c", probe, str(path), *deferred],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.split() == []


#: The model classes: what ``estimate_error`` simulates, or refuses to.
_MODEL_CLASSES = {"FiniteMeasure", "DensitySpec", "PoissonModel", "GaussianSequenceModel"}


def _owned(source: str, name: str):
    """Each node of ``source`` with the innermost function around it, after the
    classes around that (``<module>`` outside any function), in source order."""

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = node.name if owner == "<module>" else f"{owner}.{node.name}"
        yield node, owner
        for child in ast.iter_child_nodes(node):
            yield from visit(child, owner)

    return visit(ast.parse(source, filename=name), "<module>")


def _class_checks(source: str, name: str, classes: set) -> list:
    """``name: f: isinstance C`` for each ``isinstance`` call whose class
    argument names one of ``classes``, alone or in a tuple, with ``f`` the
    function around it as :func:`_owned` names it."""
    found = []
    for node, owner in _owned(source, name):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            target = node.args[1] if len(node.args) > 1 else None
            for part in target.elts if isinstance(target, ast.Tuple) else [target]:
                named = getattr(part, "id", getattr(part, "attr", None))
                if named in classes:
                    found.append(f"{name}: {owner}: isinstance {named}")
    return found


def _rejects_owners(source: str, name: str) -> list:
    """``name:line: C`` for each class that defines or assigns ``rejects``."""
    found = []
    for node in ast.walk(ast.parse(source, filename=name)):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            defined = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and stmt.name == "rejects"
            assigned = isinstance(stmt, ast.Assign) and any(
                getattr(t, "id", None) == "rejects" for t in stmt.targets
            )
            if defined or assigned:
                found.append(f"{name}:{node.lineno}: {node.name}")
    return found


def test_engine_checks_find_class_checks_and_tests():
    source = """
import measures


def block(model, workers):
    if isinstance(model, (measures.PoissonModel, GaussianSequenceModel)):
        pass
    return isinstance(workers, Pool) or isinstance(model, FiniteMeasure)


class Count:
    def rejects(self, counts):
        return counts


class Union:
    rejects = Count.rejects


class Table:
    def rows(self):
        return []
"""
    assert _class_checks(source, "m.py", _MODEL_CLASSES) == [
        "m.py: block: isinstance PoissonModel",
        "m.py: block: isinstance GaussianSequenceModel",
        "m.py: block: isinstance FiniteMeasure",
    ]
    assert _rejects_owners(source, "m.py") == ["m.py:11: Count", "m.py:16: Union"]


def test_only_guards_and_equality_ask_a_model_its_class():
    """A model draws for itself (``sample``) and gives its own ``cell_law``:
    no code branches on a model's class. The checks left refuse an argument
    of the wrong class, or compare two measures."""
    sources = {str(p.relative_to(SRC)): p.read_text() for p in sorted(SRC.rglob("*.py"))}
    checks = [c for name, source in sources.items() for c in _class_checks(source, name, _MODEL_CLASSES)]
    assert sorted(checks) == [
        "consistency_lab/distances.py: _gap_pieces: isinstance DensitySpec",
        "consistency_lab/distances.py: _gap_pieces: isinstance DensitySpec",
        "consistency_lab/measures.py: FiniteMeasure.__eq__: isinstance FiniteMeasure",
        "consistency_lab/measures.py: PoissonModel.__post_init__: isinstance FiniteMeasure",
        "consistency_lab/measures.py: discretize: isinstance DensitySpec",
    ]


def test_scenarios_define_no_test():
    """Every test class lives beside ``FrequencyTest`` in ``partition_tests``:
    no class in ``scenarios.py`` decides by ``rejects``."""
    path = SRC / "consistency_lab" / "scenarios.py"
    assert _rejects_owners(path.read_text(), "scenarios.py") == []


def _callers(source: str, name: str, target: str) -> list:
    """``name: f`` for each call of ``target``, by name or attribute, with ``f``
    the function around it as :func:`_owned` names it."""
    return [
        f"{name}: {owner}"
        for node, owner in _owned(source, name)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == target
    ]


def test_caller_check_names_the_function_around_each_call():
    source = """
import measures
from measures import cell_law

v = cell_law(m, None)


class Scenario:
    def laws(self):
        return [m.cell_law(self.partition) for m in self.models]


def separation(a, b, p):
    keep = cell_law
    return keep(a, p)
"""
    assert _callers(source, "m.py", "cell_law") == [
        "m.py: <module>", "m.py: Scenario.laws",
    ]


def test_only_separation_and_cell_laws_apply_a_partition():
    """A scenario meets its partition in ``Scenario.cell_laws``, ``separation``
    maps a caller's models to cells, and a Poisson model's law is its shape's:
    no other code asks a model for its ``cell_law``, so a table, the family,
    the replay and ``distinguish`` cannot answer on other cells than each other."""
    sources = {str(p.relative_to(SRC)): p.read_text() for p in sorted(SRC.rglob("*.py"))}
    callers = [c for name, source in sources.items() for c in _callers(source, name, "cell_law")]
    assert sorted(callers) == [
        "consistency_lab/measures.py: PoissonModel.cell_law",
        "consistency_lab/partition_tests.py: separation",
        "consistency_lab/scenarios.py: Scenario.cell_laws",
    ]
