"""The traced benchmark run against the package it wraps.

``bench/tracing.py`` finds package functions by module and attribute name, and
its measures read a call's arguments by parameter name. A rename in the package
would otherwise fail only in a ``bench/run.py --trace 1`` run.
"""
import dis
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def _resolve(module, attribute):
    """The object the tracer replaces: a module attribute or a method in its class's dict."""
    owner = importlib.import_module(f"{tracing.PACKAGE}.{module}")
    if "." in attribute:
        cls_name, method = attribute.split(".")
        return getattr(owner, cls_name).__dict__[method]
    return getattr(owner, attribute)


def _bound_names(measure) -> set:
    """Keys a spanned measure reads from its first parameter, the bound arguments."""
    first = measure.__code__.co_varnames[0]
    code = list(dis.get_instructions(measure))
    return {
        key.argval
        for load, key in zip(code, code[1:])
        if load.opname.startswith("LOAD_FAST") and load.argval == first
        and key.opname == "LOAD_CONST" and isinstance(key.argval, str)
    }


def _row_id(row):
    return f"{row[0]}.{row[1]}"


@pytest.mark.parametrize("row", tracing.SPANNED, ids=_row_id)
def test_spanned_call_resolves_and_binds_its_arguments(row):
    module, attribute, _, measure = row
    fn = _resolve(module, attribute)
    assert callable(fn)
    if measure is not None:
        parameters = inspect.signature(fn).parameters
        assert _bound_names(measure) <= set(parameters), (attribute, list(parameters))


@pytest.mark.parametrize("row", tracing.COUNTED, ids=_row_id)
def test_counted_call_resolves_and_takes_its_positional_arguments(row):
    module, attribute, _, measure = row
    fn = _resolve(module, attribute)
    assert callable(fn)
    if measure is not None:
        names = list(inspect.signature(measure).parameters)
        assert list(inspect.signature(fn).parameters)[: len(names)] == names


def test_bound_names_cover_every_spanned_measure():
    names = set().union(*(_bound_names(m) for *_, m in tracing.SPANNED if m is not None))
    assert names == {"n", "test", "p", "replications", "n_max", "v", "path"}
