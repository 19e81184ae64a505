"""Per-module timing wrappers for the traced benchmark run.

The wrappers are installed from outside the package and only for the traced
run. Each one replaces the original object wherever a caller looks the name
up: in every module of the package that imported it, in dictionaries such as
the CLI's command table, or on the class for methods. Spans and counts live
in a :class:`Tracer` and are taken in the calling process only, so work done
inside worker processes shows through the parent's ``estimate_error`` and
``discernibility_paths`` spans alone.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from math import comb

import numpy as np

PACKAGE = "consistency_lab"


def _rows(counts) -> int:
    return int(np.shape(counts)[0]) if np.ndim(counts) == 2 else 1


def _outcomes(args, result) -> dict:
    n = args["n"] if args["n"] is not None else args["test"].sample_size
    k = args["p"].alphabet_size
    return {"outcomes": comb(n + k - 1, k - 1)}


def _file_bytes(args, result) -> dict:
    return {"bytes": args["path"].stat().st_size}


#: (module, attribute, metric prefix, measure of one successful call from its
#: bound arguments and result). These calls are timed as spans.
SPANNED = (
    ("cli", "cmd_bound", "cli.bound", None),
    ("cli", "cmd_simulate", "cli.simulate", None),
    ("cli", "cmd_schedule", "cli.schedule", None),
    ("scenarios", "run_scenario", "scenarios.run_scenario", None),
    ("scenarios", "build_nested_family", "scenarios.build_nested_family", None),
    ("distances", "hull_variation", "distances.hull_variation",
     lambda a, r: {"lp_iterations": r.iterations}),
    ("simplex", "solve_lp", "simplex.solve_lp", None),
    ("distances", "ks_distance", "distances.ks_distance", None),
    ("distances", "density_total_variation", "distances.density_total_variation", None),
    ("quadrature", "integrate", "quadrature.integrate", None),
    ("measures", "discretize", "measures.discretize", None),
    ("measures", "DensitySpec.quantile", "measures.quantile",
     lambda a, r: {"points": int(np.size(a["v"]))}),
    ("partition_tests", "exact_error", "partition_tests.exact_error", _outcomes),
    ("partition_tests", "count_vectors", "partition_tests.count_vectors", None),
    ("scheduler", "interleave", "scheduler.interleave", None),
    ("scheduler", "TestSchedule.certified_tail", "scheduler.certified_tail", None),
    ("simulation", "estimate_error", "simulation.estimate_error",
     lambda a, r: {"replications": a["replications"], "draws": a["replications"] * a["n"]}),
    ("simulation", "discernibility_paths", "simulation.discernibility_paths",
     lambda a, r: {"path_steps": a["replications"] * a["n_max"]}),
    ("reports", "write_csv", "reports.write_csv", _file_bytes),
    ("reports", "write_json", "reports.write_json", _file_bytes),
)

#: Hot calls that are counted but not timed: (module, attribute, metric
#: prefix, measure from the raw positional arguments).
COUNTED = (
    ("measures", "DensitySpec.pdf", "measures.pdf", lambda self, x: {"points": int(np.size(x))}),
    ("partition_tests", "FrequencyTest.rejects", "partition_tests.rejects",
     lambda self, counts: {"rows": _rows(counts)}),
    ("partition_tests", "UnionTest.rejects", "partition_tests.rejects",
     lambda self, counts: {"rows": _rows(counts)}),
    ("scheduler", "TestSchedule.test_at", "scheduler.test_at", None),
)


def layer_prefixes() -> set:
    """The ``module.function`` part of every per-layer metric a traced pass reports."""
    return {prefix for _, _, prefix, _ in SPANNED + COUNTED} | {"simulation", "trace"}


class Tracer:
    """Spans ``[name, start, end, parent]`` and counts of one traced pass."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._active = set()
        self._undo = []

    def reset(self):
        self.spans, self.counts = [], Counter()

    # -- wrappers -------------------------------------------------------------
    def _spanned(self, name, fn, measure):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in self._active:  # recursion: time the outermost call only
                return fn(*args, **kwargs)
            self.counts[f"{name}.calls"] += 1
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            self._active.add(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[f"{name}.failed"] += 1
                raise
            finally:
                self.spans[index][2] = time.perf_counter()
                self._stack.pop()
                self._active.discard(name)
            if measure is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in measure(bound.arguments, result).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        return wrapper

    def _counted(self, name, fn, measure):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[f"{name}.calls"] += 1
            if measure is not None:
                for key, value in measure(*args, **kwargs).items():
                    self.counts[f"{name}.{key}"] += value
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------------
    def install(self):
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for module, attribute, name, measure in table:
                owner = sys.modules[f"{PACKAGE}.{module}"]
                if "." in attribute:
                    cls_name, method = attribute.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[method]
                    self._replace(cls, method, make(name, original, measure))
                else:
                    original = getattr(owner, attribute)
                    self._replace_everywhere(modules, original, make(name, original, measure))
        simulation = sys.modules[f"{PACKAGE}.simulation"]
        tracer = self

        class CountingPool(simulation.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                tracer.counts["simulation.pool_starts"] += 1
                super().__init__(*args, **kwargs)

        self._replace(simulation, "ProcessPoolExecutor", CountingPool)

    def _replace(self, owner, attribute, value):
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        setattr(owner, attribute, value)
        self._undo.append(lambda: setattr(owner, attribute, original))

    def _replace_everywhere(self, modules, original, wrapper):
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, key, wrapper)
                elif isinstance(value, dict):
                    for entry, item in list(value.items()):
                        if item is original:
                            value[entry] = wrapper
                            self._undo.append(lambda d=value, e=entry: d.__setitem__(e, original))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    # -- per-layer numbers ----------------------------------------------------
    def summary(self) -> dict:
        """Counts plus ``busy_s`` and ``self_s`` per span name for this pass."""
        out = {key: float(value) for key, value in self.counts.items()}
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _), child_time in zip(self.spans, covered):
            out[f"{name}.busy_s"] = out.get(f"{name}.busy_s", 0.0) + (end - start)
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start - child_time)
        return out
