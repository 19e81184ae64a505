"""Seeded Monte Carlo estimation of test errors for every model class.

Reproducibility contract: all randomness flows through counter-based Philox
generators keyed by ``(seed, stream)``. Replications are split into
fixed-size blocks, block ``b`` of a task owning stream ``s`` draws from
``(seed, s + b)``, and aggregation walks blocks in index order, so results are
bit-identical for a given seed regardless of the worker count.

An error block is ``test.rejects(model.sample(gen, n, size))``: the model
draws all its replications in one call and the test decides each row. An
i.i.d. model is its cell law, a :class:`FiniteMeasure` whose atoms are the
test's cells, and draws multinomial(``n``, cell law) counts; a Poisson model
draws independent Poisson(``n * mass * w_j``) atom counts, a Gaussian
sequence its observation vectors (see :mod:`.measures`). Only the path replay
draws single observations. A draw's cell counts the interior cumulative cell
probabilities ``<= u`` of its uniform ``u``, one comparison per edge, into
``uint8`` cells up to 256 cells. Every test decides booleans. Both
estimators count the errors of a role:
rejections under the hypothesis, acceptances under the alternative. Their
blocks run in the calling process, or in a :class:`WorkerPool` that a caller
such as ``run_scenario`` opens once and shares between its calls.

Sample paths are replayed in segments, cut from the schedule's blocks, over
which the schedule hands out one test. The running counts are kept one row
per cell, the layout that ``settled`` and ``decide`` read. A path whose
decision at the segment's end holds at every frequency it can drift to inside
the segment is settled: it gets that one decision for the whole segment. Only
the other paths are decided prefix by prefix. A block draws and bins its
uniforms a few paths at a time into one cell array, whose size is checked
against ``MAX_PATH_CELL_BYTES`` first.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .measures import _integer, _positive, _real

#: Fewest replications of a Monte Carlo error estimate: of a scenario, a run and a call.
MIN_REPLICATIONS = 100
#: Replications per RNG block in i.i.d. error estimation.
ERROR_BLOCK = 8192
#: Sample paths per RNG block in discernibility runs.
PATH_BLOCK = 250
#: Longest run of sample sizes replayed at once. A path settles for a whole
#: segment when its decision holds within ``(hi - lo - 1) / hi``, so shorter
#: segments settle more paths; the open paths of one segment, at PATH_BLOCK
#: paths, keep their prefix counts and distance arrays near 1 MiB.
PATH_SEGMENT = 64
#: Uniforms a path block draws and bins at a time: ``max(1, PATH_DRAW_CHUNK //
#: n_max)`` paths, so the float draws stay near 32 MiB at any ``n_max``.
PATH_DRAW_CHUNK = 1 << 22
#: Largest cell array, one byte per draw up to 256 cells, that a path block
#: allocates; a larger replay raises ``ResourceLimitError`` instead.
MAX_PATH_CELL_BYTES = 1 << 30
#: Stream stride reserved for one simulation task (blocks fit underneath).
TASK_STRIDE = 1 << 20
#: Two-sided 95% standard normal quantile.
Z95 = 1.959963984540054


@dataclass(frozen=True)
class RngSpec:
    """Deterministic generator address: a 64-bit seed plus a stream id."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def block(self, index: int) -> "RngSpec":
        return RngSpec(self.seed, self.stream + index)

    def task(self, index: int) -> "RngSpec":
        """Disjoint stream range for the ``index``-th simulation task of a run."""
        return RngSpec(self.seed, self.stream + index * TASK_STRIDE)


@dataclass(frozen=True)
class SimulationReport:
    """Monte Carlo probability estimate with its 95% Wilson score interval ``[lo, hi]``."""

    estimate: float
    lo: float
    hi: float


# -- binning and the Poisson tail bound ---------------------------------------------


def _cells_below(edges: np.ndarray, uniforms: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``searchsorted(edges, uniforms, side="right")``, written into ``out``: a
    sum of one comparison per edge."""
    out[...] = 0
    for edge in edges:
        out += uniforms >= edge
    return out


def poisson_atom_tail_bound(lam: float, n: int, x: float) -> float:
    """Two-sided exponential bound on ``P(|N - n*lam| > n*x)`` for the atom count.

    Valid for ``0 < x < lam``; at ``x >= lam`` the lower-tail term is
    undefined.
    """
    lam, n = _positive(lam, "lam"), _integer(n, "n")
    x = _real(x, "x", lambda v: 0.0 < v < lam, "must satisfy 0 < x < lam")
    upper = math.exp(-n * (lam + x) * math.log1p(x / lam) + n * x)
    lower = math.exp(-n * (lam - x) * math.log(1.0 - x / lam) - n * x)
    return upper + lower


# -- Monte Carlo error estimation ----------------------------------------------------


def wilson_interval(estimate: float, replications: int):
    """95% Wilson score interval (Wilson 1927); stable near 0 and 1.

    The interval holds its estimate: rounding is kept from pushing an end
    past it, so the interval of 0 starts at 0 and that of 1 ends at 1.
    Raises ``ValidationError`` unless ``replications`` is an integer >= 1 and
    the estimate is a proportion in [0, 1].
    """
    replications = _integer(replications, "replications")
    estimate = _real(
        estimate, "wilson_interval", lambda p: 0.0 <= p <= 1.0, "needs an estimate in [0, 1]"
    )
    z = Z95
    z2 = z * z
    denom = 1.0 + z2 / replications
    center = (estimate + z2 / (2.0 * replications)) / denom
    half = (
        z
        * math.sqrt(estimate * (1.0 - estimate) / replications + z2 / (4.0 * replications**2))
        / denom
    )
    return min(estimate, max(0.0, center - half)), max(estimate, min(1.0, center + half))


def _simulate_error_block(args) -> int:
    """Number of errors in ``size`` replications at ``rng``: rejections when
    ``errs_on_reject``, else acceptances. The model draws the ``size`` rows
    in one call and the test decides them."""
    test, model, n, errs_on_reject, size, rng = args
    reject = test.rejects(model.sample(rng.generator(), n, size))
    return int(np.count_nonzero(reject == errs_on_reject))


def _errs_on_reject(role: str) -> bool:
    """Whether rejections are the errors of ``role``: they are under the
    ``"hypothesis"``, and acceptances are under the ``"alternative"``."""
    if role not in ("hypothesis", "alternative"):
        raise ValidationError("role must be 'hypothesis' or 'alternative'")
    return role == "hypothesis"


def __getattr__(name: str):
    """``ProcessPoolExecutor``, imported on first use: it loads ``multiprocessing``,
    which a run without a pool never needs. The class stays a module attribute,
    so it can be replaced by name."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


class WorkerPool:
    """Process pool for the RNG blocks of several simulation calls.

    The processes start on the first call with more than one block and at
    more than one worker, and stop at :meth:`close` or at the end of a
    ``with`` block. Each worker gets one chunk of blocks; results keep task order.
    """

    def __init__(self, workers: int):
        self.workers = workers
        self._executor = None

    def map(self, fn, tasks) -> list:
        if self.workers <= 1 or len(tasks) <= 1:
            return [fn(t) for t in tasks]
        if self._executor is None:  # never more processes than the tasks of this call
            executor = globals().get("ProcessPoolExecutor") or __getattr__("ProcessPoolExecutor")
            self._executor = executor(max_workers=min(self.workers, len(tasks)))
        return list(self._executor.map(fn, tasks, chunksize=-(-len(tasks) // self.workers)))

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _run_blocks(fn, head: tuple, replications: int, block: int, rng: RngSpec, workers) -> list:
    """``fn(head + (size, rng.block(b)))`` for every block ``b`` of at most
    ``block`` of the ``replications``, in block order. ``workers`` is a worker
    count or a shared :class:`WorkerPool`."""
    tasks = [
        head + (min(block, replications - first), rng.block(b))
        for b, first in enumerate(range(0, replications, block))
    ]
    if isinstance(workers, WorkerPool):
        return workers.map(fn, tasks)
    with WorkerPool(workers) as pool:
        return pool.map(fn, tasks)


def estimate_error(
    test,
    model,
    n: int,
    replications: int,
    rng: RngSpec,
    role: str = "hypothesis",
    workers: Union[int, WorkerPool] = 1,
) -> SimulationReport:
    """Monte Carlo estimate of a test's error probability under ``model``.

    An error is a rejection in the ``"hypothesis"`` role (the type I error)
    and an acceptance in the ``"alternative"`` role (the type II error); a
    model is anything with ``sample(gen, n, size)``: a cell law, a
    :class:`~.measures.PoissonModel` or a :class:`~.measures.GaussianSequenceModel`.
    Blocks of replications own disjoint RNG streams and are reduced in index
    order, so the result depends only on ``rng`` and the arguments. The
    report carries the estimate's :func:`wilson_interval`.
    ``workers`` is a worker count or a :class:`WorkerPool` shared with other calls.
    """
    n = _integer(n, "n")
    replications = _integer(replications, "replications", MIN_REPLICATIONS)
    if not hasattr(model, "sample"):  # refused before any block runs or any pool starts
        raise ValidationError(
            f"unsupported model type {type(model).__name__}: it has no sample(gen, n, size); "
            "a density is sampled through its cell law under a partition"
        )
    head = (test, model, n, _errs_on_reject(role))
    totals = _run_blocks(_simulate_error_block, head, replications, ERROR_BLOCK, rng, workers)
    estimate = float(sum(totals)) / replications
    return SimulationReport(estimate, *wilson_interval(estimate, replications))


# -- discernibility along growing sample paths ----------------------------------------


def _constant_segments(schedule, n_max: int) -> list:
    """Runs ``(lo, hi, test)`` of at most ``PATH_SEGMENT`` sample sizes, cut from
    the schedule's blocks up to ``n_max``: ``test`` serves every ``lo < n <= hi``."""
    return [
        (lo, min(lo + PATH_SEGMENT, end), schedule.test_at(lo + 1))
        for _, _, start, end in schedule.blocks(n_max)
        for lo in range(start - 1, end, PATH_SEGMENT)
    ]


def _simulate_path_block(args) -> np.ndarray:
    segments, model, n_max, k_grid, errs_on_reject, size, rng = args
    # A draw's cell counts the interior cumulative probabilities at or below
    # its uniform; leaving out the last keeps a rounded total from making a cell k.
    k, edges = model.weights.size, np.cumsum(model.weights[:-1])
    dtype = np.dtype(np.uint8 if k <= 256 else np.intp)
    nbytes = size * n_max * dtype.itemsize
    if nbytes > MAX_PATH_CELL_BYTES:
        raise ResourceLimitError(
            f"path replay: {size} paths at n_max = {n_max} need {nbytes} bytes "
            f"of cells, above the {MAX_PATH_CELL_BYTES} byte limit"
        )
    cells = np.empty((size, n_max), dtype=dtype)
    # Philox rows drawn in turn are the rows of one (size, n_max) draw.
    gen, rows = rng.generator(), max(1, PATH_DRAW_CHUNK // n_max)
    for first in range(0, size, rows):
        chunk = cells[first : first + rows]
        _cells_below(edges, gen.random(chunk.shape), chunk)
    one_hot = np.arange(k, dtype=cells.dtype)[:, None, None]
    counts = np.zeros((k, size), dtype=np.int64)  # one row per cell
    last_error = np.zeros(size, dtype=np.int64)
    for lo, hi, test in segments:
        drawn = cells[None, :, lo:hi] == one_hot  # (cell, path, n) one-hot of draws lo..hi-1
        start, counts = counts, counts + drawn.sum(axis=2)
        # Settled paths: for lo < n <= hi, |f(n) - f(hi)| <= (hi - n)/hi in
        # the sup norm, so a decision that holds within that drift holds over
        # the whole segment (1e-9 absorbs rounding): a settled path errs at
        # every n or at none.
        settled, rejected = test.settled(counts / hi, 2.0 * (hi - lo - 1) / hi + 1e-9)
        last_error[settled & (rejected == errs_on_reject)] = hi
        # Open paths: decide the counts of every prefix n = lo+1..hi, one
        # (path, n) plane per cell: the running counts plus the cumulative
        # one-hot of the segment's draws.
        open_rows = np.flatnonzero(~settled)
        if open_rows.size == 0:
            continue
        prefix = np.cumsum(drawn[:, open_rows], axis=2) + start[:, open_rows, None]
        freq = prefix / np.arange(lo + 1, hi + 1)
        rejected = test.decide(freq.reshape(k, -1)).reshape(open_rows.size, hi - lo)
        errors = rejected == errs_on_reject
        erred = errors.any(axis=1)
        last_error[open_rows[erred]] = hi - np.argmax(errors[erred, ::-1], axis=1)
    return np.array([(last_error > after).sum() for after in k_grid], dtype=np.int64)


def discernibility_paths(
    schedule,
    model,
    n_max: int,
    k_grid: Sequence[int],
    replications: int,
    rng: RngSpec,
    role: str = "hypothesis",
    workers: Union[int, WorkerPool] = 1,
) -> np.ndarray:
    """Error-after-k curve of a schedule along incrementally grown sample paths.

    Each path draws one nested sample ``X_1..X_{n_max}`` from the cell law
    ``model``, a ``FiniteMeasure`` (others are refused before any block runs),
    and the scheduled test is re-evaluated on every prefix; an error is a
    rejection in the ``"hypothesis"`` role and an acceptance in the
    ``"alternative"`` role. For each ``k`` of ``k_grid`` the returned array
    holds the fraction of paths erring at some ``n`` in ``(k, n_max]``, which
    is non-increasing in ``k``. The draws and decisions are those of a
    per-``n`` loop; the replay in segments (see the module docstring) needs
    tests that decide from the cell frequencies alone, with ``decide`` and
    ``settled`` (as :class:`~.partition_tests.FrequencyTest` has them).
    ``workers`` is a worker count or a shared :class:`WorkerPool`.
    """
    if not hasattr(model, "weights"):  # refused before any block runs or any pool starts
        raise ValidationError(
            f"unsupported model type {type(model).__name__}: the replay draws from a "
            "FiniteMeasure cell law, such as an entry of Scenario.cell_laws"
        )
    errs_on_reject = _errs_on_reject(role)
    n_max = _integer(n_max, "n_max")
    if n_max > schedule.n_max:
        raise ValidationError(f"n_max must be in [1, {schedule.n_max}]")
    replications = _integer(replications, "replications")
    ks = tuple(_integer(k, "k_grid", 0) for k in k_grid)
    if any(k > n_max for k in ks) or list(ks) != sorted(ks):
        raise ValidationError("k_grid must be sorted integers within [0, n_max]")
    head = (_constant_segments(schedule, n_max), model, n_max, ks, errs_on_reject)
    counts = _run_blocks(_simulate_path_block, head, replications, PATH_BLOCK, rng, workers)
    return np.sum(counts, axis=0) / replications
