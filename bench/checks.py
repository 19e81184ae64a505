"""Output checks that do not rest on the program's own numbers.

Every value is compared with a computation made here (closed-form distances,
an LP solved by scipy's HiGHS, a quadrature between located sign changes,
binomial quantiles) or with a property the method must have. A check raises
:class:`CheckFailed` with the first problem it finds.
"""
from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np
from scipy.optimize import brentq, linprog
from scipy.stats import binom

#: Chance that one statistical comparison fails on correct output; there are
#: a few hundred per run, so a correct run fails with probability below 1e-6.
MC_TAIL = 1e-9


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_table(path: Path) -> list:
    """Rows of a CSV written by the CLI, skipping the manifest comment lines."""
    with path.open(encoding="utf-8") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    return [
        {key: _number(value) for key, value in row.items()}
        for row in csv.DictReader(lines)
    ]


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


# -- densities, from their definitions --------------------------------------------


def density_cdf(model: dict, x: np.ndarray) -> np.ndarray:
    kind = model["kind"]
    if kind == "uniform":
        return x
    if kind == "one_plus_sine":
        w = 2.0 * math.pi * model["frequency"]
        return x + (1.0 - np.cos(w * x)) / w
    if kind == "pu_family":
        u = model["u"]
        return np.where(x <= 0.5, (1.0 - u) * x, 0.5 * (1.0 - u) + (1.0 + u) * (x - 0.5))
    raise CheckFailed(f"no reference distribution function for {kind!r}")


def cell_masses(model: dict, edges) -> np.ndarray:
    masses = np.diff(density_cdf(model, np.asarray(edges, dtype=float)))
    return masses / masses.sum()


def ks_to_uniform(model: dict) -> float:
    """Closed-form Kolmogorov-Smirnov distance to the uniform density."""
    kind = model["kind"]
    if kind == "one_plus_sine":
        return 1.0 / (math.pi * model["frequency"])
    if kind == "pu_family":
        return model["u"] / 2.0
    if kind == "uniform":
        return 0.0
    raise CheckFailed(f"no reference KS distance for {kind!r}")


def hull_tv_highs(hypothesis: list, alternative: list) -> float:
    """min TV over mixtures of two families, by HiGHS on the primal LP."""
    P, Q = np.stack(hypothesis), np.stack(alternative)
    na, nb, k = P.shape[0], Q.shape[0], P.shape[1]
    cost = np.concatenate([np.zeros(na + nb), np.full(k, 0.5)])
    diff = np.hstack([P.T, -Q.T])
    eye = np.eye(k)
    A_ub = np.vstack([np.hstack([diff, -eye]), np.hstack([-diff, -eye])])
    A_eq = np.zeros((2, na + nb + k))
    A_eq[0, :na] = 1.0
    A_eq[1, na : na + nb] = 1.0
    result = linprog(
        cost, A_ub=A_ub, b_ub=np.zeros(2 * k), A_eq=A_eq, b_eq=np.ones(2),
        bounds=(0, None), method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    require(result.status == 0, f"HiGHS failed: {result.message}")
    return float(result.fun)


def grid_hull(scenario: dict, grid_size: int, alternatives=None) -> float:
    edges = np.arange(grid_size + 1) / grid_size
    h = [cell_masses(m, edges) for m in scenario["hypothesis"]]
    a = [cell_masses(m, edges) for m in (alternatives or scenario["alternative"])]
    return hull_tv_highs(h, a)


def cesaro_tv(m: int) -> float:
    """TV between the order-m running average of one_plus_sine and uniform.

    The difference of densities d(x) = mean_j sin(2 pi j x) has the closed-form
    antiderivative G, so TV = 1/2 sum |G(b) - G(a)| over the intervals between
    the sign changes of d, located on a dense grid and refined by Brent's method.
    """
    j = np.arange(1, m + 1)

    def d(x):
        return float(np.sin(2.0 * math.pi * j * x).mean())

    def G(x):
        return float((-np.cos(2.0 * math.pi * j * x) / (2.0 * math.pi * j)).mean())

    x = np.linspace(0.0, 1.0, (1 << 16) + 1)
    sign = np.sign(np.sin(2.0 * math.pi * np.outer(x, j)).mean(axis=1))
    breaks = [0.0, 1.0]
    for i in np.flatnonzero(sign[:-1] * sign[1:] <= 0):
        a, b = x[i], x[i + 1]
        # A zero at a grid point: that point is the break.
        breaks.append(brentq(d, a, b, xtol=1e-15) if d(a) * d(b) < 0 else (a if d(a) == 0 else b))
    breaks = np.unique(breaks)
    return 0.5 * sum(abs(G(b) - G(a)) for a, b in zip(breaks[:-1], breaks[1:]))


def binomial_range(p: float, trials: int) -> tuple:
    """Counts outside this range have probability below MC_TAIL on each side."""
    return binom.ppf(MC_TAIL, trials, p), binom.isf(MC_TAIL, trials, p)


def mc_agrees(estimate: float, p: float, trials: int) -> bool:
    lo, hi = binomial_range(p, trials)
    return lo <= round(estimate * trials) <= hi


# -- per-output checks ----------------------------------------------------------


def check_bound_stdout(text: str, scenario: dict) -> None:
    fields = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
    hull = float(fields["hull_variation"])
    reference = grid_hull(scenario, int(scenario["model"]["grid_size"]))
    require(close(hull, reference, 1e-9), f"hull_variation {hull!r} vs HiGHS {reference!r}")
    kraft = float(fields["kraft_bound"])
    require(close(kraft, 1.0 - hull, 1e-15), f"kraft_bound {kraft!r} != 1 - {hull!r}")


def check_ks(path: Path, scenario: dict) -> None:
    require(scenario["hypothesis"] == [{"kind": "uniform"}], "KS check needs a uniform hypothesis")
    rows = read_table(path)
    require(len(rows) == len(scenario["alternative"]), "one KS row per alternative")
    for row in rows:
        model = scenario["alternative"][int(row["index"]) - 1]
        expected = ks_to_uniform(model)
        require(
            close(row["ks_distance"], expected, 1e-9),
            f"KS of {row['model']} is {row['ks_distance']!r}, expected {expected!r}",
        )


def check_hull_table(path: Path, scenario: dict) -> None:
    (row,) = read_table(path)
    reference = grid_hull(scenario, int(row["grid_size"]))
    require(
        close(row["hull_value"], reference, 1e-9),
        f"hull_value {row['hull_value']!r} vs HiGHS {reference!r}",
    )
    require(close(row["kraft_bound"], 1.0 - row["hull_value"], 1e-15), "kraft_bound != 1 - hull")


def check_cesaro(path: Path, scenario: dict) -> None:
    rows = read_table(path)
    grid_size = int(scenario["model"]["grid_size"])
    m_max = int(scenario["model"]["cesaro_scan"])
    require([int(r["m"]) for r in rows] == list(range(1, m_max + 1)), "m runs 1..cesaro_scan")
    require(close(rows[0]["tv_mixture"], 1.0 / math.pi, 1e-9), "tv_mixture(1) != 1/pi")
    previous = math.inf
    for row in rows:
        m = int(row["m"])
        hull, tv = row["hull_value"], row["tv_mixture"]
        prefix = [{"kind": "one_plus_sine", "frequency": i} for i in range(1, m + 1)]
        reference = grid_hull(scenario, grid_size, prefix)
        require(close(hull, reference, 1e-9), f"m={m}: hull {hull!r} vs HiGHS {reference!r}")
        tv_reference = cesaro_tv(m)
        require(close(tv, tv_reference, 1e-7), f"m={m}: tv {tv!r} vs quadrature {tv_reference!r}")
        require(hull <= previous + 1e-12, f"m={m}: hull_value increases with m")
        require(hull <= tv + 1e-12, f"m={m}: hull_value {hull!r} above tv_mixture {tv!r}")
        require(close(row["kraft_hull"], 1.0 - hull, 1e-15), f"m={m}: kraft_hull != 1 - hull")
        require(close(row["kraft_mixture"], 1.0 - tv, 1e-15), f"m={m}: kraft_mixture != 1 - tv")
        previous = hull


def check_mc_vs_exact(path: Path, scenario: dict) -> None:
    """Monte Carlo errors from density sampling against exact enumeration."""
    reps = int(scenario["sim"]["replications"])
    edges = [scenario["partition"]["cells"][0][0]] + [hi for _, hi in scenario["partition"]["cells"]]
    hyp = cell_masses(scenario["hypothesis"][0], edges)
    rows = read_table(path)
    require(
        len(rows) == len(scenario["alternative"]) * len(scenario["sim"]["n_grid"]),
        "one row per alternative and n",
    )
    for row in rows:
        where = f"{row['model']} n={int(row['n'])}"
        alt = cell_masses(scenario["alternative"][int(row["index"]) - 1], edges)
        separated = float(np.abs(alt - hyp).max()) > 1e-12
        require(separated == (not math.isnan(row["alpha_mc"])), f"{where}: margin disagrees")
        if not separated:
            continue
        for kind in ("alpha", "beta"):
            exact, mc = row[f"{kind}_exact"], row[f"{kind}_mc"]
            require(
                mc_agrees(mc, exact, reps),
                f"{where}: {kind} Monte Carlo {mc!r} vs exact {exact!r} ({reps} reps)",
            )


def check_signal(path: Path, scenario: dict) -> None:
    reps = int(scenario["sim"]["replications"])
    s0 = np.array(scenario["hypothesis"][0]["signal"])
    s1 = np.array(scenario["alternative"][0]["signal"])
    distance = float(np.linalg.norm(s1 - s0))
    rows = read_table(path)
    require([r["epsilon"] for r in rows] == scenario["sim"]["epsilon_list"], "one row per noise level")
    for row in rows:
        p = 0.5 * math.erfc(distance / (2.0 * row["epsilon"] * math.sqrt(2.0)))
        where = f"epsilon={row['epsilon']}"
        require(close(row["total_analytic"], 2.0 * p, 1e-12), f"{where}: analytic total")
        for kind in ("alpha", "beta"):
            require(mc_agrees(row[f"{kind}_mc"], p, reps), f"{where}: {kind}_mc {row[f'{kind}_mc']!r} vs {p!r}")
        require(close(row["total_mc"], row["alpha_mc"] + row["beta_mc"], 1e-15), f"{where}: total_mc")


def check_poisson(path: Path, scenario: dict) -> None:
    rows = read_table(path)
    require([int(r["n"]) for r in rows] == scenario["sim"]["n_grid"], "one row per n")
    first, last = (r["alpha_mc"] + r["beta_mc"] for r in (rows[0], rows[-1]))
    require(last < first, f"total error {last!r} at n={rows[-1]['n']} not below {first!r}")


def check_schedule(path: Path, scenario: dict) -> None:
    data = json.loads(path.read_text(encoding="utf-8"))
    blocks = data["blocks"]
    require([b["family_index"] for b in blocks] == list(range(1, len(scenario["alternative"]) + 1)),
            "family indices run 1..N in order")
    require(blocks[0]["start"] == 1 and blocks[-1]["end"] == data["n_max"], "blocks cover 1..n_max")
    for before, after in zip(blocks, blocks[1:]):
        require(after["start"] == before["end"] + 1, "blocks are contiguous")
    # n = 1 precedes every onset, so the first block starts uncertified.
    require(blocks[0]["bound_at_start"] == 1, "first block must start without a certificate")
    for block in blocks[1:]:
        expected = min(1.0, math.exp(-block["exponent"] * block["start"]))
        require(close(block["bound_at_start"], expected, 1e-15 + 1e-12 * expected),
                f"block {block['family_index']}: bound_at_start {block['bound_at_start']!r} vs {expected!r}")


def check_discernibility(path: Path, scenario: dict) -> None:
    reps = int(scenario["sim"]["replications"])
    rows = read_table(path)
    n_max = json.loads((path.parent / "schedule.json").read_text(encoding="utf-8"))["n_max"]
    curves = [c for c in rows[0] if c.startswith("err_after_k_")]
    require(len(curves) == 1 + len(scenario["alternative"]), "one curve per model")
    require(int(rows[-1]["k"]) == n_max, "k grid ends at n_max")
    for name in curves:
        values = [r[name] for r in rows]
        require(all(b <= a for a, b in zip(values, values[1:])), f"{name} increases in k")
        require(values[-1] == 0, f"{name} is not 0 at k = n_max")
        for row in rows:
            tail = row["certified_tail_clamped"]
            if tail <= 0.01:
                limit = binom.isf(MC_TAIL, reps, tail)
                require(round(row[name] * reps) <= limit,
                        f"{name} at k={int(row['k'])}: {row[name]!r} above tail {tail!r}")


OUTPUT_CHECKS = {
    "ks.csv": check_ks,
    "hull.csv": check_hull_table,
    "cesaro.csv": check_cesaro,
    "errors.csv": check_mc_vs_exact,
    "epsilon_sweep.csv": check_signal,
    "poisson_errors.csv": check_poisson,
    "schedule.json": check_schedule,
    "discernibility.csv": check_discernibility,
}


def check_command(command, out_dir: Path, stdout: str, scenario: dict) -> list:
    """Problems in the output of one successful command."""
    targets = [("stdout", check_bound_stdout, stdout)] if command.command == "bound" else []
    targets += [(name, OUTPUT_CHECKS[name], out_dir / command.label / name) for name in command.outputs]
    problems = []
    for name, check, target in targets:
        try:
            check(target, scenario)
        except (CheckFailed, OSError, KeyError, ValueError) as exc:
            problems.append(f"{command.label}/{name}: {type(exc).__name__}: {exc}")
    return problems


_WORKERS_LINE = re.compile(r'^(# workers=\d+|\s*"workers": \d+,?)$', re.MULTILINE)


def same_bytes_but_workers(a: Path, b: Path) -> list:
    """Files that differ between two output trees, apart from the workers entry."""
    names = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    other = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if names != other:
        return [f"file sets differ: {names} vs {other}"]
    return [
        f"{name} differs apart from its workers entry"
        for name in names
        if _WORKERS_LINE.sub("", (a / name).read_text(encoding="utf-8"))
        != _WORKERS_LINE.sub("", (b / name).read_text(encoding="utf-8"))
    ]
