"""Exact discernibility curves of a schedule on a finite model, by dynamic programming.

A sample path grown one draw at a time makes its count vector ``C_n`` a Markov
chain. Let ``u_n(c)`` be the probability that the schedule errs at some
``n' in (n, n_max]`` given ``C_n = c``. Then ``u_{n_max} = 0`` and

    u_{n-1}(c) = sum_j p_j * (err_n(c + e_j) ? 1 : u_n(c + e_j)),

where ``err_n`` applies the schedule's own ``rejects`` at ``n``: a rejection
errs in the hypothesis role, an acceptance in the alternative role. The curve
at ``k`` is ``E[u_k(C_k)]`` under the multinomial law of ``C_k``, which a
forward pass of the same chain gives. A state is indexed by its first
``m - 1`` counts on an ``(n + 1)^(m - 1)`` array, so the cost grows as
``n_max^m``: keep 3 atoms to a few hundred draws.
"""
import numpy as np


def _shifted(array, size, axis=None):
    """``array[:size, ..., :size]``, with ``axis`` (if any) read one index up."""
    index = [slice(0, size)] * array.ndim
    if axis is not None:
        index[axis] = slice(1, size + 1)
    return array[tuple(index)]


def _errs(schedule, n, dims, role):
    """``err_n`` on the ``(n + 1)^dims`` state grid; False off the simplex."""
    grid = np.indices((n + 1,) * dims).reshape(dims, -1).T
    last = n - grid.sum(axis=1)
    valid = last >= 0
    rejects = schedule.test_at(n).rejects(np.column_stack([grid[valid], last[valid]])) == 1.0
    out = np.zeros(grid.shape[0], dtype=bool)
    out[valid] = rejects if role == "hypothesis" else ~rejects
    return out.reshape((n + 1,) * dims)


def exact_curve(schedule, weights, n_max, k_grid, role="hypothesis"):
    """Probability of an error at some ``n`` in ``(k, n_max]``, for each ``k`` of ``k_grid``."""
    p = np.asarray(weights, dtype=float)
    dims = p.size - 1
    wanted = {int(k) for k in k_grid}
    law, dist = {}, np.ones((1,) * dims)
    for k in range(n_max + 1):
        if k in wanted:
            law[k] = dist
        grown = np.zeros((k + 2,) * dims)
        _shifted(grown, k + 1)[...] += p[-1] * dist
        for j in range(dims):
            _shifted(grown, k + 1, j)[...] += p[j] * dist
        dist = grown
    curve, u = {}, np.zeros((n_max + 1,) * dims)
    for n in range(n_max, 0, -1):
        if n in wanted:
            curve[n] = float((law[n] * u).sum())
        v = np.where(_errs(schedule, n, dims, role), 1.0, u)
        u = p[-1] * _shifted(v, n)
        for j in range(dims):
            u = u + p[j] * _shifted(v, n, j)
    curve[0] = float(u.sum())  # C_0 is the zero vector
    return np.array([curve[int(k)] for k in k_grid])
