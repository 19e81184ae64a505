import numpy as np
import pytest
from numpy.testing import assert_allclose

from consistency_lab.errors import NumericError, ValidationError
from consistency_lab import simplex
from consistency_lab.simplex import _refine, solve_lp, solve_lp_prefixes


def test_simple_maximization_as_min():
    # max x+y s.t. x+2y<=4, 3x+y<=6  ->  optimum at (1.6, 1.2)
    res = solve_lp([-1, -1], A_ub=[[1, 2], [3, 1]], b_ub=[4, 6])
    assert_allclose(res.x, [1.6, 1.2], atol=1e-9)
    assert_allclose(res.objective, -2.8, atol=1e-9)


def test_duals_of_the_hand_solved_lp():
    # max x+y s.t. x+2y<=4, 3x+y<=6: both rows bind, with multipliers 0.4 and 0.2
    # on the maximum, so -0.4 and -0.2 on the minimum of -(x+y).
    res = solve_lp([-1, -1], A_ub=[[1, 2], [3, 1]], b_ub=[4, 6])
    assert_allclose(res.duals, [-0.4, -0.2], atol=1e-12)
    assert_allclose(res.duals @ np.array([4, 6]), res.objective, atol=1e-12)


def test_unbounded_detected():
    with pytest.raises(NumericError, match="unbounded"):
        solve_lp([-1], A_ub=[[-1]], b_ub=[0])


def test_shape_validation():
    with pytest.raises(ValidationError):
        solve_lp([1, 2], A_ub=[[1]], b_ub=[1])
    with pytest.raises(ValidationError, match="at least one constraint"):
        solve_lp([1], A_ub=np.zeros((0, 1)), b_ub=np.zeros(0))


def test_negative_rhs_rejected():
    # the slack basis would be infeasible, and there is no phase 1 to repair it
    with pytest.raises(ValidationError, match="b_ub >= 0"):
        solve_lp([1], A_ub=[[-1]], b_ub=[-2])


def test_random_instances_against_vertex_enumeration():
    # 2-variable boxed LPs solved by brute force over constraint intersections
    rng = np.random.default_rng(42)
    for _ in range(60):
        m = int(rng.integers(3, 7))
        A = rng.normal(size=(m, 2))
        b = rng.random(m)  # b >= 0, so x = 0 is feasible
        A = np.vstack([A, np.eye(2)])  # box keeps the optimum finite
        b = np.concatenate([b, [10.0, 10.0]])
        c = rng.normal(size=2)

        rows = list(A) + [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        rhs = list(b) + [0.0, 0.0]
        candidates = [np.zeros(2)]
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                M = np.array([rows[i], rows[j]])
                if abs(np.linalg.det(M)) > 1e-9:
                    candidates.append(
                        np.linalg.solve(M, np.array([rhs[i], rhs[j]]))
                    )
        feasible = [
            x
            for x in candidates
            if np.all(x >= -1e-9) and np.all(A @ x <= b + 1e-9)
        ]
        assert feasible
        best = min(c @ x for x in feasible)
        res = solve_lp(c, A_ub=A, b_ub=b)
        assert abs(res.objective - best) <= 1e-7
        assert np.all(res.x >= -1e-9)
        assert np.all(A @ res.x <= b + 1e-7)


@pytest.mark.parametrize("upper", [[1.0, -1.0], [1.0, np.nan], [1.0], [1.0, 1.0, 1.0]])
def test_bad_upper_bounds_rejected(upper):
    with pytest.raises(ValidationError, match="upper"):
        solve_lp([-1, -1], A_ub=[[1, 1]], b_ub=[1], upper=upper)


def test_random_instances_with_the_box_as_bounds():
    # the instances above, with the box given as bounds instead of two rows
    rng = np.random.default_rng(42)
    for _ in range(60):
        m = int(rng.integers(3, 7))
        A = rng.normal(size=(m, 2))
        b = rng.random(m)
        c = rng.normal(size=2)
        rows = solve_lp(c, A_ub=np.vstack([A, np.eye(2)]), b_ub=np.concatenate([b, [10.0, 10.0]]))
        bounded = solve_lp(c, A_ub=A, b_ub=b, upper=[10.0, 10.0])
        assert abs(bounded.objective - rows.objective) <= 1e-9
        assert np.all(bounded.x >= 0.0) and np.all(bounded.x <= 10.0)
        assert np.all(A @ bounded.x <= b + 1e-9)
        # the row multipliers certify the optimum: any duals <= 0 give the
        # lower bound b.y + sum_j u_j min(0, c_j - A_j.y), and these meet it
        y = bounded.duals
        assert np.all(y <= 1e-12)
        assert abs(b @ y + 10.0 * np.minimum(0.0, c - A.T @ y).sum() - bounded.objective) <= 1e-9


def test_entering_variable_flips_to_its_bound():
    # min -x1 - x2 s.t. x1 + x2 <= 1.5, x <= 1: x1 meets its bound before the
    # row binds and flips without a pivot; x2 then enters the basis at 0.5.
    res = solve_lp([-1, -1], A_ub=[[1, 1]], b_ub=[1.5], upper=[1.0, 1.0])
    assert_allclose(res.x, [1.0, 0.5], atol=1e-15)
    assert res.objective == pytest.approx(-1.5, abs=1e-15)
    assert_allclose(res.duals, [-1.0], atol=1e-15)
    assert res.iterations == 2


def test_basic_variable_leaves_at_its_bound():
    # min -3 x1 - 3 x2 s.t. 2 x1 + x2 <= 3, x <= (1, 2): x1 flips to 1, x2
    # enters at 1, then x1 comes back down from its bound into the basis and
    # lifts x2 until x2 leaves at its bound 2. The final basis holds x1 as
    # 1 - x1, a negated column, with the row multiplier -3/2.
    res = solve_lp([-3, -3], A_ub=[[2, 1]], b_ub=[3.0], upper=[1.0, 2.0])
    assert_allclose(res.x, [0.5, 2.0], atol=1e-15)
    assert res.objective == pytest.approx(-7.5, abs=1e-15)
    assert_allclose(res.duals, [-1.5], atol=1e-15)
    assert res.iterations == 3


def test_refinement_from_a_poor_inverse_raises():
    # the correction doubles the error at every step instead of shrinking it
    with pytest.raises(NumericError, match="refinement left residual"):
        _refine(np.eye(2), 3.0 * np.eye(2), np.array([1.0, 2.0]))


@pytest.mark.parametrize("name", ["c", "A_ub", "b_ub"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_inputs_rejected_by_name(name, bad):
    args = {"c": [-1.0, -1.0], "A_ub": [[1.0, 2.0], [3.0, 1.0]], "b_ub": [4.0, 6.0]}
    values = np.array(args[name], dtype=float)
    values.flat[-1] = bad
    args[name] = values
    with pytest.raises(ValidationError, match=f"^{name} must be finite"):
        solve_lp(**args)
    with pytest.raises(ValidationError, match=f"^{name} must be finite"):
        solve_lp_prefixes(**args, first=1)  # the bad entry sits in an appended row


def _random_boxed(rng, m, n):
    """``min c.x`` over ``A x <= b``, ``0 <= x <= u``, with ``b >= 0`` and some
    bounds infinite."""
    A = rng.normal(size=(m, n))
    b = rng.random(m)
    u = np.where(rng.random(n) < 0.7, rng.random(n) * 3.0, np.inf)
    A[:, u == np.inf] = np.abs(A[:, u == np.inf]) + 0.1  # keeps the optimum finite
    return rng.normal(size=n), A, b, u


def test_prefixes_match_cold_solves_of_every_prefix():
    rng = np.random.default_rng(7)
    for _ in range(60):
        m, n = int(rng.integers(2, 12)), int(rng.integers(2, 8))
        c, A, b, u = _random_boxed(rng, m, n)
        first = int(rng.integers(1, m + 1))
        warm = solve_lp_prefixes(c, A, b, u, first=first)
        assert len(warm) == m - first + 1
        for rows, result in enumerate(warm, start=first):
            cold = solve_lp(c, A[:rows], b[:rows], u)
            assert abs(result.objective - cold.objective) <= 1e-9
            assert np.all(A[:rows] @ result.x <= b[:rows] + 1e-9)
            assert np.all(result.x >= 0.0) and np.all(result.x <= u)
            assert result.duals.shape == (rows,) and np.all(result.duals <= 1e-12)


def test_prefixes_under_blands_rule_throughout(monkeypatch):
    # a stall limit below zero puts both loops on Bland's rule from the first pivot
    monkeypatch.setattr(simplex, "_STALL_LIMIT", -1)
    rng = np.random.default_rng(8)
    for _ in range(30):
        c, A, b, u = _random_boxed(rng, 8, 5)
        for rows, result in enumerate(solve_lp_prefixes(c, A, b, u, first=1), start=1):
            assert abs(result.objective - solve_lp(c, A[:rows], b[:rows], u).objective) <= 1e-9


def test_added_row_restarts_by_dual_pivots():
    # max x + y on x + 2y <= 4 has its optimum (4, 0) with x unbounded above
    # the second row; adding 3x + y <= 6 cuts it off, and one dual pivot
    # moves to (1.6, 1.2), the vertex of both rows.
    one, both = solve_lp_prefixes([-1, -1], A_ub=[[1, 2], [3, 1]], b_ub=[4, 6], first=1)
    assert_allclose(one.x, [4.0, 0.0], atol=1e-15)
    assert_allclose(both.x, [1.6, 1.2], atol=1e-15)
    assert_allclose(both.duals, [-0.4, -0.2], atol=1e-15)
    assert both.iterations == 1


def test_added_row_flips_a_breakpoint_before_entering():
    # max 0.1 x1 + 3 x2 over x <= 1: both sit at their bound under x1 + x2 <= 5.
    # x1 + 3 x2 <= 1.5 cuts (1, 1) off by 2.5. The cheaper ratio, x1, falling
    # to 0 leaves 1.5 of that, so x1 flips to its other bound and x2 enters at
    # 0.5: one flip and one pivot.
    one, both = solve_lp_prefixes(
        [-0.1, -3.0], A_ub=[[1, 1], [1, 3]], b_ub=[5, 1.5], upper=[1, 1], first=1
    )
    assert_allclose(one.x, [1.0, 1.0], atol=1e-15)
    assert_allclose(both.x, [0.0, 0.5], atol=1e-15)
    assert_allclose(both.duals, [0.0, -1.0], atol=1e-15)
    assert both.iterations == 2


def test_all_rows_at_once_is_solve_lp():
    rng = np.random.default_rng(9)
    c, A, b, u = _random_boxed(rng, 6, 4)
    (whole,) = solve_lp_prefixes(c, A, b, u, first=6)
    cold = solve_lp(c, A, b, u)
    assert whole.iterations == cold.iterations
    assert np.array_equal(whole.x, cold.x) and np.array_equal(whole.duals, cold.duals)


@pytest.mark.parametrize("first", [0, 3])
def test_first_prefix_must_be_a_row_count(first):
    with pytest.raises(ValidationError, match="first must be a row count from 1 to 2"):
        solve_lp_prefixes([-1, -1], A_ub=[[1, 2], [3, 1]], b_ub=[4, 6], first=first)


# Every LP the solver takes is feasible at x = 0, so each failure below is
# numeric, and its message names the tableau it happened on.


def test_dual_ratio_test_without_a_column_is_a_breakdown(monkeypatch):
    # no entry can reach twice its row's largest, so no column is eligible to
    # enter when 3x + y <= 6 cuts off (4, 0), the optimum of the first row
    monkeypatch.setattr(simplex, "_DUAL_PIVOT", 2.0)
    with pytest.raises(NumericError) as info:
        solve_lp_prefixes([-1, -1], A_ub=[[1, 2], [3, 1]], b_ub=[4, 6], first=1)
    assert str(info.value) == (
        "dual simplex broke down on row 1, 6.000e+00 outside its bounds, tableau 2x4: "
        "no column can enter, although x = 0 is feasible, so rounding broke the ratio test"
    )


def test_primal_iteration_cap_names_the_tableau(monkeypatch):
    monkeypatch.setattr(simplex, "_MAX_ITERATIONS", 0)
    with pytest.raises(NumericError, match="^simplex exceeded 0 iterations, tableau 2x4$"):
        solve_lp([-1, -1], A_ub=[[1, 2], [3, 1]], b_ub=[4, 6])


def test_dual_iteration_cap_names_the_tableau(monkeypatch):
    # the first prefix solves uncapped; the restart after it may not pivot
    run_simplex = simplex._run_simplex

    def then_cap(*args):
        iterations = run_simplex(*args)
        monkeypatch.setattr(simplex, "_MAX_ITERATIONS", 0)
        return iterations

    monkeypatch.setattr(simplex, "_run_simplex", then_cap)
    with pytest.raises(NumericError, match="^dual simplex exceeded 0 iterations, tableau 2x4$"):
        solve_lp_prefixes([-1, -1], A_ub=[[1, 2], [3, 1]], b_ub=[4, 6], first=1)
