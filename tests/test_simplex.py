import numpy as np
import pytest
from numpy.testing import assert_allclose

from consistency_lab.errors import NumericError, ValidationError
from consistency_lab.simplex import _refine, solve_lp


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


def test_refinement_from_a_poor_inverse_raises():
    # the correction doubles the error at every step instead of shrinking it
    with pytest.raises(NumericError, match="refinement left residual"):
        _refine(np.eye(2), 3.0 * np.eye(2), np.array([1.0, 2.0]))
