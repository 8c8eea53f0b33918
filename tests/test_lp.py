import numpy as np
import pytest

from mixlearn.lp import LpInfeasible, LpUnbounded, solve_lp

from oracles import brute_force_lp


def test_simple_bounded_lp():
    # min -x - y st x + y <= 1
    sol = solve_lp([-1.0, -1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0])
    assert sol.value == pytest.approx(-1.0, abs=1e-10)


def test_equality_constraints():
    sol = solve_lp([1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
    assert sol.value == pytest.approx(1.0, abs=1e-10)
    assert sol.x[0] == pytest.approx(1.0, abs=1e-10)


def test_infeasible_detected():
    with pytest.raises(LpInfeasible):
        solve_lp([1.0], a_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0])


def test_unbounded_detected():
    with pytest.raises(LpUnbounded):
        solve_lp([-1.0], a_ub=[[-1.0]], b_ub=[0.0])


def test_redundant_equality_rows():
    # duplicated constraint must not break phase 1
    sol = solve_lp([1.0, 1.0], a_eq=[[1.0, 1.0], [1.0, 1.0]], b_eq=[1.0, 1.0])
    assert sol.value == pytest.approx(1.0, abs=1e-10)


def test_matches_brute_force_on_random_instances(rng):
    checked = 0
    for _ in range(120):
        n = int(rng.integers(2, 6))
        c = rng.standard_normal(n)
        a_ub = np.vstack([rng.standard_normal((int(rng.integers(1, 4)), n)), np.ones(n)])
        b_ub = np.concatenate([rng.standard_normal(a_ub.shape[0] - 1) + 1.0, [8.0]])
        if rng.random() < 0.5:
            x0 = rng.random(n)
            a_eq = rng.standard_normal((1, n))
            b_eq = a_eq @ x0
        else:
            a_eq = b_eq = None
        try:
            got = solve_lp(c, a_ub, b_ub, a_eq, b_eq)
        except LpInfeasible:
            with pytest.raises(LpInfeasible):
                brute_force_lp(c, a_ub, b_ub, a_eq, b_eq)
            continue
        want = brute_force_lp(c, a_ub, b_ub, a_eq, b_eq)
        assert got.value == pytest.approx(want.value, abs=1e-7)
        checked += 1
    assert checked >= 60
