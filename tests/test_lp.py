import math

import numpy as np
import pytest

from mecoffload import energy
from mecoffload.harness import SweepSpec, run_sweep
from mecoffload.lp import (
    BudgetExceededError,
    LpProblem,
    LpStructureError,
    _pivot,
    constraint,
    enumerate_vertices,
    solve_lp,
)
from mecoffload.rng import SplitMix64
from lp_reference import reference_solve_lp
from support import random_lp_problem

INF = math.inf


def box_max_x():
    return LpProblem(objective=(-1.0,), constraints=(), bounds=((0.0, 1.0),))


def simplex_face():
    return LpProblem(
        objective=(-1.0, -1.0),
        constraints=(constraint([1.0, 1.0], "<=", 1.0),),
        bounds=((0.0, INF), (0.0, INF)),
    )


class TestSolve:
    def test_single_box(self):
        sol = solve_lp(box_max_x())
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(1.0, abs=1e-9)
        assert sol.objective_value == pytest.approx(-1.0, abs=1e-9)

    def test_simplex_face(self):
        sol = solve_lp(simplex_face())
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(-1.0, abs=1e-9)

    def test_infeasible_interval(self):
        p = LpProblem(
            objective=(1.0,),
            constraints=(constraint([1.0], ">=", 2.0), constraint([1.0], "<=", 1.0)),
            bounds=((-INF, INF),),
        )
        assert solve_lp(p).status == "infeasible"

    def test_unbounded_ray(self):
        p = LpProblem(objective=(-1.0,), constraints=(), bounds=((0.0, INF),))
        sol = solve_lp(p)
        assert sol.status == "unbounded"
        assert sol.objective_value == -INF

    def test_equality_row(self):
        p = LpProblem(
            objective=(1.0, 0.0),
            constraints=(constraint([1.0, 1.0], "=", 1.0),),
            bounds=((0.0, INF), (0.0, INF)),
        )
        sol = solve_lp(p)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(0.0, abs=1e-9)
        assert sol.x[1] == pytest.approx(1.0, abs=1e-9)

    def test_free_variable(self):
        p = LpProblem(
            objective=(1.0,),
            constraints=(constraint([1.0], ">=", -2.0),),
            bounds=((-INF, INF),),
        )
        sol = solve_lp(p)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(-2.0, abs=1e-9)

    def test_upper_bounded_only_variable(self):
        p = LpProblem(objective=(-1.0,), constraints=(), bounds=((-INF, 3.5),))
        sol = solve_lp(p)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(3.5, abs=1e-9)

    def test_mixed_scales(self):
        # bit-scale coefficient next to a seconds-scale one
        p = LpProblem(
            objective=(-1.0, 0.0),
            constraints=(
                constraint([9e-9, 1.0], "<=", 0.035),
                constraint([1.0, -1.5e6], "<=", 0.0),
            ),
            bounds=((0.0, INF), (0.0, INF)),
        )
        sol = solve_lp(p)
        assert sol.status == "optimal"
        # l = 1.5e6 te and 9e-9 l + te = 0.035 -> te = 0.035/1.0135
        te = 0.035 / (1.0 + 9e-9 * 1.5e6)
        assert sol.x[1] == pytest.approx(te, rel=1e-9)
        assert sol.x[0] == pytest.approx(1.5e6 * te, rel=1e-9)


class TestStructure:
    def test_dimension_mismatch(self):
        with pytest.raises(LpStructureError):
            LpProblem(objective=(1.0,), constraints=(constraint([1.0, 2.0], "<=", 1.0),),
                      bounds=((0.0, 1.0),))

    def test_bad_relation(self):
        with pytest.raises(LpStructureError):
            LpProblem(objective=(1.0,), constraints=(constraint([1.0], "<", 1.0),),
                      bounds=((0.0, 1.0),))

    def test_crossed_bounds(self):
        with pytest.raises(LpStructureError):
            LpProblem(objective=(1.0,), constraints=(), bounds=((2.0, 1.0),))

    def test_bound_count_mismatch(self):
        with pytest.raises(LpStructureError):
            LpProblem(objective=(1.0, 1.0), constraints=(), bounds=((0.0, 1.0),))


class TestOracle:
    def test_matches_on_stock_examples(self):
        for problem in (box_max_x(), simplex_face()):
            a = solve_lp(problem)
            b = enumerate_vertices(problem)
            assert a.status == b.status == "optimal"
            assert a.objective_value == pytest.approx(b.objective_value, abs=1e-8)

    def test_infeasible_polytope(self):
        p = LpProblem(
            objective=(1.0,),
            constraints=(constraint([1.0], ">=", 2.0),),
            bounds=((0.0, 1.0),),
        )
        assert enumerate_vertices(p).status == "infeasible"

    def test_ray_detection(self):
        p = LpProblem(objective=(-1.0,), constraints=(), bounds=((0.0, INF),))
        assert enumerate_vertices(p).status == "unbounded"

    def test_refuses_large_problems(self):
        n = 13
        p = LpProblem(
            objective=tuple([1.0] * n),
            constraints=(),
            bounds=tuple((0.0, 1.0) for _ in range(n)),
        )
        with pytest.raises(BudgetExceededError):
            enumerate_vertices(p)


class TestAgainstEnumeration:
    def test_random_problems_agree(self):
        rng = SplitMix64(2718)
        statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
        for _ in range(250):
            problem = random_lp_problem(rng)
            fast = solve_lp(problem)
            slow = enumerate_vertices(problem)
            assert fast.status == slow.status, problem
            statuses[fast.status] += 1
            if fast.status == "optimal":
                assert fast.objective_value == pytest.approx(
                    slow.objective_value, abs=1e-8, rel=1e-8
                ), problem
        # the generator must actually exercise all three outcomes
        assert min(statuses.values()) > 0, statuses

    def test_feasibility_residuals(self):
        rng = SplitMix64(31415)
        for _ in range(100):
            problem = random_lp_problem(rng)
            sol = solve_lp(problem)
            if sol.status != "optimal":
                continue
            x = np.asarray(sol.x)
            for con in problem.constraints:
                v = float(np.asarray(con.coeffs) @ x)
                tol = 1e-9 * (1.0 + abs(con.rhs))
                if con.relation == "<=":
                    assert v <= con.rhs + tol
                elif con.relation == ">=":
                    assert v >= con.rhs - tol
                else:
                    assert abs(v - con.rhs) <= tol
            for val, (lo, hi) in zip(sol.x, problem.bounds):
                assert val >= lo - 1e-9 * (1.0 + abs(lo))
                assert val <= hi + 1e-9 * (1.0 + abs(hi))

    def test_deterministic_resolve(self):
        rng = SplitMix64(555)
        for _ in range(25):
            problem = random_lp_problem(rng)
            a = solve_lp(problem)
            b = solve_lp(problem)
            assert a.status == b.status
            assert np.asarray(a.x).tobytes() == np.asarray(b.x).tobytes()


class TestSelectionRelaxation:
    def test_box_simplex_optimum_is_top_m_indicator(self):
        # max s.x over {0 <= x <= 1, sum x = m} has a totally unimodular
        # constraint matrix, so with distinct scores the LP optimum is the
        # 0/1 indicator of the m largest scores.  The rate layer's LP
        # relaxation benchmark is the exact top-m solve because of this.
        rng = SplitMix64(1967)
        for K in (1, 2, 3, 5, 8, 13, 21):
            for _ in range(4):
                scores = np.array([rng.uniform(-1.0, 1.0) for _ in range(K)])
                assert len(set(scores.tolist())) == K
                order = np.argsort(-scores)
                for m in range(1, K + 1):
                    sol = solve_lp(
                        LpProblem(
                            objective=tuple(-scores),
                            constraints=(constraint([1.0] * K, "=", float(m)),),
                            bounds=((0.0, 1.0),) * K,
                        )
                    )
                    assert sol.status == "optimal"
                    expected = np.zeros(K)
                    expected[order[:m]] = 1.0
                    np.testing.assert_allclose(sol.x, expected, rtol=0.0, atol=1e-9)


def mixed_bound_problems(seed, count):
    """Random LPs whose variables are free, upper-bounded only, or boxed, so
    the split and mirrored columns of the standard form are exercised."""
    rng = SplitMix64(seed)
    problems = []
    for _ in range(count):
        base = random_lp_problem(rng, n_vars=5, n_rows=5)
        bounds = []
        for _, hi in base.bounds:
            u = rng.uniform()
            if u < 0.25:
                bounds.append((-INF, INF))
            elif u < 0.5:
                bounds.append((-INF, 3.0))
            else:
                bounds.append((-2.0, hi))
        problems.append(LpProblem(base.objective, base.constraints, tuple(bounds)))
    return problems


class TestRowLoopEquivalence:
    """The vectorised simplex makes the same pivots with the same floating
    point operations as the row-at-a-time reference, so `repr` of the
    solution (signed zeros included) must be equal."""

    @staticmethod
    def assert_same(problems):
        for problem in problems:
            assert repr(solve_lp(problem)) == repr(reference_solve_lp(problem)), problem

    def test_criterion_9_problems(self):
        rng = SplitMix64(0x1B)
        self.assert_same([random_lp_problem(rng) for _ in range(1000)])

    def test_enumeration_test_problems(self):
        for seed, count in ((2718, 250), (31415, 100), (555, 25)):
            rng = SplitMix64(seed)
            self.assert_same([random_lp_problem(rng) for _ in range(count)])

    def test_free_and_upper_bounded_variables(self):
        problems = mixed_bound_problems(99, 300)
        statuses = {solve_lp(p).status for p in problems}
        assert statuses == {"optimal", "infeasible", "unbounded"}
        self.assert_same(problems)

    def test_stock_energy_sweep_problems(self, monkeypatch):
        # every LP the energy layer builds in certified stock energy-vs-T and
        # energy-vs-d sweeps, 10 realizations per grid point
        problems = []
        build = energy._schedule_lp

        def recording(*args):
            problems.append(build(*args))
            return problems[-1]

        monkeypatch.setattr(energy, "_schedule_lp", recording)
        for experiment in ("energy-vs-T", "energy-vs-d"):
            run_sweep(SweepSpec(experiment=experiment, realizations=10, base_seed=7,
                                certify=True))
        assert len(problems) > 300
        self.assert_same(problems)

    def test_overflowing_ratios_and_infinite_coefficients(self):
        cap = constraint([1.0, 1e-5], "<=", 1e308)  # its x2 ratio overflows to inf
        nonneg = ((0.0, INF), (0.0, INF))
        problems = [
            LpProblem((0.0, -1.0), (cap,), nonneg),
            LpProblem((0.0, -1.0), (cap, constraint([0.0, 1.0], "<=", 2.0)), nonneg),
            LpProblem((-1.0, -1.0), (constraint([INF, 1.0], "<=", 1.0),
                                     constraint([1.0, 1.0], "<=", 3.0)), nonneg),
        ]
        with np.errstate(over="ignore", invalid="ignore"):  # as both solvers meet them
            assert solve_lp(problems[0]).status == "unbounded"
            self.assert_same(problems)

    def test_pivot_leaves_zero_factor_rows_untouched(self):
        tableau = np.array([[2.0, 4.0, 6.0], [-0.0, 1.0, -0.0], [3.0, 1.0, 1.0]])
        _pivot(tableau, 0, 0)
        assert math.copysign(1.0, tableau[1, 0]) == -1.0
        assert math.copysign(1.0, tableau[1, 2]) == -1.0
        np.testing.assert_array_equal(tableau[2], [0.0, -5.0, -8.0])
