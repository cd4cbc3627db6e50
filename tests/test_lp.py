import dataclasses
import math
import time

import numpy as np
import pytest

from mecoffload import energy, lp
from mecoffload.lp import (
    BudgetExceededError,
    LpProblem,
    LpStructureError,
    shared_solutions,
    solve_lp,
    solve_lps,
)
from mecoffload.rng import SplitMix64
from lp_reference import enumerate_vertices, reference_solve_lp
from support import count_stacked, random_lp_problem, stock_energy_lps, stock_instance

INF = math.inf


def box_max_x():
    return LpProblem(objective=(-1.0,), coeffs=(), relations=(), rhs=(), bounds=((0.0, 1.0),))


def simplex_face():
    return LpProblem(
        objective=(-1.0, -1.0),
        coeffs=((1.0, 1.0),),
        relations=("<=",),
        rhs=(1.0,),
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
        p = LpProblem((1.0,), ((1.0,), (1.0,)), (">=", "<="), (2.0, 1.0), ((-INF, INF),))
        assert solve_lp(p).status == "infeasible"

    def test_unbounded_ray(self):
        p = LpProblem((-1.0,), (), (), (), ((0.0, INF),))
        sol = solve_lp(p)
        assert sol.status == "unbounded"
        assert sol.objective_value == -INF

    def test_equality_row(self):
        p = LpProblem((1.0, 0.0), ((1.0, 1.0),), ("=",), (1.0,), ((0.0, INF), (0.0, INF)))
        sol = solve_lp(p)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(0.0, abs=1e-9)
        assert sol.x[1] == pytest.approx(1.0, abs=1e-9)

    def test_free_variable(self):
        p = LpProblem((1.0,), ((1.0,),), (">=",), (-2.0,), ((-INF, INF),))
        sol = solve_lp(p)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(-2.0, abs=1e-9)

    def test_upper_bounded_only_variable(self):
        p = LpProblem((-1.0,), (), (), (), ((-INF, 3.5),))
        sol = solve_lp(p)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(3.5, abs=1e-9)

    def test_mixed_scales(self):
        # bit-scale coefficient next to a seconds-scale one
        p = LpProblem(
            objective=(-1.0, 0.0),
            coeffs=((9e-9, 1.0), (1.0, -1.5e6)),
            relations=("<=", "<="),
            rhs=(0.035, 0.0),
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
            LpProblem((1.0,), ((1.0, 2.0),), ("<=",), (1.0,), ((0.0, 1.0),))

    def test_rhs_count_mismatch(self):
        with pytest.raises(LpStructureError):
            LpProblem((1.0,), ((1.0,),), ("<=",), (1.0, 2.0), ((0.0, 1.0),))

    def test_bad_relation(self):
        with pytest.raises(LpStructureError):
            LpProblem((1.0,), ((1.0,),), ("<",), (1.0,), ((0.0, 1.0),))

    def test_infinite_rhs(self):
        with pytest.raises(LpStructureError, match="rhs must be finite"):
            LpProblem((1.0,), ((1.0,),), ("<=",), (INF,), ((0.0, 1.0),))

    def test_crossed_bounds(self):
        with pytest.raises(LpStructureError):
            LpProblem((1.0,), (), (), (), ((2.0, 1.0),))

    def test_bound_count_mismatch(self):
        with pytest.raises(LpStructureError):
            LpProblem((1.0, 1.0), (), (), (), ((0.0, 1.0),))

    # The simplex would answer each of these wrongly rather than fail: it
    # drops a nan lower bound (x = 1), finds a nan upper bound unbounded,
    # returns an optimum of value nan, and lets x past a nan coefficient in
    # x <= 1 up to its bound 2.
    @pytest.mark.parametrize("objective, coeffs, bounds", [
        pytest.param((-1.0,), (), ((math.nan, 1.0),), id="lower-bound"),
        pytest.param((-1.0,), (), ((0.0, math.nan),), id="upper-bound"),
        pytest.param((math.nan,), (), ((0.0, 1.0),), id="objective"),
        pytest.param((-1.0,), ((math.nan,),), ((0.0, 2.0),), id="coefficient"),
    ])
    def test_nan_is_refused(self, objective, coeffs, bounds):
        relations, rhs = ("<=",) * len(coeffs), (1.0,) * len(coeffs)
        with pytest.raises(LpStructureError, match="nan"):
            LpProblem(objective, coeffs, relations, rhs, bounds)


class TestRecord:
    """An `LpProblem` holds read-only float64 arrays: copies of what it was
    given, or the given arrays themselves where they are read-only and own
    their data, as `energy._subset_lp` builds them."""

    def test_read_only_owned_arrays_are_kept_uncopied(self):
        arrays = [np.array([-1.0, -1.0]), np.array([[1.0, 1.0]]), np.array([1.0]),
                  np.array([[0.0, INF], [0.0, INF]])]
        for array in arrays:
            array.flags.writeable = False
        objective, coeffs, rhs, bounds = arrays
        problem = LpProblem(objective, coeffs, ("<=",), rhs, bounds)
        assert all(getattr(problem, name) is array for name, array in
                   zip(("objective", "coeffs", "rhs", "bounds"), arrays))
        # a read-only view of a writable array is copied: its base can change
        base = np.array([-1.0, -1.0])
        view = base[:]
        view.flags.writeable = False
        kept = LpProblem(view, coeffs, ("<=",), rhs, bounds)
        base[...] = 7.0
        assert lp._key(kept) == lp._key(simplex_face())
        nan = np.array([math.nan, -1.0])
        nan.flags.writeable = False
        with pytest.raises(LpStructureError, match="nan"):
            LpProblem(nan, coeffs, ("<=",), rhs, bounds)

    def test_caller_arrays_stay_theirs(self):
        objective, coeffs = np.array([-1.0, -1.0]), np.array([[1.0, 1.0]])
        rhs, bounds = np.array([1.0]), np.array([[0.0, INF], [0.0, INF]])
        problem = LpProblem(objective, coeffs, ["<="], rhs, bounds)
        key = lp._key(problem)
        for array in (objective, coeffs, rhs, bounds):
            array[...] = 7.0
        assert lp._key(problem) == key == lp._key(simplex_face())
        assert problem.relations == ("<=",)
        assert repr(solve_lp(problem)) == repr(solve_lp(simplex_face()))

    def test_fields_cannot_be_written(self):
        problem = simplex_face()
        for name in ("objective", "coeffs", "rhs", "bounds"):
            array = getattr(problem, name)
            assert array.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(problem, name, array)
        with pytest.raises(dataclasses.FrozenInstanceError):
            problem.relations = (">=",)

    def test_integer_input_is_stored_as_float(self):
        problem = LpProblem([-1, -1], [[1, 1]], ["<="], [1], [[0, 1], [0, 1]])
        assert problem.coeffs.dtype == problem.bounds.dtype == np.float64
        assert problem.coeffs.shape == (1, 2) and problem.bounds.shape == (2, 2)


class TestOracle:
    def test_matches_on_stock_examples(self):
        for problem in (box_max_x(), simplex_face()):
            a = solve_lp(problem)
            b = enumerate_vertices(problem)
            assert a.status == b.status == "optimal"
            assert a.objective_value == pytest.approx(b.objective_value, abs=1e-8)

    def test_infeasible_polytope(self):
        p = LpProblem((1.0,), ((1.0,),), (">=",), (2.0,), ((0.0, 1.0),))
        assert enumerate_vertices(p).status == "infeasible"

    def test_ray_detection(self):
        p = LpProblem((-1.0,), (), (), (), ((0.0, INF),))
        assert enumerate_vertices(p).status == "unbounded"

    def test_refuses_large_problems(self):
        n = 13
        p = LpProblem(np.ones(n), (), (), (), [(0.0, 1.0)] * n)
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
            for a, relation, b in zip(problem.coeffs, problem.relations, problem.rhs):
                v = float(a @ x)
                tol = 1e-9 * (1.0 + abs(b))
                if relation == "<=":
                    assert v <= b + tol
                elif relation == ">=":
                    assert v >= b - tol
                else:
                    assert abs(v - b) <= tol
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
                        LpProblem(-scores, np.ones((1, K)), ("=",), (float(m),), [(0.0, 1.0)] * K)
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
        problems.append(LpProblem(base.objective, base.coeffs, base.relations, base.rhs, bounds))
    return problems


def overflow_problems():
    cap = (1.0, 1e-5)  # x1 + 1e-5 x2 <= 1e308: its x2 ratio overflows to inf
    nonneg = ((0.0, INF), (0.0, INF))
    return [
        LpProblem((0.0, -1.0), (cap,), ("<=",), (1e308,), nonneg),
        LpProblem((0.0, -1.0), (cap, (0.0, 1.0)), ("<=", "<="), (1e308, 2.0), nonneg),
        LpProblem((-1.0, -1.0), ((INF, 1.0), (1.0, 1.0)), ("<=", "<="), (1.0, 3.0), nonneg),
    ]


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

    def test_stock_energy_sweep_problems(self):
        # every subset LP, LP-branch LP and all-offload LP of the certified
        # stock energy-vs-T and energy-vs-d sweeps, 10 realizations per grid
        # point
        problems = stock_energy_lps()
        assert len(problems) == 393
        self.assert_same(problems)

    def test_overflowing_ratios_and_infinite_coefficients(self):
        problems = overflow_problems()
        with np.errstate(over="ignore", invalid="ignore"):  # as both solvers meet them
            assert solve_lp(problems[0]).status == "unbounded"
            self.assert_same(problems)

    def test_pivot_leaves_zero_factor_rows_untouched(self):
        tableau = np.array([[2.0, 4.0, 6.0], [-0.0, 1.0, -0.0], [3.0, 1.0, 1.0]])
        lp._pivots(tableau[None], np.zeros(1, dtype=int), 0, tableau[None, :, 0].copy())
        assert math.copysign(1.0, tableau[1, 0]) == -1.0
        assert math.copysign(1.0, tableau[1, 2]) == -1.0
        np.testing.assert_array_equal(tableau[2], [0.0, -5.0, -8.0])


def redundant_problems(seed, count):
    """Random LPs whose first row is an equality stated twice, so phase 1
    leaves an artificial in a row that has to be dropped."""
    rng = SplitMix64(seed)
    problems = []
    for _ in range(count):
        base = random_lp_problem(rng)
        coeffs = np.vstack([base.coeffs[:1], 2.0 * base.coeffs[:1], base.coeffs[1:]])
        rhs = np.concatenate([base.rhs[:1], 2.0 * base.rhs[:1], base.rhs[1:]])
        problems.append(LpProblem(base.objective, coeffs, ("=", "=") + base.relations[1:], rhs,
                                  base.bounds))
    return problems


def batch_mix():
    """One list of every kind of problem the row-loop tests check, shuffled
    so that stacks mix sizes and statuses: the criterion 9 and
    enumeration-test LPs, the mixed-bound LPs, the overflow and infinite
    cases, the stock energy LPs, random LPs with 1 to 12 variables, and
    LPs with a redundant row."""
    problems = []
    for seed, count in ((0x1B, 1000), (2718, 250), (31415, 100), (555, 25)):
        rng = SplitMix64(seed)
        problems += [random_lp_problem(rng) for _ in range(count)]
    problems += mixed_bound_problems(99, 300)
    problems += overflow_problems()
    problems += stock_energy_lps()
    problems += redundant_problems(8, 100)
    rng = SplitMix64(4242)
    for n in range(1, 13):
        for _ in range(6):
            problems.append(random_lp_problem(rng, n_vars=n, n_rows=int(rng.uniform(0, 2 * n))))
    keys = [rng.uniform() for _ in problems]
    return [problems[k] for k in sorted(range(len(problems)), key=keys.__getitem__)]


class TestBatchEquivalence:
    """`solve_lps` pivots a stack of zero-padded tableaus in lockstep; every
    problem in it must still come out exactly as the row-at-a-time
    reference solves it alone, whatever it is stacked with."""

    @pytest.fixture(scope="class")
    def mix(self):
        problems = batch_mix()
        with np.errstate(over="ignore", invalid="ignore"):
            expected = [repr(reference_solve_lp(p)) for p in problems]
        return problems, expected

    @pytest.mark.parametrize("cap", [1, 2, 7, None])
    def test_mixed_list_matches_reference(self, mix, cap, monkeypatch):
        # a budget of cap tableaus of the mix's most rows and columns: stacks
        # of at least cap problems, more where they are small (None: the
        # default budget)
        problems, expected = mix
        if cap is not None:
            rows, cols = map(max, zip(*map(lp._size, problems)))
            monkeypatch.setattr(lp, "STACK_ENTRIES", cap * lp._entries(rows, cols))
        with np.errstate(over="ignore", invalid="ignore"):  # the overflow cases meet them
            solved = [repr(s) for s in solve_lps(problems)]
        assert solved == expected

    @pytest.fixture(scope="class")
    def energy_lps(self):
        problems = stock_energy_lps()
        return problems, [repr(reference_solve_lp(p)) for p in problems]

    @pytest.mark.parametrize("budget", [0, None, math.inf], ids=["alone", "default", "one-stack"])
    @pytest.mark.parametrize("problems", ["mix", "energy_lps"])
    def test_stack_budget_leaves_the_bits(self, problems, budget, request, monkeypatch):
        problems, expected = request.getfixturevalue(problems)
        if budget is not None:
            monkeypatch.setattr(lp, "STACK_ENTRIES", budget)
        with np.errstate(over="ignore", invalid="ignore"):
            assert [repr(s) for s in solve_lps(problems)] == expected

    def test_stacks_mix_sizes_and_statuses(self, mix):
        problems, expected = mix
        statuses = [text.split("'")[1] for text in expected]
        stacks = [range(k, k + 7) for k in range(0, len(problems) - 6, 7)]
        assert any(
            len({statuses[k] for k in stack}) == 3 and len({problems[k].n_vars for k in stack}) > 1
            for stack in stacks
        )

    def test_no_warning_without_infinities(self, mix):
        # RuntimeWarnings fail the suite; lockstep neighbours must not cause
        # any that the problems alone would not
        problems, expected = mix
        overflow = {lp._key(p) for p in overflow_problems()}
        finite = [(p, e) for p, e in zip(problems, expected) if lp._key(p) not in overflow]
        assert len(finite) == len(problems) - len(overflow)
        assert [repr(s) for s in solve_lps(p for p, _ in finite)] == [e for _, e in finite]

    def test_finished_problems_take_no_ratios(self):
        # optimal at once, so alone it never divides; a ratio on its column 0
        # would overflow (1e300 / 1e-9)
        idle = LpProblem((0.0, 0.0), ((1e-9, 1.0),), ("<=",), (1e300,), ((0.0, INF), (0.0, INF)))
        solved = solve_lps([idle, simplex_face(), idle])
        assert [repr(s) for s in solved] == [
            repr(reference_solve_lp(p)) for p in (idle, simplex_face(), idle)
        ]

    def test_redundant_rows_are_dropped(self, monkeypatch):
        dropped = []
        drop = lp._drop_artificials

        def counting(stack, lps):
            before = int((stack.basis < 0).sum())
            drop(stack, lps)
            dropped.append(int((stack.basis < 0).sum()) - before)

        monkeypatch.setattr(lp, "_drop_artificials", counting)
        problems = redundant_problems(8, 100)
        assert [repr(s) for s in solve_lps(problems)] == [
            repr(reference_solve_lp(p)) for p in problems
        ]
        assert sum(dropped) > 10

    def test_empty_and_variable_free_problems(self):
        assert solve_lps([]) == []
        empty = LpProblem((), ((),), (">=",), (1.0,), ())
        solved = solve_lps([box_max_x(), empty, simplex_face()])
        assert [s.status for s in solved] == ["optimal", "infeasible", "optimal"]
        assert repr(solved[2]) == repr(reference_solve_lp(simplex_face()))


class TestStackBudget:
    """`solve_lps` cuts its problems, in order, into stacks of at most
    STACK_ENTRIES tableau entries, counted as `_entries` of the stack's most
    rows and most columns per problem; a problem beyond the budget on its
    own stacks alone."""

    @staticmethod
    def cut(sizes, starts):
        return [sizes[a:b] for a, b in zip(starts, [*starts[1:], len(sizes)])]

    @staticmethod
    def entries(stack):
        rows, cols = map(max, zip(*stack))
        return len(stack) * lp._entries(rows, cols)

    @pytest.mark.parametrize("budget", [0, 1000, 1 << 16])
    def test_stacks_fill_greedily_within_the_budget(self, budget, monkeypatch):
        monkeypatch.setattr(lp, "STACK_ENTRIES", budget)
        rng = SplitMix64(0x57AC)
        sizes = [(int(rng.uniform(0, 60)), int(rng.uniform(1, 40))) for _ in range(500)]
        sizes[100:103] = [(2000, 1000)] * 3  # each far beyond any of the budgets
        stacks = self.cut(sizes, lp._starts(sizes))
        assert [size for stack in stacks for size in stack] == sizes
        for stack, after in zip(stacks, [*stacks[1:], None]):
            assert self.entries(stack) <= budget or len(stack) == 1
            if after is not None:  # cut only where the next problem does not fit
                assert self.entries(stack + after[:1]) > budget
        assert sum(stack == [(2000, 1000)] for stack in stacks) == 3

    def test_every_problem_alone_under_a_zero_budget(self, monkeypatch):
        monkeypatch.setattr(lp, "STACK_ENTRIES", 0)
        assert lp._starts([(1, 1)] * 5) == [0, 1, 2, 3, 4]

    def test_solve_lps_stacks_as_stack_starts_cuts(self, monkeypatch):
        problems = stock_energy_lps(4) + mixed_bound_problems(5, 40)
        monkeypatch.setattr(lp, "STACK_ENTRIES", 20 * lp._entries(*lp._size(problems[0])))
        stacked = []
        solve = lp._solve_stack

        def recording(shifted):
            stacked.append(len(shifted))
            return solve(shifted)

        monkeypatch.setattr(lp, "_solve_stack", recording)
        solve_lps(problems)
        starts = lp.stack_starts(problems)
        assert stacked == [b - a for a, b in zip(starts, [*starts[1:], len(problems)])]
        assert len(stacked) > 2

    def test_stacked_tableaus_stay_within_their_count(self):
        # the budget's premise: a stack holds at most `_entries` of its most
        # rows and columns per problem, whatever it mixes
        ones, free, boxed = np.ones((10, 10)), [(0.0, INF)] * 10, [(0.0, 5.0)] * 10
        skewed = [  # ten slack rows; ten boxes; ten surplus and artificial rows
            LpProblem([-1.0] * 10, ones, ("<=",) * 10, [1.0] * 10, free),
            LpProblem([-1.0] * 10, ones[:1], ("<=",), [1.0], boxed),
            LpProblem([1.0] * 10, ones, (">=",) * 10, [1.0] * 10, free),
        ]
        problems = batch_mix()
        stacks = [problems[start : start + 97] for start in range(0, len(problems), 97)]
        for stack in stacks + [skewed]:
            with np.errstate(over="ignore", invalid="ignore"):  # the overflow cases meet them
                tableau = lp._standard_form([lp._shift(p) for p in stack]).tableau
            assert tableau.size <= self.entries([lp._size(p) for p in stack])


class TestSharedSolutions:
    """Inside a `shared_solutions` scope each distinct problem is stacked
    once, and a repeat is answered with the bits a fresh solve gives."""

    @staticmethod
    def problems():
        rng = SplitMix64(0x5EED)
        return ([random_lp_problem(rng) for _ in range(40)] + mixed_bound_problems(7, 20)
                + redundant_problems(3, 10) + [box_max_x(), simplex_face()])

    def test_second_pass_stacks_nothing(self, monkeypatch):
        problems = self.problems()
        expected = [repr(reference_solve_lp(p)) for p in problems]
        counter = count_stacked(monkeypatch)
        with shared_solutions():
            first = [repr(s) for s in solve_lps(problems)]
            stacked = counter.problems
            second = [repr(s) for s in solve_lps(problems)]
            assert [repr(solve_lp(p)) for p in problems] == expected
        assert first == second == expected
        assert 0 < stacked <= len(problems)
        assert counter.problems == stacked

    def test_signed_zeros_are_different_problems(self, monkeypatch):
        # x <= 0.0 and x <= -0.0 have equal arrays, but the maximum of x is
        # 0.0 in one and -0.0 in the other
        pair = [LpProblem((-1.0,), (), (), (), ((-INF, zero),)) for zero in (0.0, -0.0)]
        assert np.array_equal(pair[0].bounds, pair[1].bounds)
        assert lp._key(pair[0]) != lp._key(pair[1])
        expected = [repr(reference_solve_lp(p)) for p in pair]
        assert expected[0] != expected[1]
        counter = count_stacked(monkeypatch)
        with shared_solutions():
            assert [repr(solve_lp(p)) for p in pair] == expected
            assert [repr(s) for s in solve_lps(pair)] == expected
        assert counter.problems == 2

    def test_nothing_is_remembered_after_the_scope(self, monkeypatch):
        problem = simplex_face()
        counter = count_stacked(monkeypatch)
        with shared_solutions():
            solve_lp(problem)
        with pytest.raises(KeyError):
            with shared_solutions():
                solve_lp(problem)
                solve_lp(problem)
                raise KeyError("leaves the scope")
        assert counter.problems == 2
        solve_lp(problem)
        solve_lp(problem)
        assert counter.problems == 4


class TestLimits:
    def test_iteration_cap_raises_in_a_batch(self, monkeypatch):
        monkeypatch.setattr(lp, "MAX_ITER", 1)
        rng = SplitMix64(0x1B)
        with pytest.raises(RuntimeError, match="iteration cap"):
            solve_lps([random_lp_problem(rng) for _ in range(20)])

    def test_size_guard_refuses_before_building(self, monkeypatch):
        shifted = []
        monkeypatch.setattr(lp, "_shift", lambda p: shifted.append(p))
        monkeypatch.setattr(lp, "MAX_TABLEAU_ENTRIES", 100)
        small, large = box_max_x(), random_lp_problem(SplitMix64(1), n_vars=6, n_rows=6)
        with pytest.raises(BudgetExceededError, match="guard"):
            solve_lps([small, large])
        assert shifted == []

    def test_guard_bounds_the_tableau(self):
        rng = SplitMix64(77)
        problems = mixed_bound_problems(5, 50) + [random_lp_problem(rng) for _ in range(50)]
        for problem in problems:
            rows, cols = lp._size(problem)
            tableau = lp._standard_form([lp._shift(problem)]).tableau[0]
            assert tableau.size <= (rows + 1) * (cols + 2 * rows + 1)

    def test_guard_boundary(self, monkeypatch):
        monkeypatch.setattr(lp, "MAX_TABLEAU_ENTRIES", 3 * 6)
        lp.check_size(2, 1)  # 3 x 6 entries
        with pytest.raises(BudgetExceededError):
            lp.check_size(2, 2)

    def test_energy_lp_rows_match_its_precheck(self):
        for K in (1, 4, 10):
            instance = stock_instance(K, 0.2, 3, deadline=0.6)
            assert lp._size(energy._all_offload_lp(instance)[0]) == (2 * K + 1, K + 1)

    def test_all_offloading_refuses_ten_thousand_users(self):
        instance = stock_instance(10_000, 0.05, 11, deadline=1.5)
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            energy.benchmark_energy_all_offloading(instance)
        assert time.perf_counter() - start < 0.5
