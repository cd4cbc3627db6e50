import dataclasses
import math
import time
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mecoffload import energy, lp, with_deadline
from mecoffload.lp import (
    BudgetExceededError,
    IterationCapError,
    LpProblem,
    LpStructureError,
    solve_lp,
    solve_lps,
)
from mecoffload.rng import mix64
import lp_reference
from lp_reference import enumerate_vertices, reference_solve_lp
from support import (
    SplitMix64,
    lp_key,
    random_lp_problem,
    stock_energy_lps,
    stock_instance,
    subset_lp,
    subset_lps,
)

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
        p = LpProblem((1.0,), ((1.0,), (1.0,)), (">=", "<="), (2.0, 1.0), ((-10.0, INF),))
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

    @pytest.mark.parametrize("bound", [(-INF, INF), (-INF, 3.5), (INF, INF)],
                             ids=["free", "upper-only", "infinite-lower"])
    def test_lower_bound_must_be_finite(self, bound):
        # variable 1 of the lone problem, and of the middle one of a block
        message = "variable 1: lower bound must be finite"
        with pytest.raises(LpStructureError, match=message):
            LpProblem((1.0, 1.0), ((1.0, 1.0),), (">=",), (-2.0,), ((0.0, 1.0), bound))
        bounds = np.array([[(0.0, 1.0), (0.0, INF)], [(0.0, 1.0), bound], [(0.0, 1.0)] * 2])
        with pytest.raises(LpStructureError, match=message):
            LpProblem.block(np.ones((3, 2)), np.ones((3, 1, 2)), (">=",), np.full((3, 1), -2.0),
                            bounds)

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


def structure_cases():
    """Each malformed problem of `TestStructure`, as (objective, coeffs,
    relations, rhs, bounds), with a well-formed problem of its shape and
    relations, or None where there is none."""
    one = ((1.0,), ((1.0,),), ("<=",), (1.0,), ((0.0, 1.0),))
    free = ((-1.0,), (), (), (), ((0.0, 1.0),))
    nan = math.nan
    return [
        pytest.param(((1.0,), ((1.0, 2.0),), ("<=",), (1.0,), ((0.0, 1.0),)), None,
                     id="dimension-mismatch"),
        pytest.param(((1.0,), ((1.0,),), ("<=",), (1.0, 2.0), ((0.0, 1.0),)), None,
                     id="rhs-count-mismatch"),
        pytest.param(((1.0, 1.0), (), (), (), ((0.0, 1.0),)), None, id="bound-count-mismatch"),
        pytest.param(((1.0,), ((1.0,),), ("<",), (1.0,), ((0.0, 1.0),)), None, id="bad-relation"),
        pytest.param(((1.0,), ((1.0,),), ("<=",), (INF,), ((0.0, 1.0),)), one, id="infinite-rhs"),
        pytest.param(((1.0,), (), (), (), ((2.0, 1.0),)), free, id="crossed-bounds"),
        pytest.param(((-1.0,), (), (), (), ((nan, 1.0),)), free, id="nan-lower-bound"),
        pytest.param(((-1.0,), (), (), (), ((0.0, nan),)), free, id="nan-upper-bound"),
        pytest.param(((nan,), (), (), (), ((0.0, 1.0),)), free, id="nan-objective"),
        pytest.param(((-1.0,), ((nan,),), ("<=",), (1.0,), ((0.0, 2.0),)), one,
                     id="nan-coefficient"),
    ]


def block_of(problems):
    """`LpProblem.block` of (objective, coeffs, relations, rhs, bounds)
    tuples that share their relations."""
    objective, coeffs, relations, rhs, bounds = zip(*problems)
    return LpProblem.block(np.array(objective), np.array(coeffs), relations[0], np.array(rhs),
                           np.array(bounds))


class TestBlock:
    """`LpProblem.block` builds many problems over stacked arrays, checked
    once over the block."""

    @pytest.mark.parametrize("bad, good", structure_cases())
    def test_a_block_refuses_what_one_problem_refuses(self, bad, good):
        with pytest.raises(LpStructureError) as alone:
            LpProblem(*bad)
        # the bad problem in the middle of good ones; a bad shape or
        # relation is the whole block's
        with pytest.raises(LpStructureError) as stacked:
            block_of([bad] * 3 if good is None else [good, bad, good])
        if " has shape " in str(alone.value):  # the same array, with the block's shapes
            name = str(alone.value).split(" has shape ")[0]
            assert str(stacked.value).startswith(f"{name} has shape ")
        else:
            assert str(stacked.value) == str(alone.value)
        if good is not None:
            assert len(block_of([good] * 3)) == 3

    def test_block_problems_equal_single_ones(self):
        problems = [p for p in stock_energy_lps(2) if p.n_vars == 11]
        block = block_of([(p.objective, p.coeffs, p.relations, p.rhs, p.bounds) for p in problems])
        assert [lp_key(p) for p in block] == [lp_key(p) for p in problems]
        assert [p.size for p in block] == [p.size for p in problems]
        for problem in block[:2]:
            for name in ("objective", "coeffs", "rhs", "bounds"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(problem, name)[...] = 0.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                problem.relations = ()
        assert [repr(s) for s in solve_lps(block)] == [repr(s) for s in solve_lps(problems)]


class TestRecord:
    """An `LpProblem` holds read-only float64 arrays: copies of what it was
    given, or the given arrays themselves where they are read-only and own
    their data, as `energy._subset_plans` builds them."""

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
        assert lp_key(kept) == lp_key(simplex_face())
        nan = np.array([math.nan, -1.0])
        nan.flags.writeable = False
        with pytest.raises(LpStructureError, match="nan"):
            LpProblem(nan, coeffs, ("<=",), rhs, bounds)

    def test_caller_arrays_stay_theirs(self):
        objective, coeffs = np.array([-1.0, -1.0]), np.array([[1.0, 1.0]])
        rhs, bounds = np.array([1.0]), np.array([[0.0, INF], [0.0, INF]])
        problem = LpProblem(objective, coeffs, ["<="], rhs, bounds)
        key = lp_key(problem)
        for array in (objective, coeffs, rhs, bounds):
            array[...] = 7.0
        assert lp_key(problem) == key == lp_key(simplex_face())
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
    """Random LPs whose variables have negative lower bounds, boxed or not,
    so the standard form shifts by nonzero offsets and its rows meet
    several of them."""
    rng = SplitMix64(seed)
    problems = []
    for _ in range(count):
        base = random_lp_problem(rng, n_vars=5, n_rows=5)
        bounds = []
        for _, hi in base.bounds:
            if rng.uniform() < 0.5:
                bounds.append((-3.0, INF))
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

    def test_negative_lower_bounds(self):
        problems = mixed_bound_problems(99, 300)
        statuses = {solve_lp(p).status for p in problems}
        assert statuses == {"optimal", "infeasible", "unbounded"}
        self.assert_same(problems)

    def test_stock_energy_sweep_problems(self):
        # every subset LP, LP-branch LP and all-offload LP of the certified
        # stock energy-vs-T and energy-vs-d sweeps, 10 realizations per grid
        # point: 237 distinct problems
        problems = stock_energy_lps()
        assert len(problems) == 392 and len(set(map(lp_key, problems))) == 237
        self.assert_same(problems)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        n_users=st.integers(2, 30),
        degradation=st.floats(0.0, 0.5),
        seed=st.integers(0, 2**64 - 1),
        slack=st.one_of(st.just(1.0), st.floats(1.0, 1.3)),
        costly=st.sets(st.integers(0, 29), max_size=3),
        data=st.data(),
    )
    def test_drawn_subset_lps(self, n_users, degradation, seed, slack, costly, data):
        # the shapes the energy solvers build: users in `costly` transmit at
        # 100 times the power, so that offloading costs them energy (a
        # window floor when forced), forced saving members have a minimum,
        # and a deadline near t_min leaves a tight budget
        inst = stock_instance(n_users, degradation, seed, deadline=0.45)
        power = inst.tx_power * np.where(np.isin(np.arange(n_users), list(costly)), 100.0, 1.0)
        inst = dataclasses.replace(inst, tx_power=power)
        inst = with_deadline(inst, energy.feasibility_tmin(inst) * slack)
        partition = inst.partition
        optional = sorted(partition.free_saving)
        s1 = data.draw(st.sets(st.sampled_from(optional))) if optional else set()
        problem = subset_lp((inst, partition, s1))
        if problem is not None:
            self.assert_same([problem])

    def test_overflowing_ratios_and_infinite_coefficients(self):
        problems = overflow_problems()
        with np.errstate(over="ignore", invalid="ignore"):  # as both solvers meet them
            assert solve_lp(problems[0]).status == "unbounded"
            self.assert_same(problems)

    def test_rows_that_keep_the_dot(self):
        # Subset LPs with forced costly users (a window floor above 0) and
        # forced saving members (a lower bound above 0): their cap rows meet
        # two nonzero offset products, so they keep the 1-D dot.  No stock
        # LP has a window floor.
        costly = []
        for seed in range(12):
            base = stock_instance(8, 0.2, mix64(41, seed), deadline=1e-9)
            power = base.tx_power.copy()
            power[1::3] *= 100.0  # offloading then costs these users energy
            base = dataclasses.replace(base, tx_power=power)
            t_min = energy.feasibility_tmin(base)
            for scale in (1.0, 1.1, 1.3):
                instance = with_deadline(base, scale * t_min)
                costly += [p for p in subset_lps(instance) if p is not None
                           and p.bounds[-1, 0] > 0.0 and (p.bounds[:-1, 0] > 0.0).any()]
        # the offsets are the lower bounds
        two = [p for p in costly
               if (np.count_nonzero(p.coeffs[1:] * p.bounds[:, 0], axis=1) > 1).any()]
        assert len(two) > 20
        stock = stock_energy_lps(2)
        problems = [q for pair in zip(stock, costly) for q in pair] + [zero_offset_row()]
        expected = [repr(reference_solve_lp(p)) for p in problems]
        assert [repr(s) for s in solve_lps(problems)] == expected
        self.assert_same(problems)

    def test_a_row_that_meets_the_offsets_only_in_zeros(self):
        # the row's one product is -1.0 * 0.0 = -0.0, and its shift the
        # +0.0 of the dot, so the right-hand side stays -0.0
        problem = zero_offset_row()
        tableau = lp._standard_form([problem]).tableau
        assert math.copysign(1.0, tableau[0, 0, -1]) == -1.0
        offsets = np.array([0.0])
        assert math.copysign(1.0, problem.rhs[0] - problem.coeffs[0] @ offsets) == -1.0
        self.assert_same([problem])

    def test_pivot_leaves_zero_factor_rows_untouched(self):
        tableau = np.array([[2.0, 4.0, 6.0], [-0.0, 1.0, -0.0], [3.0, 1.0, 1.0]])
        lp._pivots(tableau[None], np.zeros(1, dtype=int), 0, tableau[None, :, 0].copy())
        assert math.copysign(1.0, tableau[1, 0]) == -1.0
        assert math.copysign(1.0, tableau[1, 2]) == -1.0
        np.testing.assert_array_equal(tableau[2], [0.0, -5.0, -8.0])


def zero_offset_row():
    """max y over y in [0, 3] subject to -y <= -0.0."""
    return LpProblem((-1.0,), ((-1.0,),), ("<=",), (-0.0,), ((0.0, 3.0),))


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
            rows, cols = map(max, zip(*(p.size for p in problems)))
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

    @pytest.mark.parametrize("buffer", [0, math.inf], ids=["one-tableau", "whole-stack"])
    @pytest.mark.parametrize("problems", ["mix", "energy_lps"])
    def test_product_buffer_leaves_the_bits(self, problems, buffer, request, monkeypatch):
        # the pivot products of one tableau at a time, and of the whole
        # stack at once, in one stack of every problem
        problems, expected = request.getfixturevalue(problems)
        monkeypatch.setattr(lp, "STACK_ENTRIES", math.inf)
        monkeypatch.setattr(lp, "PRODUCT_ENTRIES", buffer)
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
        overflow = {lp_key(p) for p in overflow_problems()}
        finite = [(p, e) for p, e in zip(problems, expected) if lp_key(p) not in overflow]
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


def phase_pivots(problem, monkeypatch) -> tuple[int, int]:
    """The pivots the row-at-a-time reference makes in simplex phases 1 and
    2 of the problem, 0 for a phase it does not run: it runs phase 1 only
    where the problem has artificials, and phase 2 only where the problem is
    feasible.  The pivots that drive artificials out are neither's."""
    runs, pivots = [], []
    pivot, run = lp_reference.row_loop_pivot, lp_reference.row_loop_run_simplex

    def counting_pivot(*args):
        pivots.append(None)
        return pivot(*args)

    def counting_run(*args):
        start = len(pivots)
        status = run(*args)
        runs.append(len(pivots) - start)
        return status

    with monkeypatch.context() as patch:
        patch.setattr(lp_reference, "row_loop_pivot", counting_pivot)
        patch.setattr(lp_reference, "row_loop_run_simplex", counting_run)
        status = reference_solve_lp(problem).status
    if len(runs) == 2:
        return tuple(runs)
    return (*runs, 0) if status == "infeasible" else (0, *runs)


def lockstep_steps(problems, monkeypatch) -> list[tuple[int, bool]]:
    """Each lockstep step of `solve_lps` on the problems: how many problems
    it pivots, and whether it pivots them in place, in a view of the
    stack's own tableaus.  The pivots that drive artificials out are no
    step."""
    steps, tableaus, dropping = [], [], []
    pivots, drop, build = lp._pivots, lp._drop_artificials, lp._standard_form

    def building(problems):
        stack = build(problems)
        tableaus.append(stack.tableau)
        return stack

    def dropping_artificials(*args):
        dropping.append(None)
        try:
            return drop(*args)
        finally:
            dropping.pop()

    def pivoting(stack, lps, *args):
        if not dropping:
            steps.append((len(lps), stack.base is tableaus[-1]))
        return pivots(stack, lps, *args)

    with monkeypatch.context() as patch:
        patch.setattr(lp, "_standard_form", building)
        patch.setattr(lp, "_drop_artificials", dropping_artificials)
        patch.setattr(lp, "_pivots", pivoting)
        solve_lps(problems)
    return steps


class TestLockstep:
    """One loop pivots a stack through both phases: each problem starts
    phase 2 on the step its phase 1 ends, and a problem that is done leaves
    the working tableaus without a copy of the others."""

    def test_a_stock_stack_takes_its_longest_problem_s_pivots(self, monkeypatch):
        problems = stock_energy_lps(4)
        monkeypatch.setattr(lp, "STACK_ENTRIES", math.inf)  # one stack
        phases = [phase_pivots(p, monkeypatch) for p in problems]
        steps = lockstep_steps(problems, monkeypatch)
        assert len(steps) == max(map(sum, phases))
        # the phase maxima one after the other would take more steps
        assert len(steps) < sum(map(max, zip(*phases)))
        assert sum(count for count, _ in steps) == sum(map(sum, phases))
        assert all(in_place for _, in_place in steps)

    def test_every_stock_stack_pivots_in_place(self, monkeypatch):
        problems = stock_energy_lps(2)
        monkeypatch.setattr(lp, "STACK_ENTRIES", 20 * lp._entries(*problems[0].size))
        steps = lockstep_steps(problems, monkeypatch)
        assert len(lp.stack_starts(problems)) > 1
        assert steps and all(in_place for _, in_place in steps)


class TestStackBudget:
    """`solve_lps` cuts its problems, in order, into stacks of at most
    STACK_ENTRIES tableau entries, counted as `_entries` of the stack's most
    rows and most columns per problem; a problem beyond the budget on its
    own stacks alone."""

    @staticmethod
    def cut(sizes, starts):
        return [sizes[a:b] for a, b in zip(starts, [*starts[1:], len(sizes)])]

    @staticmethod
    def starts(sizes):
        """`stack_starts` of problems of these (rows, columns) sizes."""
        return lp.stack_starts([types.SimpleNamespace(size=size) for size in sizes])

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
        stacks = self.cut(sizes, self.starts(sizes))
        assert [size for stack in stacks for size in stack] == sizes
        for stack, after in zip(stacks, [*stacks[1:], None]):
            assert self.entries(stack) <= budget or len(stack) == 1
            if after is not None:  # cut only where the next problem does not fit
                assert self.entries(stack + after[:1]) > budget
        assert sum(stack == [(2000, 1000)] for stack in stacks) == 3

    def test_every_problem_alone_under_a_zero_budget(self, monkeypatch):
        monkeypatch.setattr(lp, "STACK_ENTRIES", 0)
        assert self.starts([(1, 1)] * 5) == [0, 1, 2, 3, 4]

    def test_solve_lps_stacks_as_stack_starts_cuts(self, monkeypatch):
        problems = stock_energy_lps(4) + mixed_bound_problems(5, 40)
        monkeypatch.setattr(lp, "STACK_ENTRIES", 20 * lp._entries(*problems[0].size))
        stacked = []
        solve = lp._solve_stack

        def recording(problems):
            stacked.append(len(problems))
            return solve(problems)

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
                tableau = lp._standard_form(stack).tableau
            assert tableau.size <= self.entries([p.size for p in stack])


class TestLimits:
    def test_iteration_cap_raises_in_a_batch(self, monkeypatch):
        monkeypatch.setattr(lp, "MAX_ITER", 1)
        rng = SplitMix64(0x1B)
        with pytest.raises(RuntimeError, match="iteration cap"):
            solve_lps([random_lp_problem(rng) for _ in range(20)])

    def test_iteration_cap_holds_each_phase(self, monkeypatch):
        # a cap above each phase's pivots solves a problem whose two phases
        # together reach it, in a stack or alone; a cap that one phase
        # reaches stops it
        problems = stock_energy_lps(1)
        phases = [phase_pivots(p, monkeypatch) for p in problems]
        k, (p1, p2) = next((k, runs) for k, runs in enumerate(phases) if min(runs) >= 1)
        monkeypatch.setattr(lp, "MAX_ITER", max(p1, p2) + 1)
        assert p1 + p2 >= lp.MAX_ITER
        expected = repr(reference_solve_lp(problems[k]))
        assert repr(solve_lp(problems[k])) == expected
        mates = [p for p, runs in zip(problems, phases) if max(runs) < lp.MAX_ITER]
        assert [repr(s) for s in solve_lps(mates)] == [repr(reference_solve_lp(p)) for p in mates]
        monkeypatch.setattr(lp, "MAX_ITER", max(p1, p2))
        with pytest.raises(RuntimeError, match="iteration cap"):
            solve_lp(problems[k])

    @pytest.mark.parametrize("stack_entries", [lp.STACK_ENTRIES, 0])
    def test_iteration_cap_names_the_problem(self, monkeypatch, stack_entries):
        # a cap that one problem's phase reaches and no other's names that
        # problem's place in the call, in one stack or in a stack each; of
        # two that reach it on the same step, the first
        problems = stock_energy_lps(1)
        pivots = [max(phase_pivots(p, monkeypatch)) for p in problems]
        capped = problems[pivots.index(max(pivots))]
        mates = [p for p, n in zip(problems, pivots) if n < max(pivots)][:19]
        assert len(mates) == 19
        monkeypatch.setattr(lp, "MAX_ITER", max(pivots))
        monkeypatch.setattr(lp, "STACK_ENTRIES", stack_entries)
        with pytest.raises(IterationCapError, match="simplex iteration cap exceeded") as lone:
            solve_lp(capped)
        assert lone.value.index == 0
        for k in (0, 7, 19):
            with pytest.raises(IterationCapError) as caught:
                solve_lps(mates[:k] + [capped] + mates[k:])
            assert caught.value.index == k
        with pytest.raises(IterationCapError) as caught:
            solve_lps(mates[:5] + [capped] + mates[5:11] + [capped] + mates[11:])
        assert caught.value.index == 5

    def test_size_guard_refuses_before_building(self, monkeypatch):
        built = []
        monkeypatch.setattr(lp, "_standard_form", built.append)
        monkeypatch.setattr(lp, "MAX_TABLEAU_ENTRIES", 100)
        small, large = box_max_x(), random_lp_problem(SplitMix64(1), n_vars=6, n_rows=6)
        with pytest.raises(BudgetExceededError, match="guard"):
            solve_lps([small, large])
        assert built == []

    def test_guard_bounds_the_tableau(self):
        rng = SplitMix64(77)
        problems = mixed_bound_problems(5, 50) + [random_lp_problem(rng) for _ in range(50)]
        for problem in problems:
            rows, cols = problem.size
            tableau = lp._standard_form([problem]).tableau[0]
            assert tableau.size <= (rows + 1) * (cols + 2 * rows + 1)

    def test_guard_boundary(self, monkeypatch):
        monkeypatch.setattr(lp, "MAX_TABLEAU_ENTRIES", 3 * 6)
        lp.check_size(2, 1)  # 3 x 6 entries
        with pytest.raises(BudgetExceededError):
            lp.check_size(2, 2)

    def test_energy_lp_rows_match_its_precheck(self):
        for K in (1, 4, 10):
            instance = stock_instance(K, 0.2, 3, deadline=0.6)
            assert subset_lp(energy._all_offload_case(instance)).size == (2 * K + 1, K + 1)

    def test_all_offloading_refuses_ten_thousand_users(self):
        instance = stock_instance(10_000, 0.05, 11, deadline=1.5)
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            energy.benchmark_energy_all_offloading(instance)
        assert time.perf_counter() - start < 0.5
