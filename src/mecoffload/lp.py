"""Small dense linear programming: a two-phase tableau simplex.

The problems this package produces are small (a few dozen variables at the
stock sizes), so termination certainty and determinism come first: entering
columns follow Bland's lowest-index rule, ratio-test ties break toward the
lowest row, and rows are rescaled to unit max-coefficient before solving so
mixed second/bit scales do not starve the pivot threshold.

`solve_lps` solves its problems in stacks of zero-padded tableaus,
pivoting each stack in lockstep; a stack holds at most STACK_ENTRIES
tableau entries (`stack_starts`), or one problem beyond that, and
`solve_lp` is the stack of one.  One loop takes a stack through both
phases, each problem in its own (`_solve_stack`).  The tableaus are
updated a whole array at a time, yet every pivot is the one a
row-at-a-time loop would make on the problem alone, and every entry gets
the same floating-point operations: each row subtracts factor * pivot_row
elementwise, a row whose factor is zero (either sign), which that loop
skips, subtracts +0.0, which leaves every double as it is, and the
entering column and leaving row are the first index meeting the rule, as
a scalar loop would find them.  The objective rows are priced out one
basic row after another.  Every variable has a finite lower bound (the
energy LPs' floors and forced minimums, or 0), and its column is the
variable less that bound.  The bounds are shifted for the whole stack
at once: a row that meets at most one nonzero offset product takes that
product, and every other row the problem's own 1-D dot, so no sum of
several products is regrouped.  Padding never enters a pivot
(DESIGN_NOTES.md, "Batched simplex").  `tests/lp_reference.py` keeps the
row-at-a-time solver, and the test suite checks that the two agree bit for
bit.  The solver keeps no memo: the energy subset LPs, the only problems
met more than once, are solved once per instance and set
(`Instance.solved_sets`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LpProblem",
    "LpSolution",
    "LpStructureError",
    "BudgetExceededError",
    "IterationCapError",
    "check_size",
    "stack_starts",
    "stack_capacity",
    "solve_lp",
    "solve_lps",
]

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9
MAX_ITER = 100_000  # pivots per problem and phase
MAX_TABLEAU_ENTRIES = 1 << 24  # doubles per problem (128 MiB)
STACK_ENTRIES = 1 << 17  # doubles per lockstep stack (1 MiB), as `_entries` counts them
PRODUCT_ENTRIES = 1 << 14  # doubles of the pivot-product buffer (128 KiB)

_RELATIONS = ("<=", "=", ">=")
_SENSE = {"<=": 1, "=": 0, ">=": -1}  # negated by a row sign flip


class LpStructureError(ValueError):
    """Malformed problem (shape mismatch, bad relation, nan); distinct from an
    infeasible status."""


class BudgetExceededError(RuntimeError):
    """An exhaustive routine refused an input beyond its size guard."""


class IterationCapError(RuntimeError):
    """A problem passed MAX_ITER pivots in one phase.  index is its place in
    the `solve_lps` call (0 for `solve_lp`): the lowest of those that passed
    the cap on the same step."""

    def __init__(self, index: int):
        super().__init__(f"simplex iteration cap exceeded (problem {index})")
        self.index = index


def _frozen(values, shape: tuple[int, ...], name: str) -> np.ndarray:
    """values as a read-only float64 array of the given shape: a read-only
    float64 array that owns its data is taken as it is, anything else is
    copied.  An empty sequence stands for any empty shape."""
    array = values
    if not (
        array.__class__ is np.ndarray
        and array.dtype == np.float64
        and not array.flags.writeable
        and array.flags.owndata
    ):
        array = np.array(values, dtype=np.float64)
        array.flags.writeable = False
    if array.size == 0 == math.prod(shape):
        array = array.reshape(shape)
    if array.shape != shape:
        raise LpStructureError(f"{name} has shape {array.shape}, expected {shape}")
    return array


@dataclass(frozen=True, eq=False)
class LpProblem:
    """min objective . x subject to coeffs @ x (relations) rhs, row by row,
    and per-variable bounds.

    objective has one entry per variable (n), coeffs one row per
    constraint (m, n), relations m of "<=", "=" and ">=", rhs m entries and
    bounds one (lower, upper) pair per variable (n, 2): every lower bound
    is finite, and an upper bound of +inf leaves that side open.  Each
    array is stored read-only as float64: a read-only float64 array that
    owns its data is kept as it is, and anything else is copied.  `block`
    builds many problems of one shape over shared arrays, as
    `energy._subset_plans` does.  There is no value equality.  `size` is the (rows, variable columns) that `check_size`
    holds the problem to: a row per constraint and per finite box, and a
    column per variable.
    """

    objective: np.ndarray
    coeffs: np.ndarray
    relations: tuple[str, ...]
    rhs: np.ndarray
    bounds: np.ndarray
    size: tuple[int, int] = field(init=False, repr=False)

    def __post_init__(self):
        relations = tuple(self.relations)
        arrays = [_frozen(getattr(self, name), shape, name)
                  for name, shape in _shapes(len(self.objective), len(relations))]
        [size] = _check(*(array[None] for array in arrays), relations)
        vars(self).update(zip(_FIELDS, (*arrays, size)), relations=relations)

    @classmethod
    def block(cls, objective, coeffs, relations, rhs, bounds) -> list[LpProblem]:
        """The problems of stacked arrays, with one relations tuple: problem
        k is objective[k], coeffs[k], rhs[k] and bounds[k].  The arrays are
        stored as one problem's are, and the problems view them.  The
        checks run once over the block and refuse what the constructor
        refuses of any one problem, naming the same constraint or variable."""
        (count, n), relations = np.shape(objective), tuple(relations)
        arrays = [_frozen(values, (count, *shape), name) for values, (name, shape) in zip(
            (objective, coeffs, rhs, bounds), _shapes(n, len(relations)))]
        sizes = _check(*arrays, relations)
        problems = [object.__new__(cls) for _ in sizes]
        for problem, *fields in zip(problems, *arrays, sizes):
            vars(problem).update(zip(_FIELDS, fields), relations=relations)
        return problems

    @property
    def n_vars(self) -> int:
        return self.objective.size


_FIELDS = ("objective", "coeffs", "rhs", "bounds", "size")


def _shapes(n: int, m: int):
    """Each array field of a problem of n variables and m constraints, with its shape."""
    return ("objective", (n,)), ("coeffs", (m, n)), ("rhs", (m,)), ("bounds", (n, 2))


def _check(objective, coeffs, rhs, bounds, relations) -> list[tuple[int, int]]:
    """Refuse a block of problems (along each array's first axis) that
    holds a malformed one, naming the first problem's constraint or
    variable that fails the first failing check, and return each problem's
    `LpProblem.size`.  Each check is one reduction, false on a nan."""
    if not all(map(_RELATIONS.__contains__, relations)):
        k = next(k for k, r in enumerate(relations) if r not in _RELATIONS)
        raise LpStructureError(f"constraint {k}: unknown relation {relations[k]!r}")
    # every rhs is finite, the least objective and coefficient are numbers
    # (an infinite coefficient stays legal, but nan has no order), every
    # lower bound is at most its upper bound, and every lower bound is finite
    finite = np.isfinite(rhs)
    if not finite.all():
        _, k = np.unravel_index(finite.argmin(), finite.shape)
        raise LpStructureError(f"constraint {k}: rhs must be finite")
    if math.isnan(objective.min(initial=0.0)) or math.isnan(coeffs.min(initial=0.0)):
        raise LpStructureError("nan in the objective or the coefficients")
    ordered = np.less_equal(bounds[:, :, 0], bounds[:, :, 1])  # false where either is nan
    if not ordered.all():
        p, j = np.unravel_index(ordered.argmin(), ordered.shape)
        raise LpStructureError(f"variable {j}: bounds {bounds[p, j].tolist()} out of order")
    finite = np.isfinite(bounds[:, :, 0])
    if not finite.all():
        _, j = np.unravel_index(finite.argmin(), finite.shape)
        raise LpStructureError(f"variable {j}: lower bound must be finite")
    rows = len(relations) + np.isfinite(bounds[:, :, 1]).sum(axis=1)
    return [(r, objective.shape[1]) for r in rows.tolist()]


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: tuple[float, ...]
    objective_value: float


def _pivots(stack, lps, rows, factors, products=None) -> None:
    """Pivot tableau lps[k] of the stack on row rows[k] for every k at once;
    factors[k] is that tableau's entering column before the pivot.  The
    products factor * pivot row are formed in `products`, tableaus of the
    stack's shape, as many tableaus at a time as it holds (all of them at
    once where it is None)."""
    pivot_rows = stack[lps, rows]
    pivot_rows /= factors[lps, rows, None]
    stack[lps, rows] = pivot_rows
    factors[lps, rows] = 0.0
    idle = factors == 0.0
    factors = factors[:, :, None]
    step = len(stack) if products is None else len(products)
    for at in range(0, len(stack), step):
        part = slice(at, at + step)
        out = None if products is None else products[: min(step, len(stack) - at)]
        out = np.multiply(factors[part], pivot_rows[part, None, :], out=out)
        # A row with a zero factor subtracts +0.0, not 0 * row: x - 0.0 is
        # x for every double, where -0.0 - 0.0 * x is +0.0 for x < 0 and
        # 0.0 * inf is nan.
        out[idle[part]] = 0.0
        np.subtract(stack[part], out, out=stack[part])


def _choose(tableau: np.ndarray, lanes: np.ndarray):
    """Each tableau's next pivot: Bland's entering column (the lowest
    improving one) and the ratio test's leaving row (the lowest of the least
    ratios), with the entering column before the pivot (its factors), and
    whether the column improves (going) and whether the problem pivots (a
    going column with a finite least ratio).  lanes is arange(len(tableau))."""
    m, n = tableau.shape[1] - 1, tableau.shape[2] - 1
    improving = tableau[:, m, :n] < -PIVOT_TOL
    enter = improving.argmax(axis=1)
    factors = tableau[lanes, :, enter]
    column = factors[:, :m]
    going = improving[lanes, enter]
    # the last column stays inf, a row-free sentinel
    ratios = np.full((len(tableau), m + 1), math.inf)
    # problems already optimal take no ratios, as they would alone
    np.divide(tableau[:, :m, n], column, out=ratios[:, :m],
              where=(column > PIVOT_TOL) & going[:, None])
    leave = ratios.argmin(axis=1)
    least = ratios[lanes, leave]
    pivoting = going & (least < math.inf)
    if not pivoting.all() and np.isnan(least).any():
        # argmin stops on a nan, which no ratio test accepts; look again
        # among the others
        ratios[np.isnan(ratios)] = math.inf
        leave = ratios.argmin(axis=1)
        pivoting = going & (ratios[lanes, leave] < math.inf)
    return enter, leave, factors, going, pivoting


def _compact(arrays, keep: np.ndarray) -> int:
    """Move the slots that `keep` marks, of the first len(keep), ahead of
    the others, and return their count: in every array, each slot that it
    leaves out among the first count swaps with a kept one after them."""
    count = int(np.count_nonzero(keep))
    holes = np.flatnonzero(~keep[:count])
    if holes.size:
        movers = count + np.flatnonzero(keep[count:])
        for array in arrays:
            array[holes], array[movers] = array[movers], array[holes]
    return count


def _satisfied(sense: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Where 0 (relation) b holds within FEAS_TOL, the relations given by
    their `_SENSE`; false where b is nan."""
    return (((sense == _SENSE["<="]) & (b >= -FEAS_TOL))
            | ((sense == _SENSE[">="]) & (b <= FEAS_TOL))
            | ((sense == _SENSE["="]) & (np.abs(b) <= FEAS_TOL)))


def _entries(n_rows: int, n_cols: int) -> int:
    """The tableau entries a problem of n_rows constraint and box rows over
    n_cols variable columns may need: each row may need a slack or surplus
    column and an artificial one, and the objective row and the right-hand
    side column come on top.  A stack whose problems have at most n_rows
    rows and n_cols columns each holds at most this many per problem."""
    return (n_rows + 1) * (n_cols + 2 * n_rows + 1)


def check_size(n_rows: int, n_cols: int) -> None:
    """Refuse a problem of n_rows constraint and box rows over n_cols
    variable columns whose tableau could hold more than MAX_TABLEAU_ENTRIES
    doubles (`_entries`).  Cheap enough to call before the problem itself
    is built."""
    entries = _entries(n_rows, n_cols)
    if entries > MAX_TABLEAU_ENTRIES:
        raise BudgetExceededError(
            f"an LP of {n_rows} rows over {n_cols} columns may need {entries} tableau "
            f"entries, beyond the {MAX_TABLEAU_ENTRIES}-entry guard"
        )


def stack_starts(problems) -> list[int]:
    """Where each lockstep stack begins when `solve_lps` stacks these
    problems in order: the index of each stack's first problem.

    A stack takes the next problem while its count times `_entries` of its
    most rows and most columns (`LpProblem.size`) stays within
    STACK_ENTRIES, which bounds the stacked tableaus; a problem beyond that
    on its own stacks alone."""
    starts = []
    count = rows = cols = 0
    for k, problem in enumerate(problems):
        n_rows, n_cols = problem.size
        rows, cols = max(rows, n_rows), max(cols, n_cols)
        if count and (count + 1) * _entries(rows, cols) > STACK_ENTRIES:
            count, rows, cols = 0, n_rows, n_cols
        if not count:
            starts.append(k)
        count += 1
    return starts


def stack_capacity(n_rows: int, n_cols: int) -> int:
    """How many problems of n_rows rows over n_cols variable columns (as
    `check_size` counts them) one stack holds: at least one."""
    return max(1, STACK_ENTRIES // _entries(n_rows, n_cols))


@dataclass
class _Stack:
    """The standard forms of several problems, zero-padded to one shape.

    Column j of problem k is its variable j less its lower bound, on
    [0, inf) (`_standard_form`).  tableau[k] holds problem k's constraint
    rows (its constraints in order, then a row per finite box) over its
    variable columns, then its slack and surplus columns, then, from a
    column common to the stack, its artificial columns, and the right-hand
    side last; its objective row is last.  Rows and columns keep the
    problem's own order, so Bland's rule and the ratio test pick what they
    pick on the problem alone, and a stack of problems of at most R rows
    and C variables each has at most `_entries(R, C)` entries per problem.
    Padding rows and columns, and constraint rows without coefficients,
    are zero throughout, and those rows have basis -1."""

    tableau: np.ndarray
    basis: np.ndarray
    offsets: np.ndarray  # the lower bounds, per problem and variable, padded with zeros
    a_at: int  # the first artificial column
    art_rows: np.ndarray  # per problem, its artificial rows in order, padded with -1
    cvec: np.ndarray  # phase-2 costs of the variable columns, scaled
    phase1_tol: np.ndarray  # a larger phase-1 optimum means infeasible
    infeasible: np.ndarray  # found so already: a violated row without coefficients


def _padded(parts, count: int, shape: tuple[int, ...], mask: np.ndarray) -> np.ndarray:
    """Arrays of count problems zero-padded to one shape: the entries of
    `parts`, one flat array per problem, in the places `mask` marks."""
    padded = np.zeros((count, *shape))
    padded[mask] = np.concatenate(parts)
    return padded


def _standard_form(problems: list[LpProblem]) -> _Stack:
    count = len(problems)
    n = np.array([problem.n_vars for problem in problems])
    ncons = np.array([len(problem.relations) for problem in problems])
    width, n_cons = int(n.max()), int(ncons.max())
    var = np.arange(width) < n[:, None]
    constraint = np.arange(n_cons) < ncons[:, None]
    cvec = _padded([p.objective for p in problems], count, (width,), var)
    cons = _padded([p.coeffs.ravel() for p in problems], count, (n_cons, width),
                   constraint[:, :, None] & var[:, None, :])
    rhs = _padded([p.rhs for p in problems], count, (n_cons,), constraint)
    lower, upper = _padded([p.bounds.ravel() for p in problems], count, (width, 2),
                           np.repeat(var[:, :, None], 2, axis=2)).transpose(2, 0, 1)

    # Every variable is shifted onto [0, inf): x = lo + y, its column j.
    # The offsets are an array of their own, since a strided one would
    # change the rounding of the 1-D dots below.
    offsets = lower.copy()
    boxed = var & np.isfinite(upper)

    # Each right-hand side less its row's dot with the offsets.  A row that
    # meets at most one nonzero product, every product finite, takes that
    # product; 0.0 + it keeps an all-zero row's +0.0.  Any other row takes
    # the problem's own 1-D dot, whose sum of several products (an FMA chain
    # at these sizes) no regrouped sum repeats.
    with np.errstate(over="ignore", invalid="ignore"):
        products = cons * offsets[:, None, :]
        touched = (cons != 0.0) & (offsets[:, None, :] != 0.0)
        exact = np.where(touched, np.isfinite(products) & (products != 0.0), np.isfinite(cons))
        dots = 0.0 + products.sum(axis=2)
    for k, i in zip(*(constraint & ~(exact.all(axis=2) & (touched.sum(axis=2) <= 1))).nonzero()):
        dots[k, i] = problems[k].coeffs[i] @ offsets[k, : n[k]]
    nupper = np.count_nonzero(boxed, axis=1)
    rows = int((ncons + nupper).max())
    b = np.zeros((count, rows))
    b[:, :n_cons] = rhs - dots
    sense = np.full((count, rows), _SENSE["<="])
    sense[:, :n_cons][constraint] = [_SENSE[r] for p in problems for r in p.relations]
    real = np.arange(rows) < (ncons + nupper)[:, None]  # its constraints, then its boxes

    cscale = np.max(np.abs(cvec), axis=1, keepdims=True)
    np.divide(cvec, cscale, out=cvec, where=cscale > 0.0)

    scale = np.max(np.abs(cons), axis=2, initial=0.0)
    empty = constraint & (scale <= 0.0)
    cb = b[:, :n_cons]
    infeasible = (empty & ~_satisfied(sense[:, :n_cons], cb)).any(axis=1)
    real[:, :n_cons] &= ~empty
    kept = constraint & ~empty
    np.divide(cb, scale, out=cb, where=kept)
    cb[empty] = 0.0
    k, j = boxed.nonzero()
    box = ncons[k] + (np.cumsum(boxed, axis=1) - 1)[k, j]  # right after its problem's constraints
    width_of_box = upper[k, j] - lower[k, j]
    upper_scale = np.maximum(1.0, np.abs(width_of_box))
    b[k, box] = width_of_box / upper_scale
    flip = b < 0.0
    np.negative(b, out=b, where=flip)
    np.negative(sense, out=sense, where=flip)

    slack = real & (sense == _SENSE["<="])
    surplus = real & (sense == _SENSE[">="])
    art = real & (sense != _SENSE["<="])
    n_slack = slack.sum(axis=1)
    a_at = width + int((n_slack + surplus.sum(axis=1)).max())
    total = a_at + int(art.sum(axis=1).max())
    tableau = np.zeros((count, rows + 1, total + 1))
    A = tableau[:, :rows, :width]
    np.divide(cons, scale[:, :, None], out=A[:, :n_cons], where=kept[:, :, None])
    A[k, box, j] = 1.0 / upper_scale
    np.negative(A, out=A, where=flip[:, :, None])
    tableau[:, :rows, total] = b
    basis = np.full((count, rows), -1)
    for rows_of, first_col, value in ((slack, width, 1.0), (surplus, width + n_slack, -1.0),
                                      (art, a_at, 1.0)):
        k, i = rows_of.nonzero()
        col = np.broadcast_to(first_col, count)[k] + (np.cumsum(rows_of, axis=1) - 1)[k, i]
        tableau[k, i, col] = value
        if value > 0.0:
            basis[k, i] = col
    art_rows = np.full((count, total - a_at), -1)
    k, i = art.nonzero()
    art_rows[k, (np.cumsum(art, axis=1) - 1)[k, i]] = i
    return _Stack(
        tableau=tableau,
        basis=basis,
        offsets=offsets,
        a_at=a_at,
        art_rows=art_rows,
        cvec=cvec,
        phase1_tol=FEAS_TOL * (1.0 + np.max(b, axis=1, initial=0.0)),
        infeasible=infeasible,
    )


def _price(tableau: np.ndarray, lps: np.ndarray, rows: np.ndarray, factors: np.ndarray) -> None:
    """Subtract factors[k, j] * (row rows[k, j]) from the objective row of
    problem lps[k], for j = 0, 1, ... in turn: the x - factor * row of a
    row-at-a-time loop, in its order.  The loop skips a zero factor's row;
    here its term is +0.0, and x - 0.0 is x for every double, the sign of a
    zero included.  The terms are formed a few j at a time, at most
    PRODUCT_ENTRIES doubles of them, and each j with a nonzero factor is
    one subtraction for all the problems."""
    nonzero = factors != 0.0
    used = np.flatnonzero(nonzero.any(axis=0))
    rows, factors, nonzero = rows[:, used].T, factors[:, used].T, nonzero[:, used].T
    objective = tableau[lps, -1]
    step = max(1, min(len(used), PRODUCT_ENTRIES // max(1, objective.size)))
    for at in range(0, len(used), step):
        part = slice(at, at + step)
        terms = np.zeros((*rows[part].shape, objective.shape[1]))
        np.multiply(factors[part, :, None], tableau[lps, rows[part]], out=terms,
                    where=nonzero[part, :, None])
        for term in terms:
            objective -= term
    tableau[lps, -1] = objective


def _drop_artificials(stack: _Stack, lps: np.ndarray) -> None:
    """Drive leftover artificials out of the bases of the problems `lps`,
    one row after another.  A row where that is impossible is redundant and
    is zeroed, as are their artificial columns, so that phase 2 never picks
    either."""
    tableau, basis, a_at = stack.tableau, stack.basis, stack.a_at
    for i in np.flatnonzero((basis[lps] >= a_at).any(axis=0)):
        stuck = lps[basis[lps, i] >= a_at]
        candidates = np.abs(tableau[stuck, i, :a_at]) > PIVOT_TOL
        movable = candidates.any(axis=1)
        redundant = stuck[~movable]
        tableau[redundant, i] = 0.0
        basis[redundant, i] = -1
        moved = stuck[movable]
        if moved.size:
            enter = candidates.argmax(axis=1)[movable]  # the lowest such column
            tableaus = tableau[moved]
            lanes = np.arange(moved.size)
            _pivots(tableaus, lanes, i, tableaus[lanes, :, enter])
            tableau[moved] = tableaus
            basis[moved, i] = enter
    tableau[lps, :, a_at:-1] = 0.0


def _phase2(stack: _Stack, lps: np.ndarray, ids: np.ndarray) -> None:
    """Restore the true objective of the tableaus `lps`, which hold the
    problems `ids`, as reduced costs over their bases, one basic row after
    another."""
    tableau, cvec = stack.tableau, stack.cvec[ids]
    m = tableau.shape[1] - 1
    tableau[lps, m] = 0.0
    tableau[lps, m, : cvec.shape[1]] = cvec
    col = stack.basis[lps]
    variable = (col >= 0) & (col < cvec.shape[1])
    cb = np.take_along_axis(cvec, np.where(variable, col, 0), axis=1)
    cb[~variable] = 0.0
    _price(tableau, lps, np.broadcast_to(np.arange(m), col.shape), cb)


def _solve_stack(problems: list[LpProblem]) -> list[LpSolution]:
    """Both simplex phases for several problems at once, in one lockstep loop.

    Each step, every working problem picks its pivot (`_choose`) in the
    objective row of its own phase.  A problem whose phase 1 ends is
    judged there, against phase1_tol; if feasible, its artificials are
    driven out (`_drop_artificials`), its phase-2 objective priced
    (`_phase2`), and it picks its phase-2 pivot at once, so it pivots on in
    the same step.  A problem that is done leaves the working tableaus, the
    first of the stack, by swapping slots with the last working one
    (`_compact`): tableau slot s then holds problem at[s].  MAX_ITER caps
    each problem's pivots in each phase."""
    stack = _standard_form(problems)
    tableau, basis = stack.tableau, stack.basis
    count, m = len(problems), tableau.shape[1] - 1
    feasible = ~stack.infeasible
    unbounded = np.zeros(count, dtype=bool)
    # Phase 1 minimizes the artificial sum, pricing out the artificial rows
    # one after another; the other problems start in phase 2.
    phase1 = feasible & (stack.art_rows >= 0).any(axis=1)
    lps = np.flatnonzero(phase1)
    if lps.size:
        art_rows = stack.art_rows[lps]
        present = art_rows >= 0
        tableau[lps, m, stack.a_at : -1] = present
        _price(tableau, lps, np.maximum(art_rows, 0), present.astype(float))
    lps = np.flatnonzero(feasible & ~phase1)
    _phase2(stack, lps, lps)

    at = np.arange(count)  # the problem each tableau slot holds
    began = np.zeros(count, dtype=np.intp)  # the step each slot's phase began
    lanes = np.arange(count)
    working = _compact((tableau, basis, at, phase1), feasible)
    products = np.empty_like(tableau[: max(1, min(count, PRODUCT_ENTRIES // tableau[0].size))])
    step = 0
    while working:
        enter, leave, factors, going, pivoting = _choose(tableau[:working], lanes[:working])
        if not pivoting.all():
            ended = np.flatnonzero(~pivoting & phase1[:working])
            if ended.size:
                ids = at[ended]
                ok = ~going[ended] & ~(-tableau[ended, m, -1] > stack.phase1_tol[ids])
                feasible[ids[~ok]] = False
                switching, ids = ended[ok], ids[ok]
                if switching.size:
                    _drop_artificials(stack, switching)
                    _phase2(stack, switching, ids)
                    phase1[switching] = False
                    began[switching] = step
                    chosen = _choose(tableau[switching], lanes[: switching.size])
                    for array, values in zip((enter, leave, factors, going, pivoting), chosen):
                        array[switching] = values
            done = ~pivoting & ~phase1[:working]
            unbounded[at[:working][done]] = going[done]
            working = _compact((tableau, basis, at, phase1, began, enter, leave, factors),
                               pivoting)
            if not working:
                break
        _pivots(tableau[:working], lanes[:working], leave[:working], factors[:working],
                products)
        basis[lanes[:working], leave[:working]] = enter[:working]
        step += 1
        if step >= MAX_ITER and step - began[:working].min() >= MAX_ITER:
            raise IterationCapError(at[:working][step - began[:working] >= MAX_ITER].min().item())

    y = np.zeros((count, tableau.shape[2] - 1))
    k, i = (basis >= 0).nonzero()
    y[at[k], basis[k, i]] = tableau[k, i, -1]
    x = stack.offsets + y[:, : stack.offsets.shape[1]]
    solutions = []
    for k, problem in enumerate(problems):
        n = problem.n_vars
        if not feasible[k]:
            solutions.append(LpSolution("infeasible", (math.nan,) * n, math.nan))
        elif unbounded[k]:
            solutions.append(LpSolution("unbounded", (math.nan,) * n, -math.inf))
        else:
            value = float(problem.objective @ x[k, :n])
            solutions.append(LpSolution("optimal", tuple(x[k, :n].tolist()), value))
    return solutions


def solve_lps(problems) -> list[LpSolution]:
    """Solve many problems, each exactly as `solve_lp` would alone.

    The problems go through both phases a stack of tableaus at a time, cut
    by `stack_starts` to at most STACK_ENTRIES entries: on each step every
    unfinished problem picks its own entering column and leaving row, and
    one masked update makes all the pivots.  Every problem to be stacked
    is held to the size guard before anything is built."""
    problems = list(problems)
    solutions: list[LpSolution | None] = [None] * len(problems)
    todo = []  # the indices of the problems to stack
    for k, problem in enumerate(problems):
        if problem.n_vars == 0:
            ok = _satisfied(np.array([_SENSE[r] for r in problem.relations]), problem.rhs).all()
            solutions[k] = LpSolution("optimal" if ok else "infeasible", (), 0.0)
        else:
            check_size(*problem.size)
            todo.append(k)
    stacked = [problems[k] for k in todo]
    starts = stack_starts(stacked)
    for start, stop in zip(starts, [*starts[1:], len(todo)]):
        try:
            solved = _solve_stack(stacked[start:stop])
        except IterationCapError as capped:  # its index in the stack, as one in the call
            raise IterationCapError(todo[start + capped.index]) from None
        for k, solution in zip(todo[start:stop], solved):
            solutions[k] = solution
    return solutions


def solve_lp(problem: LpProblem) -> LpSolution:
    """Two-phase simplex.  Deterministic: identical problems yield identical
    solutions, including the vertex picked on degenerate optima."""
    return solve_lps([problem])[0]
