"""Small dense linear programming: a two-phase tableau simplex.

The problems this package produces are small (a few dozen variables at the
stock sizes), so termination certainty and determinism come first: entering
columns follow Bland's lowest-index rule, ratio-test ties break toward the
lowest row, and rows are rescaled to unit max-coefficient before solving so
mixed second/bit scales do not starve the pivot threshold.

`solve_lps` solves its problems in stacks of zero-padded tableaus,
pivoting each stack in lockstep; a stack holds at most STACK_ENTRIES
tableau entries (`stack_starts`), or one problem beyond that, and
`solve_lp` is the stack of one.  The tableaus are updated a whole array at
a time, yet every pivot is the one a row-at-a-time loop would make on the
problem alone, and every entry gets the same floating-point operations:
each row subtracts factor * pivot_row elementwise, rows whose factor is
zero (either sign) are not written at all, so the sign of a zero survives,
and the entering column and leaving row are the first index meeting the
rule, as a scalar loop would find them.  The objective rows are priced out
one basic row after another, and each constraint's offset shift is a
single 1-D dot, so no sum is regrouped.  Padding never enters a pivot
(DESIGN_NOTES.md, "Batched simplex").  `tests/lp_reference.py` keeps the
row-at-a-time solver, and the test suite checks that the two agree bit for
bit.  The solver keeps no memo: a caller that meets one problem more than
once passes it once (`energy.shared_solutions`).
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
STACK_ENTRIES = 1 << 16  # doubles per lockstep stack (512 KiB), as `_entries` counts them

_RELATIONS = ("<=", "=", ">=")
_SENSE = {"<=": 1, "=": 0, ">=": -1}  # negated by a row sign flip


class LpStructureError(ValueError):
    """Malformed problem (shape mismatch, bad relation, nan); distinct from an
    infeasible status."""


class BudgetExceededError(RuntimeError):
    """An exhaustive routine refused an input beyond its size guard."""


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
    bounds one (lower, upper) pair per variable (n, 2); use -inf/+inf for
    unbounded sides.  Each array is stored read-only as float64: a
    read-only float64 array that owns its data, as `energy._subset_lp`
    builds them, is kept as it is, and anything else is copied.  There is
    no value equality.  `size` is the (rows, variable columns) that
    `check_size` holds the problem to: a row per constraint and per finite
    box, a column per variable and a second one per free variable.
    """

    objective: np.ndarray
    coeffs: np.ndarray
    relations: tuple[str, ...]
    rhs: np.ndarray
    bounds: np.ndarray
    size: tuple[int, int] = field(init=False, repr=False)

    def __post_init__(self):
        n, m = len(self.objective), len(self.relations)
        for name, shape in (("objective", (n,)), ("coeffs", (m, n)), ("rhs", (m,)),
                            ("bounds", (n, 2))):
            object.__setattr__(self, name, _frozen(getattr(self, name), shape, name))
        object.__setattr__(self, "relations", tuple(self.relations))
        if not all(map(_RELATIONS.__contains__, self.relations)):
            k = next(k for k, r in enumerate(self.relations) if r not in _RELATIONS)
            raise LpStructureError(f"constraint {k}: unknown relation {self.relations[k]!r}")
        # One reduction per check, each false on a nan: the largest |rhs| is
        # finite, the least objective and coefficient are numbers (an
        # infinite coefficient stays legal, but nan has no order), and every
        # lower bound is at most its upper bound.
        if not np.abs(self.rhs).max(initial=0.0) < math.inf:
            k = np.isfinite(self.rhs).argmin()
            raise LpStructureError(f"constraint {k}: rhs must be finite")
        if math.isnan(self.objective.min(initial=0.0)) or math.isnan(self.coeffs.min(initial=0.0)):
            raise LpStructureError("nan in the objective or the coefficients")
        lower, upper = self.bounds.T
        if not np.less_equal(lower, upper).all():
            j = np.less_equal(lower, upper).argmin()  # false where either bound is nan
            raise LpStructureError(f"variable {j}: bounds {self.bounds[j].tolist()} out of order")
        free, _, boxed = np.bincount(np.isfinite(self.bounds).sum(axis=1), minlength=3).tolist()
        object.__setattr__(self, "size", (m + boxed, n + free))

    @property
    def n_vars(self) -> int:
        return self.objective.size


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
    factors = factors[:, :, None]
    step = len(stack) if products is None else len(products)
    for at in range(0, len(stack), step):
        part = slice(at, at + step)
        out = None if products is None else products[: min(step, len(stack) - at)]
        # Rows with a zero factor are left alone rather than updated by
        # 0 * row: -0.0 - 0.0 * x is +0.0 for x < 0, and 0.0 * inf is nan.
        np.subtract(stack[part], np.multiply(factors[part], pivot_rows[part, None, :], out=out),
                    out=stack[part], where=factors[part] != 0.0)


def _simplex(stack: np.ndarray, basis: np.ndarray, lps: np.ndarray) -> np.ndarray:
    """Pivot the stacked problems `lps` in lockstep until each one is optimal
    or unbounded.  Writes their final tableaus and bases back into the stack
    and returns which of them are unbounded.

    A problem leaves the working set as soon as it is done, so that the
    others do not carry it through their remaining steps.  The pivot
    products go to one buffer of a quarter of STACK_ENTRIES, a few tableaus
    at a time."""
    m, n = stack.shape[1] - 1, stack.shape[2] - 1
    unbounded = np.zeros(len(lps), dtype=bool)
    at = np.arange(len(lps))  # where in lps each working problem sits
    # lps is sorted, so all of them is the whole stack, pivoted in place
    work, work_basis = (stack, basis) if lps.size == len(stack) else (stack[lps], basis[lps])
    working = at
    products = np.empty_like(work[: max(1, min(len(work), STACK_ENTRIES // 4 // stack[0].size))])
    for _ in range(MAX_ITER):
        if not at.size:
            return unbounded
        improving = work[:, m, :n] < -PIVOT_TOL
        enter = improving.argmax(axis=1)  # Bland: the lowest improving index
        factors = work[working, :, enter]
        column = factors[:, :m]
        going = improving[working, enter]
        # the last column stays inf, a row-free sentinel
        ratios = np.full((at.size, m + 1), math.inf)
        # problems already optimal take no ratios, as they would alone
        np.divide(work[:, :m, n], column, out=ratios[:, :m],
                  where=(column > PIVOT_TOL) & going[:, None])
        leave = ratios.argmin(axis=1)  # ties keep the lowest row index
        least = ratios[working, leave]
        pivoting = going & (least < math.inf)
        if not pivoting.all():
            if np.isnan(least).any():
                # argmin stops on a nan, which no ratio test accepts; look
                # again among the others
                ratios[np.isnan(ratios)] = math.inf
                leave = ratios.argmin(axis=1)
                least = ratios[working, leave]
                pivoting = going & (least < math.inf)
            done = ~pivoting
            unbounded[at[done]] = going[done]
            stack[lps[at[done]]] = work[done]
            basis[lps[at[done]]] = work_basis[done]
            work, work_basis, at = work[pivoting], work_basis[pivoting], at[pivoting]
            enter, leave, factors = enter[pivoting], leave[pivoting], factors[pivoting]
            working = np.arange(at.size)
        _pivots(work, working, leave, factors, products)
        work_basis[working, leave] = enter
    raise RuntimeError("simplex iteration cap exceeded")


def _satisfied(relation: str, b: float) -> bool:
    """Whether 0 (relation) b holds within FEAS_TOL."""
    return (
        (relation == "<=" and b >= -FEAS_TOL)
        or (relation == ">=" and b <= FEAS_TOL)
        or (relation == "=" and abs(b) <= FEAS_TOL)
    )


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
    problems in order: the index of each stack's first problem."""
    return _starts(problem.size for problem in problems)


def stack_capacity(n_rows: int, n_cols: int) -> int:
    """How many problems of n_rows rows over n_cols variable columns (as
    `check_size` counts them) one stack holds: at least one."""
    return max(1, STACK_ENTRIES // _entries(n_rows, n_cols))


def _starts(sizes) -> list[int]:
    """`stack_starts` of problems of these (rows, columns) sizes
    (`LpProblem.size`).

    A stack takes the next problem while its count times `_entries` of its
    most rows and most columns stays within STACK_ENTRIES, which bounds the
    stacked tableaus; a problem beyond that on its own stacks alone."""
    starts = []
    count = rows = cols = 0
    for k, (n_rows, n_cols) in enumerate(sizes):
        rows, cols = max(rows, n_rows), max(cols, n_cols)
        if count and (count + 1) * _entries(rows, cols) > STACK_ENTRIES:
            count, rows, cols = 0, n_rows, n_cols
        if not count:
            starts.append(k)
        count += 1
    return starts


@dataclass(frozen=True)
class _Shifted:
    """A problem with every variable shifted onto [0, inf): x = lo + y, or
    x = hi - y for upper-bounded-only variables, or x = y+ - y- for free
    ones (two columns).  Column k of the standard form is variable
    col_var[k] times col_sign[k]."""

    problem: LpProblem
    rhs: np.ndarray  # each right-hand side less its row's dot with offsets
    offsets: np.ndarray
    col_var: list[int]
    col_sign: list[float]
    upper_cols: list[int]  # columns with a finite box, and the box widths
    upper: list[float]


def _shift(problem: LpProblem) -> _Shifted:
    offsets: list[float] = []
    col_var: list[int] = []
    col_sign: list[float] = []
    upper_cols: list[int] = []
    upper: list[float] = []
    for j, (lo, hi) in enumerate(problem.bounds.tolist()):
        if math.isfinite(lo):
            if math.isfinite(hi):
                upper_cols.append(len(col_var))
                upper.append(hi - lo)
            offsets.append(lo)
            col_var.append(j)
            col_sign.append(1.0)
        elif math.isfinite(hi):
            offsets.append(hi)
            col_var.append(j)
            col_sign.append(-1.0)
        else:
            offsets.append(0.0)
            col_var += (j, j)
            col_sign += (1.0, -1.0)
    shift = np.array(offsets)
    # one 1-D dot per row, summed exactly as a lone `a @ offsets` would be
    dots = np.fromiter((a @ shift for a in problem.coeffs), np.float64, len(problem.rhs))
    return _Shifted(problem, problem.rhs - dots, shift, col_var, col_sign, upper_cols, upper)


@dataclass
class _Stack:
    """The standard forms of several problems, zero-padded to one shape.

    tableau[k] holds problem k's constraint rows (its constraints in order,
    then a row per finite box) over its variable columns, then its slack
    and surplus columns, then, from a column common to the stack, its
    artificial columns, and the right-hand side last; its objective row is
    last.  Rows and columns keep the problem's own order, so Bland's rule
    and the ratio test pick what they pick on the problem alone, and a
    stack of problems of at most R rows and C variable columns each has at
    most `_entries(R, C)` entries per problem.  Padding rows, and
    constraint rows without coefficients, have basis -1 and are zero
    throughout."""

    tableau: np.ndarray
    basis: np.ndarray
    ncols: np.ndarray  # variable columns per problem
    a_at: int  # the first artificial column
    art_rows: np.ndarray  # per problem, its artificial rows in order, padded with -1
    cvec: np.ndarray  # phase-2 costs of the variable columns, scaled
    phase1_tol: np.ndarray  # a larger phase-1 optimum means infeasible
    infeasible: np.ndarray  # found so already: a violated row without coefficients


def _standard_form(shifted: list[_Shifted]) -> _Stack:
    count = len(shifted)
    n_vars = max(s.problem.n_vars for s in shifted)
    ncons = np.array([len(s.rhs) for s in shifted])
    nupper = np.array([len(s.upper) for s in shifted])
    ncols = np.array([len(s.col_var) for s in shifted])
    n_cons, n_upper, width = int(ncons.max()), int(nupper.max()), int(ncols.max())
    rows = int((ncons + nupper).max())
    # column n_vars of the padded objective is zero: absent columns read it
    objective = np.zeros((count, n_vars + 1))
    cons = np.zeros((count, n_cons, width))  # the coefficients of each column
    col_var = np.full((count, width), n_vars)
    col_sign = np.ones((count, width))
    b = np.zeros((count, rows))
    sense = np.full((count, rows), _SENSE["<="])
    real = np.zeros((count, rows), dtype=bool)
    upper = np.zeros((count, n_upper))
    upper_cols = np.zeros((count, n_upper), dtype=int)
    for k, s in enumerate(shifted):
        n, c, u = s.problem.n_vars, ncons[k], nupper[k]
        cons[k, :c, : ncols[k]] = s.problem.coeffs[:, s.col_var]
        objective[k, :n] = s.problem.objective
        col_var[k, : ncols[k]] = s.col_var
        col_sign[k, : ncols[k]] = s.col_sign
        b[k, :c] = s.rhs
        sense[k, :c] = [_SENSE[relation] for relation in s.problem.relations]
        real[k, : c + u] = True  # its constraints, then its boxes
        upper[k, :u] = s.upper
        upper_cols[k, :u] = s.upper_cols

    cvec = np.take_along_axis(objective, col_var, axis=1) * col_sign
    cscale = np.max(np.abs(cvec), axis=1, keepdims=True)
    np.divide(cvec, cscale, out=cvec, where=cscale > 0.0)

    cons *= col_sign[:, None, :]
    scale = np.max(np.abs(cons), axis=2, initial=0.0)
    constraint = np.arange(n_cons) < ncons[:, None]
    empty = constraint & (scale <= 0.0)
    infeasible = np.zeros(count, dtype=bool)
    for k, i in zip(*empty.nonzero()):
        infeasible[k] |= not _satisfied(shifted[k].problem.relations[i], b[k, i])
    real[:, :n_cons] &= ~empty
    kept = constraint & ~empty
    np.divide(b[:, :n_cons], scale, out=b[:, :n_cons], where=kept)
    b[:, :n_cons][empty] = 0.0
    upper_scale = np.maximum(1.0, np.abs(upper))
    k, u = (np.arange(n_upper) < nupper[:, None]).nonzero()
    box = ncons[k] + u  # each box row, right after its problem's constraints
    b[k, box] = upper[k, u] / upper_scale[k, u]
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
    A[k, box, upper_cols[k, u]] = 1.0 / upper_scale[k, u]
    np.negative(A, out=A, where=flip[:, :, None])
    tableau[:, :rows, total] = b
    basis = np.full((count, rows), -1)
    for rows_of, first, value in ((slack, width, 1.0), (surplus, width + n_slack, -1.0),
                                  (art, a_at, 1.0)):
        k, i = rows_of.nonzero()
        col = np.broadcast_to(first, count)[k] + (np.cumsum(rows_of, axis=1) - 1)[k, i]
        tableau[k, i, col] = value
        if value > 0.0:
            basis[k, i] = col
    art_rows = np.full((count, total - a_at), -1)
    k, i = art.nonzero()
    art_rows[k, (np.cumsum(art, axis=1) - 1)[k, i]] = i
    return _Stack(
        tableau=tableau,
        basis=basis,
        ncols=ncols,
        a_at=a_at,
        art_rows=art_rows,
        cvec=cvec,
        phase1_tol=FEAS_TOL * (1.0 + np.max(b, axis=1, initial=0.0)),
        infeasible=infeasible,
    )


def _price(tableau: np.ndarray, lps: np.ndarray, rows: np.ndarray, factors: np.ndarray) -> None:
    """Subtract factors[k, j] * (row rows[k, j]) from the objective row of
    problem lps[k], for j = 0, 1, ... in turn, skipping zero factors: the
    x - factor * row of a row-at-a-time loop, in its order, and a skipped
    row leaves every value (and the sign of a zero) as it is."""
    objective = tableau[lps, -1]
    for j in (factors != 0.0).any(axis=0).nonzero()[0]:
        k = factors[:, j].nonzero()[0]
        objective[k] -= factors[k, j, None] * tableau[lps[k], rows[k, j]]
    tableau[lps, -1] = objective


def _drop_artificials(stack: _Stack, lps: np.ndarray) -> None:
    """Drive leftover artificials out of the bases of the problems `lps`,
    one row after another.  A row where that is impossible is redundant and
    is zeroed, as are the artificial columns, so that phase 2 never picks
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
    tableau[:, :, a_at:-1] = 0.0


def _solve_stack(shifted: list[_Shifted]) -> list[LpSolution]:
    """Both simplex phases for several problems at once."""
    stack = _standard_form(shifted)
    tableau, basis = stack.tableau, stack.basis
    m = tableau.shape[1] - 1
    feasible = ~stack.infeasible

    lps = np.flatnonzero(feasible & (stack.art_rows >= 0).any(axis=1))
    if lps.size:
        # Phase 1: minimize the artificial sum, pricing out the artificial
        # rows one after another.
        art_rows = stack.art_rows[lps]
        present = art_rows >= 0
        tableau[lps, m, stack.a_at : -1] = present
        _price(tableau, lps, np.maximum(art_rows, 0), present.astype(float))
        unbounded = _simplex(tableau, basis, lps)
        feasible[lps] = ~unbounded & ~(-tableau[lps, m, -1] > stack.phase1_tol[lps])
        _drop_artificials(stack, lps[feasible[lps]])

    # Phase 2: restore the true objective as reduced costs over the basis,
    # one basic row after another.
    live = np.flatnonzero(feasible)
    tableau[live, m] = 0.0
    tableau[live, m, : stack.cvec.shape[1]] = stack.cvec[live]
    col = basis[live]
    variable = (col >= 0) & (col < stack.ncols[live, None])
    cb = np.take_along_axis(stack.cvec[live], np.where(variable, col, 0), axis=1)
    cb[~variable] = 0.0
    _price(tableau, live, np.broadcast_to(np.arange(m), col.shape), cb)
    unbounded = np.zeros(len(shifted), dtype=bool)
    unbounded[live] = _simplex(tableau, basis, live)

    y = np.zeros((len(shifted), tableau.shape[2] - 1))
    k, i = (basis >= 0).nonzero()
    y[k, basis[k, i]] = tableau[k, i, -1]
    solutions = []
    for k, s in enumerate(shifted):
        nan_x = tuple([math.nan] * s.problem.n_vars)
        if not feasible[k]:
            solutions.append(LpSolution("infeasible", nan_x, math.nan))
        elif unbounded[k]:
            solutions.append(LpSolution("unbounded", nan_x, -math.inf))
        else:
            x = s.offsets.copy()
            # in column order: y+ before y-
            np.add.at(x, s.col_var, np.asarray(s.col_sign) * y[k, : stack.ncols[k]])
            value = float(s.problem.objective @ x)
            solutions.append(LpSolution("optimal", tuple(x.tolist()), value))
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
            ok = all(map(_satisfied, problem.relations, problem.rhs.tolist()))
            solutions[k] = LpSolution("optimal" if ok else "infeasible", (), 0.0)
        else:
            check_size(*problem.size)
            todo.append(k)
    starts = _starts(problems[k].size for k in todo)
    for start, stop in zip(starts, [*starts[1:], len(todo)]):
        chunk = todo[start:stop]
        for k, solution in zip(chunk, _solve_stack([_shift(problems[k]) for k in chunk])):
            solutions[k] = solution
    return solutions


def solve_lp(problem: LpProblem) -> LpSolution:
    """Two-phase simplex.  Deterministic: identical problems yield identical
    solutions, including the vertex picked on degenerate optima."""
    return solve_lps([problem])[0]
