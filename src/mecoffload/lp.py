"""Small dense linear programming: two-phase tableau simplex plus a
vertex-enumeration micro-oracle used to test it.

The problems this package produces are small (a few dozen variables at the
stock sizes), so termination certainty and determinism come first: entering
columns follow Bland's lowest-index rule, ratio-test ties break toward the
lowest row, and rows are rescaled to unit max-coefficient before solving so
mixed second/bit scales do not starve the pivot threshold.

The tableau is updated a whole array at a time, yet every pivot is the one
a row-at-a-time loop would make and every entry gets the same floating-point
operations: each row subtracts factor * pivot_row elementwise, rows whose
factor is zero (either sign) are not written at all, so the sign of a zero
survives, and the entering column and leaving row are the first index
meeting the rule, as a scalar loop would find them.  The objective rows are
priced out one basic row after another, and each constraint's offset shift
is a single 1-D dot, so no sum is regrouped.  `tests/lp_reference.py` keeps
the row-at-a-time solver, and the test suite checks that the two agree bit
for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LpProblem",
    "LpConstraint",
    "LpSolution",
    "LpStructureError",
    "BudgetExceededError",
    "constraint",
    "solve_lp",
    "enumerate_vertices",
]

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-9

_RELATIONS = ("<=", "=", ">=")
_SENSE = {"<=": 1, "=": 0, ">=": -1}  # negated by a row sign flip


class LpStructureError(ValueError):
    """Malformed problem (dimension mismatch, bad relation); distinct from an
    infeasible status."""


class BudgetExceededError(RuntimeError):
    """An exhaustive routine refused an input beyond its size guard."""


@dataclass(frozen=True)
class LpConstraint:
    coeffs: tuple[float, ...]
    relation: str
    rhs: float


def constraint(coeffs, relation: str, rhs: float) -> LpConstraint:
    return LpConstraint(tuple(map(float, coeffs)), relation, float(rhs))


@dataclass(frozen=True)
class LpProblem:
    """min objective . x subject to row constraints and per-variable bounds.

    bounds holds one (lower, upper) pair per variable; use -inf/+inf for
    unbounded sides.  Constraints may be LpConstraint values or plain
    (coeffs, relation, rhs) triples.
    """

    objective: tuple[float, ...]
    constraints: tuple[LpConstraint, ...]
    bounds: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "objective", tuple(float(c) for c in self.objective))
        cons = []
        for con in self.constraints:
            if isinstance(con, LpConstraint):
                cons.append(constraint(con.coeffs, con.relation, con.rhs))
            else:
                coeffs, relation, rhs = con
                cons.append(constraint(coeffs, relation, rhs))
        object.__setattr__(self, "constraints", tuple(cons))
        object.__setattr__(self, "bounds", tuple((float(lo), float(hi)) for lo, hi in self.bounds))
        n = len(self.objective)
        if len(self.bounds) != n:
            raise LpStructureError(f"{len(self.bounds)} bounds for {n} variables")
        for k, con in enumerate(self.constraints):
            if len(con.coeffs) != n:
                raise LpStructureError(
                    f"constraint {k} has {len(con.coeffs)} coefficients, expected {n}"
                )
            if con.relation not in _RELATIONS:
                raise LpStructureError(f"constraint {k}: unknown relation {con.relation!r}")
            if not math.isfinite(con.rhs):
                raise LpStructureError(f"constraint {k}: rhs must be finite")
        for j, (lo, hi) in enumerate(self.bounds):
            if lo > hi:
                raise LpStructureError(f"variable {j}: lower bound {lo} above upper bound {hi}")

    @property
    def n_vars(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: tuple[float, ...]
    objective_value: float


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    pivot_row = tableau[row]
    pivot_row /= pivot_row[col]
    factors = tableau[:, col, None].copy()
    factors[row] = 0.0
    # Rows with a zero factor are left alone rather than updated by 0 * row:
    # -0.0 - 0.0 * x is +0.0 for x < 0, and 0.0 * inf is nan.
    np.subtract(tableau, factors * pivot_row, out=tableau, where=factors != 0.0)


def _run_simplex(tableau: np.ndarray, basis: list[int], max_iter: int = 100_000) -> str:
    m = tableau.shape[0] - 1
    reduced_costs = tableau[-1, :-1]
    rhs = tableau[:m, -1]
    ratios = np.empty(m + 1)  # the last entry stays inf, a row-free sentinel
    for _ in range(max_iter):
        improving = reduced_costs < -PIVOT_TOL
        enter = int(improving.argmax())  # Bland: the lowest improving index
        if not improving[enter]:
            return "optimal"
        column = tableau[:m, enter]
        ratios.fill(math.inf)
        np.divide(rhs, column, out=ratios[:m], where=column > PIVOT_TOL)
        leave = int(ratios.argmin())  # ties keep the lowest row index
        if not ratios[leave] < math.inf:
            # argmin stopped on a nan, or no row has a finite ratio; neither
            # can pass a strictly-less-than-infinity test, so look again
            finite = (ratios < math.inf).nonzero()[0]
            if finite.size == 0:
                return "unbounded"
            leave = int(finite[ratios[finite].argmin()])
        _pivot(tableau, leave, enter)
        basis[leave] = enter
    raise RuntimeError("simplex iteration cap exceeded")


def _satisfied(relation: str, b: float) -> bool:
    """Whether 0 (relation) b holds within FEAS_TOL."""
    return (
        (relation == "<=" and b >= -FEAS_TOL)
        or (relation == ">=" and b <= FEAS_TOL)
        or (relation == "=" and abs(b) <= FEAS_TOL)
    )


def solve_lp(problem: LpProblem) -> LpSolution:
    """Two-phase simplex.  Deterministic: identical problems yield identical
    solutions, including the vertex picked on degenerate optima."""
    n = problem.n_vars
    nan_x = tuple([math.nan] * n)
    if n == 0:
        ok = all(_satisfied(con.relation, con.rhs) for con in problem.constraints)
        return LpSolution("optimal" if ok else "infeasible", (), 0.0)

    # Shift every variable onto [0, inf): x = lo + y, or x = hi - y for
    # upper-bounded-only variables, or x = y+ - y- for free ones.
    bounds = np.array(problem.bounds)
    lo, hi = bounds[:, 0], bounds[:, 1]
    has_lo, has_hi = np.isfinite(lo), np.isfinite(hi)
    free = ~has_lo & ~has_hi
    offsets = np.where(has_lo, lo, np.where(has_hi, hi, 0.0))
    width = 1 + free  # free variables take two columns
    first_col = np.cumsum(width) - width
    col_var = np.repeat(np.arange(n), width)
    col_sign = np.ones(len(col_var))
    col_sign[first_col[has_hi & ~has_lo]] = -1.0
    col_sign[first_col[free] + 1] = -1.0
    ncols = len(col_var)
    boxed = has_lo & has_hi
    upper_cols = first_col[boxed]
    upper = hi[boxed] - lo[boxed]

    cobj = np.asarray(problem.objective)
    cvec = cobj[col_var] * col_sign
    cscale = float(np.max(np.abs(cvec)))
    if cscale > 0.0:
        cvec = cvec / cscale

    cons = problem.constraints
    coeffs = np.array([con.coeffs for con in cons]).reshape(len(cons), n)
    # one 1-D dot per row, summed exactly as a lone `a @ offsets` would be
    b = np.array([con.rhs - float(a @ offsets) for con, a in zip(cons, coeffs)])
    rows = coeffs[:, col_var] * col_sign
    scale = np.max(np.abs(rows), axis=1)
    empty = scale <= 0.0
    for k in np.flatnonzero(empty):
        if not _satisfied(cons[k].relation, b[k]):
            return LpSolution("infeasible", nan_x, math.nan)
    kept = np.flatnonzero(~empty)
    upper_scale = np.maximum(1.0, np.abs(upper))
    bound_rows = np.zeros((len(upper), ncols))
    bound_rows[np.arange(len(upper)), upper_cols] = 1.0 / upper_scale
    A = np.vstack([rows[kept] / scale[kept, None], bound_rows])
    b = np.concatenate([b[kept] / scale[kept], upper / upper_scale])
    sense = np.array(
        [_SENSE[cons[k].relation] for k in kept] + [_SENSE["<="]] * len(upper), dtype=int
    )
    m = len(b)
    flip = b < 0.0
    A[flip] = -A[flip]
    b[flip] = -b[flip]
    sense[flip] = -sense[flip]

    slack_rows = np.flatnonzero(sense == _SENSE["<="])
    surplus_rows = np.flatnonzero(sense == _SENSE[">="])
    art_rows = np.flatnonzero(sense != _SENSE["<="])
    n_slack, n_surplus, n_art = len(slack_rows), len(surplus_rows), len(art_rows)
    a_at = ncols + n_slack + n_surplus
    total = a_at + n_art
    tableau = np.zeros((m + 1, total + 1))
    tableau[:m, :ncols] = A
    tableau[:m, -1] = b
    slack_cols = ncols + np.arange(n_slack)
    art_cols = a_at + np.arange(n_art)
    tableau[slack_rows, slack_cols] = 1.0
    tableau[surplus_rows, ncols + n_slack + np.arange(n_surplus)] = -1.0
    tableau[art_rows, art_cols] = 1.0
    basis_cols = np.empty(m, dtype=int)
    basis_cols[slack_rows] = slack_cols
    basis_cols[art_rows] = art_cols
    basis = basis_cols.tolist()

    if n_art:
        # Phase 1: minimize the artificial sum, pricing out the artificial
        # rows one after another.
        tableau[-1, a_at:total] = 1.0
        for i in art_rows:
            tableau[-1] -= tableau[i]
        status = _run_simplex(tableau, basis)
        phase1 = -tableau[-1, -1]
        if status != "optimal" or phase1 > FEAS_TOL * (1.0 + float(np.max(b, initial=0.0))):
            return LpSolution("infeasible", nan_x, math.nan)
        # Drive leftover artificials out of the basis; rows where that is
        # impossible are redundant and dropped.
        keep_rows: list[int] = []
        for i in range(m):
            if basis[i] >= a_at:
                candidates = np.flatnonzero(np.abs(tableau[i, :a_at]) > PIVOT_TOL)
                if candidates.size == 0:
                    continue
                _pivot(tableau, i, int(candidates[0]))
                basis[i] = int(candidates[0])
            keep_rows.append(i)
        tableau = tableau[np.ix_(keep_rows + [m], list(range(a_at)) + [total])]
        basis = [basis[i] for i in keep_rows]
        m = len(basis)

    # Phase 2: restore the true objective as reduced costs over the basis,
    # one basic row after another.
    tableau[-1, :] = 0.0
    tableau[-1, :ncols] = cvec
    for i in range(m):
        cb = cvec[basis[i]] if basis[i] < ncols else 0.0
        if cb != 0.0:
            tableau[-1] -= cb * tableau[i]
    status = _run_simplex(tableau, basis)
    if status == "unbounded":
        return LpSolution("unbounded", nan_x, -math.inf)

    y = np.zeros(tableau.shape[1] - 1)
    y[basis] = tableau[:m, -1]
    x = offsets.copy()
    np.add.at(x, col_var, col_sign * y[:ncols])  # in column order: y+ before y-
    objective_value = float(cobj @ x)
    return LpSolution("optimal", tuple(x.tolist()), objective_value)


# ---------------------------------------------------------------------------
# Vertex enumeration oracle
# ---------------------------------------------------------------------------

MAX_ORACLE_VARS = 12
MAX_ORACLE_COMBOS = 2_000_000


_CHUNK = 4096  # candidate bases per stacked LAPACK call


def _as_rows(problem: LpProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All constraints, including finite bounds, as (coefficient matrix,
    relation senses, rhs)."""
    n = problem.n_vars
    eye = np.eye(n)
    coeffs = [con.coeffs for con in problem.constraints]
    senses = [_SENSE[con.relation] for con in problem.constraints]
    rhs = [con.rhs for con in problem.constraints]
    for j, (lo, hi) in enumerate(problem.bounds):
        if math.isfinite(lo):
            coeffs.append(eye[j])
            senses.append(_SENSE[">="])
            rhs.append(lo)
        if math.isfinite(hi):
            coeffs.append(eye[j])
            senses.append(_SENSE["<="])
            rhs.append(hi)
    return np.array(coeffs, dtype=float).reshape(-1, n), np.array(senses), np.array(rhs)


def _feasible(rows, x: np.ndarray) -> np.ndarray:
    """Which of the points x (one per row) satisfy every row within FEAS_TOL."""
    coeffs, senses, rhs = rows
    v = x @ coeffs.T
    tol = FEAS_TOL * (1.0 + np.abs(rhs))
    violated = np.where(
        senses == _SENSE["<="],
        v > rhs + tol,
        np.where(senses == _SENSE[">="], v < rhs - tol, np.abs(v - rhs) > tol),
    )
    return ~violated.any(axis=1)


def _enumerate_feasible_vertices(rows, n: int) -> list[np.ndarray]:
    coeffs, _, rhs = rows
    n_combos = math.comb(len(rhs), n) if len(rhs) >= n else 0
    if n_combos > MAX_ORACLE_COMBOS:
        raise BudgetExceededError(f"{n_combos} candidate bases exceed the enumeration guard")
    vertices: list[np.ndarray] = []
    combos = itertools.combinations(range(len(rhs)), n)
    while chunk := list(itertools.islice(combos, _CHUNK)):
        basis = np.array(chunk)
        A, b = coeffs[basis], rhs[basis]
        # LAPACK's gesv refuses exactly the bases whose LU factorization has
        # a zero pivot, which are the ones slogdet gives sign 0; the rest are
        # solved in one stacked call, each by the same gesv as on its own.
        solvable = np.linalg.slogdet(A)[0] != 0.0
        A, b = A[solvable], b[solvable]
        x = np.linalg.solve(A, b[:, :, None])[:, :, 0]
        finite = np.isfinite(x).all(axis=1)
        A, b, x = A[finite], b[finite], x[finite]
        residual = np.abs((A @ x[:, :, None])[:, :, 0] - b).max(axis=1)
        unreliable = residual > 1e-7 * (1.0 + np.abs(b).max(axis=1))  # near-singular
        x = x[~unreliable]
        vertices.extend(x[_feasible(rows, x)])
    return vertices


def enumerate_vertices(problem: LpProblem) -> LpSolution:
    """Exhaustive vertex enumeration: the reference answer for solve_lp.

    Visits every n-subset of constraint rows (bounds included), keeps the
    feasible intersection points, and returns the minimum-objective one.
    Unboundedness is detected by enumerating the recession directions inside
    a unit box and looking for one that improves the objective.  Only meant
    for tiny problems; anything beyond the size guards is refused.
    """
    n = problem.n_vars
    if n > MAX_ORACLE_VARS:
        raise BudgetExceededError(
            f"{n} variables exceed the {MAX_ORACLE_VARS}-variable oracle guard"
        )
    if n == 0:
        return solve_lp(problem)
    rows = _as_rows(problem)
    c = np.asarray(problem.objective)

    vertices = _enumerate_feasible_vertices(rows, n)
    if not vertices:
        return LpSolution("infeasible", tuple([math.nan] * n), math.nan)

    # Recession directions: relax every rhs to 0 and keep directions inside a
    # unit box, so the cone section is a polytope enumerable the same way.
    coeffs, senses, _ = rows
    ray_rows = (
        np.vstack([coeffs, np.repeat(np.eye(n), 2, axis=0)]),
        np.concatenate([senses, np.tile([_SENSE["<="], _SENSE[">="]], n)]),
        np.concatenate([np.zeros(len(senses)), np.tile([1.0, -1.0], n)]),
    )
    for d in _enumerate_feasible_vertices(ray_rows, n):
        if float(c @ d) < -FEAS_TOL * (1.0 + float(np.max(np.abs(c)))):
            return LpSolution("unbounded", tuple([math.nan] * n), -math.inf)

    best = vertices[0]
    best_obj = float(c @ best)
    for x in vertices[1:]:
        obj = float(c @ x)
        if obj < best_obj:
            best_obj = obj
            best = x
    return LpSolution("optimal", tuple(float(v) for v in best), best_obj)
