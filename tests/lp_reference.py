"""The row-at-a-time two-phase simplex, kept as the bit-exact reference for
`mecoffload.lp.solve_lp`.

This is the solver as it was before the tableau updates were vectorised:
every pivot updates one row at a time, Bland's entering column and the
ratio test are plain Python loops, and the standard form is built row by
row.  `solve_lp` must return an `LpSolution` whose `repr` equals this one's
on every problem, signed zeros included.

`enumerate_vertices` is a second, independent reference: it visits every
vertex of a tiny problem and keeps the best one.
"""

import itertools
import math

import numpy as np

from mecoffload.lp import (
    _SENSE,
    FEAS_TOL,
    PIVOT_TOL,
    BudgetExceededError,
    LpProblem,
    LpSolution,
    solve_lp,
)


def row_loop_pivot(tableau: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and tableau[r, col] != 0.0:
            tableau[r] -= tableau[r, col] * tableau[row]


def row_loop_run_simplex(tableau: np.ndarray, basis: list[int], max_iter: int = 100_000) -> str:
    m = tableau.shape[0] - 1
    for _ in range(max_iter):
        obj = tableau[-1]
        enter = -1
        for j in range(tableau.shape[1] - 1):
            if obj[j] < -PIVOT_TOL:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave = -1
        best = math.inf
        for i in range(m):
            a = tableau[i, enter]
            if a > PIVOT_TOL:
                ratio = tableau[i, -1] / a
                if ratio < best:  # strict: ties keep the lowest row index
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        row_loop_pivot(tableau, leave, enter)
        basis[leave] = enter
    raise RuntimeError("simplex iteration cap exceeded")


def reference_solve_lp(problem: LpProblem) -> LpSolution:
    """Two-phase simplex.  Deterministic: identical problems yield identical
    solutions, including the vertex picked on degenerate optima."""
    n = problem.n_vars
    nan_x = tuple([math.nan] * n)
    if n == 0:
        ok = all(
            (relation == "<=" and rhs >= -FEAS_TOL)
            or (relation == ">=" and rhs <= FEAS_TOL)
            or (relation == "=" and abs(rhs) <= FEAS_TOL)
            for relation, rhs in zip(problem.relations, problem.rhs.tolist())
        )
        return LpSolution("optimal" if ok else "infeasible", (), 0.0)

    # Shift every variable onto [0, inf): x = lo + y, or x = hi - y for
    # upper-bounded-only variables, or x = y+ - y- for free ones.
    col_sign: list[float] = []
    col_var: list[int] = []
    offsets = np.zeros(n)
    upper_rows: list[tuple[int, float]] = []  # (column, residual upper bound)
    for j, (lo, hi) in enumerate(problem.bounds.tolist()):
        if math.isfinite(lo):
            offsets[j] = lo
            col_var.append(j)
            col_sign.append(1.0)
            if math.isfinite(hi):
                upper_rows.append((len(col_var) - 1, hi - lo))
        elif math.isfinite(hi):
            offsets[j] = hi
            col_var.append(j)
            col_sign.append(-1.0)
        else:
            col_var.append(j)
            col_sign.append(1.0)
            col_var.append(j)
            col_sign.append(-1.0)
    ncols = len(col_var)

    cobj = np.asarray(problem.objective)
    cvec = np.array([cobj[col_var[k]] * col_sign[k] for k in range(ncols)])
    cscale = float(np.max(np.abs(cvec)))
    if cscale > 0.0:
        cvec = cvec / cscale

    rows: list[np.ndarray] = []
    rels: list[str] = []
    rhs: list[float] = []
    for a, relation, con_rhs in zip(problem.coeffs, problem.relations, problem.rhs.tolist()):
        row = np.array([a[col_var[k]] * col_sign[k] for k in range(ncols)])
        b = con_rhs - float(a @ offsets)
        scale = float(np.max(np.abs(row)))
        if scale <= 0.0:
            sat = (
                (relation == "<=" and b >= -FEAS_TOL)
                or (relation == ">=" and b <= FEAS_TOL)
                or (relation == "=" and abs(b) <= FEAS_TOL)
            )
            if not sat:
                return LpSolution("infeasible", nan_x, math.nan)
            continue
        rows.append(row / scale)
        rels.append(relation)
        rhs.append(b / scale)
    for k, ub in upper_rows:
        row = np.zeros(ncols)
        row[k] = 1.0
        scale = max(1.0, abs(ub))
        rows.append(row / scale)
        rels.append("<=")
        rhs.append(ub / scale)

    m = len(rows)
    A = np.array(rows) if m else np.zeros((0, ncols))
    b = np.array(rhs) if m else np.zeros(0)
    rel = list(rels)
    for i in range(m):
        if b[i] < 0.0:
            A[i] = -A[i]
            b[i] = -b[i]
            rel[i] = {"<=": ">=", ">=": "<=", "=": "="}[rel[i]]

    n_slack = sum(1 for r in rel if r == "<=")
    n_surplus = sum(1 for r in rel if r == ">=")
    n_art = sum(1 for r in rel if r in (">=", "="))
    a_at = ncols + n_slack + n_surplus
    total = a_at + n_art
    tableau = np.zeros((m + 1, total + 1))
    basis: list[int] = []
    art_cols: list[int] = []
    si = ti = ai = 0
    for i in range(m):
        tableau[i, :ncols] = A[i]
        tableau[i, -1] = b[i]
        if rel[i] == "<=":
            tableau[i, ncols + si] = 1.0
            basis.append(ncols + si)
            si += 1
        elif rel[i] == ">=":
            tableau[i, ncols + n_slack + ti] = -1.0
            tableau[i, a_at + ai] = 1.0
            basis.append(a_at + ai)
            art_cols.append(a_at + ai)
            ti += 1
            ai += 1
        else:
            tableau[i, a_at + ai] = 1.0
            basis.append(a_at + ai)
            art_cols.append(a_at + ai)
            ai += 1

    if n_art:
        # Phase 1: minimize the artificial sum.
        tableau[-1, :] = 0.0
        for c in art_cols:
            tableau[-1, c] = 1.0
        for i in range(m):
            if basis[i] in art_cols:
                tableau[-1] -= tableau[i]
        status = row_loop_run_simplex(tableau, basis)
        phase1 = -tableau[-1, -1]
        if status != "optimal" or phase1 > FEAS_TOL * (1.0 + float(np.max(b, initial=0.0))):
            return LpSolution("infeasible", nan_x, math.nan)
        # Drive leftover artificials out of the basis; rows where that is
        # impossible are redundant and dropped.
        keep: list[int] = []
        for i in range(m):
            if basis[i] in art_cols:
                pivot_col = -1
                for j in range(a_at):
                    if abs(tableau[i, j]) > PIVOT_TOL:
                        pivot_col = j
                        break
                if pivot_col >= 0:
                    row_loop_pivot(tableau, i, pivot_col)
                    basis[i] = pivot_col
                    keep.append(i)
            else:
                keep.append(i)
        tableau = np.vstack([tableau[keep], tableau[-1:]])
        basis = [basis[i] for i in keep]
        m = len(basis)
        tableau = np.hstack([tableau[:, :a_at], tableau[:, -1:]])

    # Phase 2: restore the true objective as reduced costs over the basis.
    tableau[-1, :] = 0.0
    tableau[-1, :ncols] = cvec
    for i in range(m):
        cb = cvec[basis[i]] if basis[i] < ncols else 0.0
        if cb != 0.0:
            tableau[-1] -= cb * tableau[i]
    status = row_loop_run_simplex(tableau, basis)
    if status == "unbounded":
        return LpSolution("unbounded", nan_x, -math.inf)

    y = np.zeros(tableau.shape[1] - 1)
    for i in range(m):
        y[basis[i]] = tableau[i, -1]
    x = offsets.copy()
    for k in range(ncols):
        x[col_var[k]] += col_sign[k] * y[k]
    objective_value = float(cobj @ x)
    return LpSolution("optimal", tuple(float(v) for v in x), objective_value)


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
    coeffs = list(problem.coeffs)
    senses = [_SENSE[relation] for relation in problem.relations]
    rhs = problem.rhs.tolist()
    for j, (lo, hi) in enumerate(problem.bounds.tolist()):
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
