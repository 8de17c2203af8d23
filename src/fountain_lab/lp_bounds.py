"""Linear-programming bounds on the rate needed to recover a fraction z.

Two finite LPs bracket the least achievable rate r(z) over all degree
distributions:

* an outer (lower) bound from the moment-constrained maximization
      max  E[-log(1 - X)]   s.t.  X supported on a grid of [0, z],
                                   E[X^(i-1)] <= 1/i  for i = 1..m,
  whose every feasible point is a valid lower bound for any grid;

* an upper value from minimizing a(1)+...+a(m) subject to
      A'(t) + log(1-t) >= 0 on a grid of [0, z),
  re-verified on a 10x finer grid and inflated back to feasibility, so the
  reported rate is a genuine achievable value for the discretization.

Both are solved by a dense tableau simplex with Bland's rule: the problem
sizes here (about a thousand variables against at most a dozen constraints,
or the transpose) are trivial for dense methods, and the solver stays
dependency-free and bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from . import CSV_FLOAT
from .degree_dist import DegreeDistribution, _power_sum, max_useful_degree

PIVOT_TOL = 1e-9
FEASIBILITY_TOL = 1e-9
DEFAULT_LP_GRID_STEP = 1e-3

# most points an LP grid may hold, so grid steps go down to 1e-5; the
# verification grid of primal_min_r is ten times finer
MAX_LP_GRID_POINTS = 10**5

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"
STATUS_ITERATION_LIMIT = "iteration_limit"


@dataclass(frozen=True)
class LpProblem:
    """Dense LP: optimize objective . x subject to row relations and x >= 0."""

    objective: np.ndarray
    constraint_matrix: np.ndarray
    constraint_rhs: np.ndarray
    sense: str = "maximize"
    row_relations: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        c = np.asarray(self.objective, dtype=np.float64)
        A = np.asarray(self.constraint_matrix, dtype=np.float64)
        b = np.asarray(self.constraint_rhs, dtype=np.float64)
        if A.ndim != 2 or c.ndim != 1 or b.ndim != 1:
            raise ValueError("objective/rhs must be vectors, matrix must be 2-D")
        if A.shape != (b.size, c.size):
            raise ValueError(f"inconsistent dimensions A{A.shape}, c({c.size}), b({b.size})")
        if not (np.isfinite(A).all() and np.isfinite(b).all() and np.isfinite(c).all()):
            raise ValueError("all LP entries must be finite")
        if self.sense not in ("maximize", "minimize"):
            raise ValueError(f"unknown sense {self.sense!r}")
        relations = self.row_relations or tuple("<=" for _ in range(b.size))
        if len(relations) != b.size:
            raise ValueError("one row relation per constraint required")
        for rel in relations:
            if rel not in ("<=", ">=", "="):
                raise ValueError(f"unknown row relation {rel!r}")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "constraint_matrix", A)
        object.__setattr__(self, "constraint_rhs", b)
        object.__setattr__(self, "row_relations", tuple(relations))


@dataclass(frozen=True)
class LpSolution:
    status: str
    objective_value: float
    variable_values: np.ndarray
    iterations: int
    dual_values: np.ndarray | None = None


def _bland_entering(obj_row: np.ndarray, allowed: np.ndarray) -> int | None:
    candidates = np.nonzero(allowed & (obj_row < -PIVOT_TOL))[0]
    return int(candidates[0]) if candidates.size else None


def _bland_leaving(tableau: np.ndarray, col: int, basis: np.ndarray) -> int | None:
    column = tableau[:-1, col]
    rhs = tableau[:-1, -1]
    rows = np.nonzero(column > PIVOT_TOL)[0]
    if rows.size == 0:
        return None
    ratios = rhs[rows] / column[rows]
    best = ratios.min()
    ties = rows[ratios <= best + PIVOT_TOL]
    # anti-cycling: among minimal ratios pick the smallest basis variable
    return int(ties[np.argmin(basis[ties])])


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0
    basis[row] = col


def simplex_solve(problem: LpProblem, max_iterations: int = 200_000) -> LpSolution:
    """Two-phase dense simplex with Bland's rule.

    Deterministic given the input. On status 'optimal' the solution is primal
    feasible within FEASIBILITY_TOL and no improving pivot exists; the
    objective value is reported in the problem's own sense. dual_values holds
    one multiplier per constraint row (prices of the canonical <=/=/>= form).
    """
    c_orig = problem.objective
    A = problem.constraint_matrix.copy()
    b = problem.constraint_rhs.copy()
    relations = list(problem.row_relations)
    n = c_orig.size
    m = b.size
    flip_obj = problem.sense == "minimize"
    c = -c_orig if flip_obj else c_orig.copy()

    # canonicalize: nonnegative rhs everywhere
    row_sign = np.ones(m)
    for i in range(m):
        if b[i] < 0.0:
            A[i] *= -1.0
            b[i] *= -1.0
            row_sign[i] = -1.0
            if relations[i] == "<=":
                relations[i] = ">="
            elif relations[i] == ">=":
                relations[i] = "<="

    # columns: n structural, then one slack/surplus per inequality row,
    # then artificials for >=/= rows
    slack_col = [-1] * m
    art_col = [-1] * m
    ncols = n
    for i in range(m):
        if relations[i] in ("<=", ">="):
            slack_col[i] = ncols
            ncols += 1
    art_rows = [i for i in range(m) if relations[i] in (">=", "=")]
    for i in art_rows:
        art_col[i] = ncols
        ncols += 1

    tableau = np.zeros((m + 1, ncols + 1))
    tableau[:m, :n] = A
    tableau[:m, -1] = b
    basis = np.empty(m, dtype=np.int64)
    for i in range(m):
        if relations[i] == "<=":
            tableau[i, slack_col[i]] = 1.0
            basis[i] = slack_col[i]
        elif relations[i] == ">=":
            tableau[i, slack_col[i]] = -1.0
            tableau[i, art_col[i]] = 1.0
            basis[i] = art_col[i]
        else:
            tableau[i, art_col[i]] = 1.0
            basis[i] = art_col[i]

    is_artificial = np.zeros(ncols, dtype=bool)
    for i in art_rows:
        is_artificial[art_col[i]] = True
    iterations = 0

    def run_phase(allowed: np.ndarray) -> str:
        nonlocal iterations
        while True:
            col = _bland_entering(tableau[-1, :-1], allowed)
            if col is None:
                return STATUS_OPTIMAL
            row = _bland_leaving(tableau, col, basis)
            if row is None:
                return STATUS_UNBOUNDED
            iterations += 1
            if iterations > max_iterations:
                return STATUS_ITERATION_LIMIT
            _pivot(tableau, basis, row, col)

    def set_objective_row(costs: np.ndarray) -> None:
        tableau[-1, :] = 0.0
        tableau[-1, :-1] = -costs
        for i in range(m):
            cb = costs[basis[i]]
            if cb != 0.0:
                tableau[-1] += cb * tableau[i]

    def extract() -> tuple[np.ndarray, np.ndarray]:
        x_full = np.zeros(ncols)
        x_full[basis] = tableau[:m, -1]
        duals = np.empty(m)
        for i in range(m):
            ref = slack_col[i] if slack_col[i] >= 0 else art_col[i]
            price = tableau[-1, ref]
            if slack_col[i] >= 0 and relations[i] == ">=":
                price = -price
            duals[i] = price * row_sign[i]
        if flip_obj:
            duals = -duals
        return x_full[:n], duals

    def finish(status: str) -> LpSolution:
        x, duals = extract()
        value = float(np.dot(c_orig, x))
        if status == STATUS_OPTIMAL:
            residual = problem.constraint_matrix @ x - problem.constraint_rhs
            for i, rel in enumerate(problem.row_relations):
                bad = (
                    (rel == "<=" and residual[i] > FEASIBILITY_TOL)
                    or (rel == ">=" and residual[i] < -FEASIBILITY_TOL)
                    or (rel == "=" and abs(residual[i]) > FEASIBILITY_TOL)
                )
                if bad:
                    raise RuntimeError(
                        f"reported optimum violates row {i} by {float(residual[i])!r}"
                    )
        return LpSolution(
            status=status,
            objective_value=value,
            variable_values=x,
            iterations=iterations,
            dual_values=duals if status == STATUS_OPTIMAL else None,
        )

    if art_rows:
        phase1_costs = np.where(is_artificial, -1.0, 0.0)
        set_objective_row(phase1_costs)
        status = run_phase(np.ones(ncols, dtype=bool))
        if status == STATUS_ITERATION_LIMIT:
            return finish(status)
        if tableau[-1, -1] < -1e-7:
            return LpSolution(
                status=STATUS_INFEASIBLE,
                objective_value=math.nan,
                variable_values=np.zeros(n),
                iterations=iterations,
            )
        # pivot lingering zero-level artificials out of the basis when possible
        for i in range(m):
            if is_artificial[basis[i]]:
                real = np.nonzero(~is_artificial[:ncols] & (np.abs(tableau[i, :-1]) > PIVOT_TOL))[0]
                if real.size:
                    _pivot(tableau, basis, i, int(real[0]))

    costs = np.zeros(ncols)
    costs[:n] = c
    set_objective_row(costs)
    status = run_phase(~is_artificial)
    return finish(status)


# --- rate bounds ---


def validate_grid_step(grid_step: float) -> None:
    """Reject an LP grid step above 0.01 or one giving over MAX_LP_GRID_POINTS points."""
    if not 1.0 / MAX_LP_GRID_POINTS <= grid_step <= 0.01:
        raise ValueError(
            f"grid_step must lie in [{1 / MAX_LP_GRID_POINTS:g}, 0.01], got {grid_step!r}"
        )


def _grid_closed(z: float, grid_step: float) -> np.ndarray:
    """Grid points j*grid_step inside [0, z), with z appended as final point."""
    pts = np.arange(0.0, z, grid_step)
    if pts.size and z - pts[-1] <= 1e-12:
        pts = pts[:-1]
    return np.append(pts, z)


def _grid_half_open(z: float, grid_step: float) -> np.ndarray:
    """Grid points j*grid_step with 0 <= j*grid_step < z."""
    n = int(math.floor(z / grid_step - 1e-12)) + 1
    pts = np.arange(n) * grid_step
    return pts[pts < z]


def build_outer_bound_problem(
    z: float, grid_step: float = DEFAULT_LP_GRID_STEP
) -> tuple[LpProblem, np.ndarray]:
    """Moment LP for the outer bound; returns (problem, grid points)."""
    xs = _grid_closed(z, grid_step)
    m = max_useful_degree(z)
    objective = -np.log1p(-xs)
    rows = np.vstack([xs ** (i - 1) for i in range(1, m + 1)])
    rhs = np.array([1.0 / i for i in range(1, m + 1)])
    problem = LpProblem(objective=objective, constraint_matrix=rows, constraint_rhs=rhs)
    return problem, xs


def dual_outer_bound(z: float, grid_step: float = DEFAULT_LP_GRID_STEP) -> float:
    """Lower bound on the least rate r(z) achievable by ANY distribution.

    Solves the moment LP on a grid of [0, z] (z included as the last point).
    Any feasible point of that LP bounds r(z) from below, so the value is a
    true outer bound regardless of grid resolution.
    """
    value, _, _ = dual_outer_bound_details(z, grid_step)
    return value


def dual_outer_bound_details(
    z: float, grid_step: float = DEFAULT_LP_GRID_STEP
) -> tuple[float, np.ndarray, np.ndarray]:
    """Outer bound plus the optimizing grid masses, for support inspection."""
    if not 0.0 < z <= 1.0 - 1e-9:
        raise ValueError(f"z must lie in (0, 1 - 1e-9], got {z!r}")
    validate_grid_step(grid_step)
    problem, xs = build_outer_bound_problem(z, grid_step)
    solution = simplex_solve(problem)
    if solution.status != STATUS_OPTIMAL:
        raise RuntimeError(f"outer bound LP ended with status {solution.status}")
    return solution.objective_value, xs, solution.variable_values


def primal_min_r(
    z: float,
    constraint_grid_step: float = DEFAULT_LP_GRID_STEP,
    support_limit: int | None = None,
) -> tuple[DegreeDistribution, float]:
    """Cheapest distribution (on the grid) achieving recovery fraction z.

    Minimizes a(1)+...+a(m) over a(i) >= 0 subject to
    A'(t) + log(1-t) >= 0 at every grid point of [0, z), where
    A(t) = sum a(i) t^i. Solved through its transpose (m constraints against
    ~z/step variables); the a(i) are recovered as the transpose's constraint
    prices. Because dropping constraints can let the discretized value dip
    below the true rate, the constraint is re-checked on a 10x finer grid and
    the solution is scaled up by the smallest factor restoring feasibility.
    Unless support_limit is given, the support is capped at
    m = max_useful_degree(z), so at z = 1/2 the design is all degree 1, as
    optimal_distribution documents.

    Returns (distribution with P(i) = a(i)/r, r = sum a(i)).
    """
    if not 0.0 < z < 1.0 - 1e-12:
        raise ValueError(f"z must lie in (0, 1), got {z!r}")
    validate_grid_step(constraint_grid_step)
    if z <= constraint_grid_step:
        raise ValueError("z must exceed the constraint grid step")
    m = support_limit if support_limit is not None else max_useful_degree(z)
    if m < 1:
        raise ValueError("support_limit must be >= 1")

    ts = _grid_half_open(z, constraint_grid_step)
    targets = -np.log1p(-ts)
    # transpose problem: max targets . y  s.t.  sum_j y_j * i * t_j^(i-1) <= 1
    rows = np.vstack([i * ts ** (i - 1) for i in range(1, m + 1)])
    problem = LpProblem(objective=targets, constraint_matrix=rows, constraint_rhs=np.ones(m))
    solution = simplex_solve(problem)
    if solution.status != STATUS_OPTIMAL:
        raise RuntimeError(f"rate LP ended with status {solution.status}")
    a = np.clip(solution.dual_values, 0.0, None)

    # re-verify on the closure [0, z]: the constraint is continuous, so
    # feasibility on [0, z) and on [0, z] coincide, and the closed endpoint
    # is where the binding ratio peaks
    fine = _grid_closed(z, constraint_grid_step / 10.0)[1:]  # t = 0 needs no rate
    degrees = np.arange(1, m + 1)
    deriv = _power_sum(degrees - 1, a * degrees, fine)
    needed = -np.log1p(-fine)
    ratio = np.where(deriv > 0.0, needed / np.maximum(deriv, 1e-300), np.inf)
    factor = max(1.0, float(ratio.max()))
    if not math.isfinite(factor):
        raise RuntimeError("rate LP produced an empty design")
    a = a * factor
    r = float(a.sum())
    masses = {int(i): float(a[i - 1] / r) for i in degrees if a[i - 1] / r > 1e-15}
    dist = DegreeDistribution.from_mapping(masses, label=f"lp_design(z={z:g})")
    return dist, r


@dataclass(frozen=True)
class BoundRow:
    z: float
    r_lower_dual: float
    r_upper_primal: float
    m: int

    def __post_init__(self) -> None:
        if self.r_lower_dual > self.r_upper_primal + 1e-6:
            raise ValueError(
                f"lower bound {self.r_lower_dual!r} exceeds upper value "
                f"{self.r_upper_primal!r} at z={self.z!r}"
            )
        if (self.m - 1) / self.m > self.z + 1e-12 or self.z > self.m / (self.m + 1) + 1e-12:
            raise ValueError(f"m={self.m} inconsistent with z={self.z!r}")


@dataclass(frozen=True)
class BoundCurve:
    rows: tuple[BoundRow, ...]
    grid_step: float

    def write_csv(self, dest: IO[str]) -> None:
        dest.write("z,r_lower,r_upper,m\n")
        for row in self.rows:
            dest.write(
                f"{CSV_FLOAT % row.z},{CSV_FLOAT % row.r_lower_dual},"
                f"{CSV_FLOAT % row.r_upper_primal},{row.m}\n"
            )


def outer_bound_curve(
    z_values: Sequence[float], grid_step: float = DEFAULT_LP_GRID_STEP
) -> BoundCurve:
    """Outer bound and primal value for each z, in input order."""
    rows = []
    for z in z_values:
        lower = dual_outer_bound(z, grid_step)
        _, upper = primal_min_r(z, grid_step)
        rows.append(BoundRow(z=z, r_lower_dual=lower, r_upper_primal=upper, m=max_useful_degree(z)))
    return BoundCurve(rows=tuple(rows), grid_step=grid_step)
