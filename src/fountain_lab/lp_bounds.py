"""Linear-programming bounds on the rate needed to recover a fraction z.

One finite LP, the moment LP on the grid of [0, z] with z as last point,

      max  E[-log(1 - X)]   s.t.  X supported on the grid,
                                   E[X^(i-1)] <= 1/i  for i = 1..m,

brackets the least achievable rate r(z) over all degree distributions:

* its primal solution, scaled down until every moment row holds exactly in
  float64, is a feasible point whose value bounds r(z) from below for any
  grid;

* its row prices y(i) are the optimum of the dual LP
      min  a(1)+...+a(m)   s.t.  A'(t) + log(1-t) >= 0 on the grid,
  with a(i) = y(i)/i and A(t) = sum a(i) t^i. That design is checked on a
  10x finer grid with each local minimum of its margin refined, and inflated
  back to feasibility, so the reported rate is achievable between the check
  points too.

The LP is solved by column generation, an exchange method for the
semi-infinite LP behind it (Hettich & Kortanek, SIAM Review 35, 1993): a
dense tableau simplex solves it on a working set of grid points, and the
grid points its prices undervalue most join the set, until none is left.
The optimum has few atoms (6 to 14 up to z = 0.995), so the restricted LPs
stay small while the grid holds up to 10^5 points; the solver stays
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

# most moment rows, m = max_useful_degree(z), the LP may have: z up to
# 199/200. One solve took 0.13 s at m = 99 (z = 0.99) and 0.7 s at m = 199
# on grid 1e-3, 0.3 s and 2.5 s on grid 1e-4, and `bound` took 10 s and
# 206 MB at m = 199 on grid 1e-5 (2 vCPUs); m grows like 1/(1 - z)
MAX_LP_DEGREE = 199

STATUS_OPTIMAL = "optimal"
STATUS_UNBOUNDED = "unbounded"
STATUS_ITERATION_LIMIT = "iteration_limit"


@dataclass(frozen=True)
class LpProblem:
    """Dense LP: maximize objective . x subject to A x <= b, x >= 0, b >= 0."""

    objective: np.ndarray
    constraint_matrix: np.ndarray
    constraint_rhs: np.ndarray

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
        if (b < 0.0).any():
            raise ValueError("constraint_rhs must be >= 0, so that x = 0 is feasible")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "constraint_matrix", A)
        object.__setattr__(self, "constraint_rhs", b)


@dataclass(frozen=True)
class LpSolution:
    status: str
    objective_value: float
    variable_values: np.ndarray
    iterations: int
    dual_values: np.ndarray | None = None


def _entering(obj_row: np.ndarray, bland: bool) -> int | None:
    """Dantzig's most negative reduced cost, or Bland's first negative one."""
    if bland:
        candidates = np.nonzero(obj_row < -PIVOT_TOL)[0]
        return int(candidates[0]) if candidates.size else None
    col = int(np.argmin(obj_row))
    return col if obj_row[col] < -PIVOT_TOL else None


def _leaving(tableau: np.ndarray, col: int, basis: np.ndarray) -> int | None:
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


# consecutive degenerate pivots (leaving row at rhs <= PIVOT_TOL) after which
# the entering rule turns from Dantzig's to Bland's, until a pivot moves again
_DEGENERATE_RUN = 50


def simplex_solve(problem: LpProblem, max_iterations: int = 200_000) -> LpSolution:
    """Dense simplex started from the all-slack basis.

    b >= 0 makes x = 0 feasible, so one phase suffices. The entering column
    has the most negative reduced cost (Dantzig's rule); after _DEGENERATE_RUN
    degenerate pivots in a row it is the first negative one (Bland's rule)
    until a pivot leaves a row with positive rhs. Bland's rule cannot cycle
    and every other pivot raises the objective, so no basis repeats.
    Deterministic given the input. On status 'optimal' the solution is
    primal feasible within FEASIBILITY_TOL and no improving pivot exists;
    dual_values holds one price per constraint row, none below -PIVOT_TOL.
    """
    c, A = problem.objective, problem.constraint_matrix
    m, n = A.shape
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = A
    tableau[:m, n:-1] = np.eye(m)
    tableau[:m, -1] = problem.constraint_rhs
    tableau[-1, :n] = -c
    basis = np.arange(n, n + m)
    iterations = degenerate = 0
    status = STATUS_OPTIMAL
    while (col := _entering(tableau[-1, :-1], degenerate >= _DEGENERATE_RUN)) is not None:
        row = _leaving(tableau, col, basis)
        if row is None:
            status = STATUS_UNBOUNDED
            break
        iterations += 1
        if iterations > max_iterations:
            status = STATUS_ITERATION_LIMIT
            break
        degenerate = degenerate + 1 if tableau[row, -1] <= PIVOT_TOL else 0
        _pivot(tableau, basis, row, col)

    x_full = np.zeros(n + m)
    x_full[basis] = tableau[:m, -1]
    x = x_full[:n]
    if status == STATUS_OPTIMAL:
        residual = A @ x - problem.constraint_rhs
        if (residual > FEASIBILITY_TOL).any():
            i = int(np.argmax(residual > FEASIBILITY_TOL))
            raise RuntimeError(f"reported optimum violates row {i} by {float(residual[i])!r}")
    return LpSolution(
        status=status,
        objective_value=float(np.dot(c, x)),
        variable_values=x,
        iterations=iterations,
        dual_values=tableau[-1, n:-1].copy() if status == STATUS_OPTIMAL else None,
    )


# --- rate bounds ---


def validate_grid_step(grid_step: float) -> None:
    """Reject an LP grid step above 0.01 or one giving over MAX_LP_GRID_POINTS points."""
    if not 1.0 / MAX_LP_GRID_POINTS <= grid_step <= 0.01:
        raise ValueError(
            f"grid_step must lie in [{1 / MAX_LP_GRID_POINTS:g}, 0.01], got {grid_step!r}"
        )


def validate_target(z: float, grid_step: float) -> None:
    """Reject z outside (0, 1) or needing over MAX_LP_DEGREE rows, or a bad grid step."""
    if not 0.0 < z < 1.0:
        raise ValueError(f"z must lie in (0, 1), got {z!r}")
    m = max_useful_degree(z)
    if m > MAX_LP_DEGREE:
        raise ValueError(
            f"z={z!r} needs {m} moment rows, above MAX_LP_DEGREE = {MAX_LP_DEGREE}"
        )
    validate_grid_step(grid_step)


def _grid_closed(z: float, grid_step: float) -> np.ndarray:
    """Grid points j*grid_step inside [0, z), with z appended as final point."""
    pts = np.arange(0.0, z, grid_step)
    if pts.size and z - pts[-1] <= 1e-12:
        pts = pts[:-1]
    return np.append(pts, z)


def build_outer_bound_problem(
    z: float, grid_step: float = DEFAULT_LP_GRID_STEP
) -> tuple[LpProblem, np.ndarray]:
    """Moment LP for the outer bound; returns (problem, grid points)."""
    xs = _grid_closed(z, grid_step)
    m = max_useful_degree(z)
    objective = -np.log1p(-xs)
    rows = np.empty((m, xs.size))
    for i in range(1, m + 1):
        rows[i - 1] = xs ** (i - 1)
    rhs = np.array([1.0 / i for i in range(1, m + 1)])
    problem = LpProblem(objective=objective, constraint_matrix=rows, constraint_rhs=rhs)
    return problem, xs


def _solve_moment_lp(
    z: float, grid_step: float
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Solve the moment LP; returns (certified value, grid, masses, row prices).

    Column generation: each round solves, from scratch, the LP restricted to
    a working set W of grid points, then prices every grid point t by its
    reduced cost -log(1-t) - sum y(i) t^(i-1) and adds to W each local
    maximum of it above PIVOT_TOL. With none left, the prices y are optimal
    for the whole grid. The masses on W, zero elsewhere, are then scaled
    down until every moment row holds exactly in float64, and the value is
    theirs, so it is a lower bound on r(z) without the simplex's tolerance.
    """
    validate_target(z, grid_step)
    problem, xs = build_outer_bound_problem(z, grid_step)
    c, A, b = problem.objective, problem.constraint_matrix, problem.constraint_rhs
    exponents = np.arange(b.size)
    # about two points per moment row, evenly spaced, the first 0 and the last z
    working = np.zeros(xs.size, dtype=bool)
    working[np.linspace(0, xs.size - 1, 2 * b.size + 2).astype(np.intp)] = True
    while True:
        cols = np.flatnonzero(working)
        solution = simplex_solve(LpProblem(c[cols], A[:, cols], b))
        if solution.status != STATUS_OPTIMAL:
            raise RuntimeError(f"moment LP ended with status {solution.status}")
        reduced = c - _power_sum(exponents, solution.dual_values, xs)
        padded = np.concatenate(([-np.inf], reduced, [-np.inf]))
        peaks = (reduced > PIVOT_TOL) & (reduced >= padded[:-2]) & (reduced >= padded[2:])
        peaks &= ~working
        if not peaks.any():
            break
        working |= peaks
    masses = np.zeros(xs.size)
    masses[cols] = solution.variable_values
    moments = A @ masses
    while (over := moments > b).any():
        masses = masses * np.nextafter(float(np.min(b[over] / moments[over])), 0.0)
        moments = A @ masses
    value = float(np.dot(c, masses))
    return value, xs, masses, solution.dual_values


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
    """Outer bound plus the grid and the feasible masses that give it."""
    value, xs, masses, _ = _solve_moment_lp(z, grid_step)
    return value, xs, masses


# golden-section steps per refined local maximum of the design's ratio;
# each shrinks the bracket (two cells of the check grid, at most 2e-3 wide)
# by 0.618, so 25 steps leave it about 1e-8 wide. The ratio is flat to
# second order at its peak, so the value found is then exact to rounding
_GOLDEN_STEPS = 25
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _worst_ratio(z: float, grid_step: float, y: np.ndarray) -> float:
    """Largest -log(1-t)/A'(t) over (0, z], where A'(t) = sum y(i) t^(i-1).

    Evaluated on a grid ten times finer than the LP's. Each local maximum
    there is refined by golden-section search over its two neighbouring
    cells, all at once, so that a peak between grid points is not missed.
    """
    exponents = np.arange(y.size)

    def ratio(t: np.ndarray) -> np.ndarray:
        deriv = _power_sum(exponents, y, t)
        return np.where(deriv > 0.0, -np.log1p(-t) / np.maximum(deriv, 1e-300), np.inf)

    ts = _grid_closed(z, grid_step / 10.0)
    q = ratio(ts[1:])  # the constraint at t = 0 needs no rate
    padded = np.concatenate(([-np.inf], q, [-np.inf]))
    peak = np.nonzero((q >= padded[:-2]) & (q >= padded[2:]))[0] + 1
    lo, hi = ts[peak - 1], ts[np.minimum(peak + 1, ts.size - 1)]
    c, d = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    qc, qd = ratio(c), ratio(d)
    worst = max(float(q.max()), float(qc.max()), float(qd.max()))
    for _ in range(_GOLDEN_STEPS):
        left = qc >= qd  # the peak lies in [lo, d]; else in [c, hi]
        lo, hi = np.where(left, lo, c), np.where(left, d, hi)
        t = np.where(left, hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo))
        qt = ratio(t)
        worst = max(worst, float(qt.max()))
        c, d = np.where(left, t, d), np.where(left, c, t)
        qc, qd = np.where(left, qt, qd), np.where(left, qc, qt)
    return worst


def primal_min_r(
    z: float, grid_step: float = DEFAULT_LP_GRID_STEP
) -> tuple[DegreeDistribution, float]:
    """Cheapest distribution (on the grid) achieving recovery fraction z.

    Minimizes a(1)+...+a(m) over a(i) >= 0 subject to A'(t) + log(1-t) >= 0
    at every point of the moment LP's grid of [0, z], where
    A(t) = sum a(i) t^i and m = max_useful_degree(z). That LP is the dual of
    the moment LP, so a(i) = y(i)/i from the moment LP's row prices y(i);
    at z = 1/2, m = 1 and the design is all degree 1, as
    optimal_distribution documents. Because the grid leaves out the points
    between its own, the constraint is re-checked on a 10x finer grid, with
    each local minimum of the margin refined between its neighbours, and
    the design is scaled up by the smallest factor restoring feasibility at
    all those points and bringing its rate up to the certified lower bound.

    Returns (distribution with P(i) = a(i)/r, r = sum a(i)).
    """
    lower, _, _, prices = _solve_moment_lp(z, grid_step)
    y = np.clip(prices, 0.0, None)
    degrees = np.arange(1, y.size + 1)
    factor = max(1.0, _worst_ratio(z, grid_step, y))
    if not math.isfinite(factor):
        raise RuntimeError("moment LP gave an empty design")
    a = y / degrees
    a = a * max(factor, lower / float(a.sum()))
    # scaling a feasible design up keeps it feasible; max() covers rounding
    r = max(float(a.sum()), lower)
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
