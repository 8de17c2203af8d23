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
  with a(i) = y(i)/i and A(t) = sum a(i) t^i. That design is inflated by
  an upper bound on -log(1-t)/A'(t) over all of (0, z], proved cell by cell
  in closed form from a Taylor bound of each side, so the reported rate is
  achievable on the continuum, not just on the grid. That bound is
  asymptotics._ratio_bound, by which the asymptotic scan clears its Taylor
  cells.

The LP is solved by column generation, an exchange method for the
semi-infinite LP behind it (Hettich & Kortanek, SIAM Review 35, 1993): a
dense tableau simplex with steepest-edge pricing solves it on a working set
of grid points, and every grid point its prices undervalue joins the set,
until none is left: at most 4 rounds up to z = 0.995 at grids 1e-3 and
1e-4. Each round's simplex starts from the previous round's final tableau.
Columns are built for the working set only, never for the whole grid.
Only the active rows carry a price, so the pricing and the design check
sum A'(t) over the nonzero prices alone. The optimum has few atoms (6 to
14 up to z = 0.995), so the restricted LPs stay small while the grid holds
up to 10^5 points; the solver stays dependency-free and bit-reproducible.
"""

from __future__ import annotations

import functools
import math
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import IO, Callable, Sequence

import numpy as np

from . import CSV_FLOAT
from .asymptotics import _grid_closed, _ratio_bound
from .degree_dist import DegreeDistribution, _power_sum, max_useful_degree

PIVOT_TOL = 1e-9
FEASIBILITY_TOL = 1e-9
DEFAULT_LP_GRID_STEP = 1e-3

# most points an LP grid may hold, so grid steps go down to 1e-5
MAX_LP_GRID_POINTS = 10**5

# most moment rows, m = max_useful_degree(z), the LP may have: z up to
# 199/200. One solve took 0.014 s at m = 99 (z = 0.99) and 0.06 s at m = 199
# on grid 1e-3, 0.02 s and 0.10 s on grid 1e-4, and `bound` took 0.7 s and
# 70 MB at m = 199 on grid 1e-5 (2 vCPUs, best of 3); m grows like 1/(1 - z)
MAX_LP_DEGREE = 199

# pivots after which simplex_solve gives up on one restricted LP
MAX_ITERATIONS = 200_000


@dataclass(frozen=True)
class LpSolution:
    """Optimal point x, row prices y and pivot count of one simplex solve,
    with the final tableau and basis, from which a later solve can start."""

    x: np.ndarray
    y: np.ndarray
    iterations: int
    tableau: np.ndarray = field(repr=False)
    basis: np.ndarray = field(repr=False)


def _entering(tableau: np.ndarray, bland: bool) -> int | None:
    """The steepest edge among the negative reduced costs, or Bland's first one.

    The steepest edge is the most negative reduced cost d(j) divided by
    sqrt(1 + |B^-1 a(j)|^2), the length of the edge that column j opens,
    with B^-1 a(j) read from the tableau column (Forrest & Goldfarb, Math.
    Programming 57, 1992).
    """
    candidates = np.flatnonzero(tableau[-1, :-1] < -PIVOT_TOL)
    if not candidates.size:
        return None
    if bland:
        return int(candidates[0])
    columns = tableau[:-1, candidates]
    edges = tableau[-1, candidates] / np.sqrt(1.0 + np.einsum("ij,ij->j", columns, columns))
    return int(candidates[np.argmin(edges)])


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
# the entering rule turns from the steepest edge to Bland's, until a pivot
# moves again
_DEGENERATE_RUN = 50


def simplex_solve(
    c: np.ndarray, A: np.ndarray, b: np.ndarray, start: LpSolution | None = None
) -> LpSolution:
    """Maximize c.x subject to A x <= b, x >= 0, for b >= 0: a dense simplex.

    b >= 0 makes the all-slack basis x = 0 feasible, so one phase suffices.
    A start, the solution of the same LP on the first columns of A, replaces
    that basis by its final one: each further column a(j) enters the start's
    tableau as B^-1 a(j), read from its slack block, with reduced cost
    y.a(j) - c(j), so only the pivots the new columns open up are made.
    The entering column is the steepest edge: the most negative reduced cost
    over the length of the edge it opens (see _entering). After
    _DEGENERATE_RUN degenerate pivots in a row it is the first negative one
    (Bland's rule) until a pivot leaves a row with positive rhs. Bland's
    rule cannot cycle and every other pivot raises the objective, so no basis
    repeats. Deterministic given the input. The returned x is feasible
    within FEASIBILITY_TOL and admits no improving pivot; y holds one price
    per row, none below -PIVOT_TOL. Raises RuntimeError, naming the status,
    when the LP is unbounded or needs over MAX_ITERATIONS pivots, and when
    the optimum found violates a row.
    """
    m, n = A.shape
    tableau = np.zeros((m + 1, n + m + 1))
    if start is None:
        tableau[:m, :n] = A
        tableau[:m, n:-1] = np.eye(m)
        tableau[:m, -1] = b
        tableau[-1, :n] = -c
        basis = np.arange(n, n + m)
    else:
        old = start.x.size
        # the slack block holds B^-1 over the prices y
        tableau[:, :old] = start.tableau[:, :old]
        tableau[:, old:n] = start.tableau[:, old:-1] @ A[:, old:]
        tableau[-1, old:n] -= c[old:]
        tableau[:, n:] = start.tableau[:, old:]
        basis = np.where(start.basis >= old, start.basis + (n - old), start.basis)
    iterations = degenerate = 0
    while (col := _entering(tableau, degenerate >= _DEGENERATE_RUN)) is not None:
        row = _leaving(tableau, col, basis)
        if row is None:
            raise RuntimeError("simplex ended with status unbounded")
        iterations += 1
        if iterations > MAX_ITERATIONS:
            raise RuntimeError("simplex ended with status iteration_limit")
        degenerate = degenerate + 1 if tableau[row, -1] <= PIVOT_TOL else 0
        _pivot(tableau, basis, row, col)

    x_full = np.zeros(n + m)
    x_full[basis] = tableau[:m, -1]
    x = x_full[:n]
    residual = A @ x - b
    if (residual > FEASIBILITY_TOL).any():
        i = int(np.argmax(residual > FEASIBILITY_TOL))
        raise RuntimeError(f"reported optimum violates row {i} by {float(residual[i])!r}")
    return LpSolution(
        x=x, y=tableau[-1, n:-1].copy(), iterations=iterations, tableau=tableau, basis=basis
    )


# --- rate bounds ---


def validate_grid_step(grid_step: float) -> None:
    """Reject an LP grid step above 0.01 or one giving over MAX_LP_GRID_POINTS points."""
    if not 1.0 / MAX_LP_GRID_POINTS <= grid_step <= 0.01:
        raise ValueError(
            f"grid_step must lie in [{1 / MAX_LP_GRID_POINTS:g}, 0.01], got {grid_step!r}"
        )


def validate_target(z: float, grid_step: float) -> None:
    """Reject z outside (0, 1) or needing over MAX_LP_DEGREE rows, or a bad grid step.

    Also a z whose objective -log(1-z) is at most PIVOT_TOL (z below about
    1e-9): no reduced cost of the moment LP can exceed that tolerance, so
    the simplex would price no point and leave an empty design.
    """
    if not 0.0 < z < 1.0:
        raise ValueError(f"z must lie in (0, 1), got {z!r}")
    if -math.log1p(-z) <= PIVOT_TOL:
        raise ValueError(
            f"z={z!r} is too small: -log(1-z) is within PIVOT_TOL = {PIVOT_TOL:g} of 0"
        )
    m = max_useful_degree(z)
    if m > MAX_LP_DEGREE:
        raise ValueError(
            f"z={z!r} needs {m} moment rows, above MAX_LP_DEGREE = {MAX_LP_DEGREE}"
        )
    validate_grid_step(grid_step)


def build_outer_bound_problem(
    z: float, grid_step: float = DEFAULT_LP_GRID_STEP
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Moment LP for the outer bound: (grid points, objective, moment rhs)."""
    xs = _grid_closed(z, grid_step)
    m = max_useful_degree(z)
    return xs, -np.log1p(-xs), 1.0 / np.arange(1, m + 1)


def _moment_columns(ts: np.ndarray, m: int) -> np.ndarray:
    """Rows t^0 .. t^(m-1) at the points ts: the LP's columns for them."""
    # one power per row: numpy squares for t^2, which a broadcast power may not
    return np.array([ts**i for i in range(m)])


def _solve_moment_lp(
    z: float, grid_step: float
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Solve the moment LP; returns (certified value, grid, masses, row prices).

    Column generation: each round solves the LP restricted to a working set
    W of grid points, starting from the previous round's final basis, then
    prices every grid point t by its reduced cost
    -log(1-t) - sum y(i) t^(i-1), summed over the nonzero prices only
    (the active rows: 6 of 19 at z = 0.95), and adds to W every grid point
    outside it whose reduced cost exceeds PIVOT_TOL, so a round brings in
    each contact point's whole neighbourhood at once. With none left, the
    prices y are optimal for the whole grid. The masses on W, zero
    elsewhere, are then scaled down until every moment row holds exactly in
    float64 on their support, taken in grid order, and the value is theirs,
    so it is a lower bound on r(z) without the simplex's tolerance.
    """
    validate_target(z, grid_step)
    xs, c, b = build_outer_bound_problem(z, grid_step)
    # about two points per moment row, evenly spaced, the first 0 and the last z
    working = np.zeros(xs.size, dtype=bool)
    working[np.linspace(0, xs.size - 1, 2 * b.size + 2).astype(np.intp)] = True
    cols = np.flatnonzero(working)
    solution = None
    while True:
        # W in the order its points joined, so each round extends the last LP
        solution = simplex_solve(c[cols], _moment_columns(xs[cols], b.size), b, solution)
        priced = np.flatnonzero(solution.y)
        reduced = c - _power_sum(priced, solution.y[priced], xs) if priced.size else c
        entering = np.flatnonzero((reduced > PIVOT_TOL) & ~working)
        if not entering.size:
            break
        working[entering] = True
        cols = np.concatenate((cols, entering))
    nonzero = solution.x != 0.0
    order = np.argsort(cols[nonzero])
    support, weights = cols[nonzero][order], solution.x[nonzero][order]
    rows = _moment_columns(xs[support], b.size)
    moments = rows @ weights
    while (over := moments > b).any():
        weights = weights * np.nextafter(float(np.min(b[over] / moments[over])), 0.0)
        moments = rows @ weights
    masses = np.zeros(xs.size)
    masses[support] = weights
    return float(np.dot(c[support], weights)), xs, masses, solution.y


# within one outer_bound_curve call, _solve_moment_lp keeping its last solve,
# so that dual_outer_bound and primal_min_r of one z share it; else None
_CURVE_SOLVE: ContextVar[Callable | None] = ContextVar("_CURVE_SOLVE", default=None)


def _moment_lp(z: float, grid_step: float) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """_solve_moment_lp(z, grid_step), solved once per z within outer_bound_curve."""
    return (_CURVE_SOLVE.get() or _solve_moment_lp)(z, grid_step)


def dual_outer_bound(z: float, grid_step: float = DEFAULT_LP_GRID_STEP) -> float:
    """Lower bound on the least rate r(z) achievable by ANY distribution.

    Solves the moment LP on a grid of [0, z] (z included as the last point).
    Any feasible point of that LP bounds r(z) from below, so the value is a
    true outer bound regardless of grid resolution.
    """
    return _moment_lp(z, grid_step)[0]


def dual_outer_bound_details(
    z: float, grid_step: float = DEFAULT_LP_GRID_STEP
) -> tuple[float, np.ndarray, np.ndarray]:
    """Outer bound plus the grid and the feasible masses that give it."""
    value, xs, masses, _ = _moment_lp(z, grid_step)
    return value, xs, masses


# width of the design check's cells in -log(1 - t): a cell starting at a is
# about _CELL_WIDTH * (1 - a) wide. The bound's excess over the ratio grows
# like the width cubed; over z in {0.3, 0.55, 0.6, ..., 0.95, 0.975, 0.98,
# 0.99, 0.995} at grids 1e-2, 5e-3, 1e-3 and 1e-4 it was at most 2.2e-9,
# 9.2e-9 and 2.4e-8 of a dense 10^6-point maximum at widths 5e-4, 7.5e-4
# and 1e-3, and never below it
_CELL_WIDTH = 7.5e-4


def _worst_ratio(z: float, y: np.ndarray) -> float:
    """An upper bound on -log(1-t)/A'(t) over (0, z], where A'(t) = sum y(i) t^(i-1).

    The largest of asymptotics._ratio_bound's closed-form bounds on cells
    of equal width _CELL_WIDTH in -log(1 - t) from 0 to z, over the nonzero
    prices alone; inf without any.
    """
    priced = np.flatnonzero(y)
    if not priced.size:
        return math.inf
    ends = -np.expm1(-_CELL_WIDTH * np.arange(math.ceil(-math.log1p(-z) / _CELL_WIDTH)))
    ends = np.append(ends[ends < z], z)
    return float(np.max(_ratio_bound(priced, y[priced], ends[:-1], ends[1:])))


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
    between its own, the design is scaled up by an upper bound on
    -log(1-t)/A'(t) over all of (0, z] (_worst_ratio, the largest of
    asymptotics._ratio_bound's cell bounds), which makes it feasible on the
    whole interval, and at least to the certified lower bound.

    Returns (distribution with P(i) = a(i)/r, r = sum a(i)).
    """
    lower, _, _, prices = _moment_lp(z, grid_step)
    y = np.clip(prices, 0.0, None)
    degrees = np.arange(1, y.size + 1)
    factor = max(1.0, _worst_ratio(z, y))
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
        if self.r_lower_dual > self.r_upper_primal:
            raise ValueError(
                f"lower bound {self.r_lower_dual!r} exceeds upper value "
                f"{self.r_upper_primal!r} at z={self.z!r}"
            )
        if (self.m - 1) / self.m > self.z + 1e-12 or self.z > self.m / (self.m + 1) + 1e-12:
            raise ValueError(f"m={self.m} inconsistent with z={self.z!r}")


@dataclass(frozen=True)
class BoundCurve:
    rows: tuple[BoundRow, ...]

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
    """Outer bound and primal value for each z, in input order.

    Both come from one moment-LP solve per z, kept only for this call.
    """
    rows = []
    token = _CURVE_SOLVE.set(functools.lru_cache(maxsize=1)(_solve_moment_lp))
    try:
        for z in z_values:
            lower = dual_outer_bound(z, grid_step)
            _, upper = primal_min_r(z, grid_step)
            rows.append(
                BoundRow(z=z, r_lower_dual=lower, r_upper_primal=upper, m=max_useful_degree(z))
            )
    finally:
        _CURVE_SOLVE.reset(token)
    return BoundCurve(rows=tuple(rows))
