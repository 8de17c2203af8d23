import io
import math
import tracemalloc

import numpy as np
import pytest

from fountain_lab import (
    BoundRow,
    DegreeDistribution,
    dual_outer_bound,
    dual_outer_bound_details,
    ideal_soliton,
    max_useful_degree,
    outer_bound_curve,
    pgf_derivative,
    primal_min_r,
    r_of_z,
    raptor_omega,
    robust_soliton,
    s_of_r,
    truncated_soliton,
)
from fountain_lab import degree_dist, lp_bounds
from fountain_lab.degree_dist import _power_sum
from fountain_lab.asymptotics import _rate_ratio
from fountain_lab.lp_bounds import (
    PIVOT_TOL,
    _moment_columns,
    _solve_moment_lp,
    _worst_ratio,
    build_outer_bound_problem,
    simplex_solve,
)


def known_region_rate(z):
    return -math.log1p(-z) / (2.0 * z) if z > 0.5 else -math.log1p(-z)


# --- simplex ---

def test_simplex_box():
    sol = simplex_solve(np.array([1.0]), np.array([[1.0]]), np.array([1.0]))
    assert float(sol.x[0]) == pytest.approx(1.0, abs=1e-12)


def test_simplex_two_variable_vertex():
    sol = simplex_solve(np.array([1.0, 1.0]), np.array([[1.0, 2.0], [3.0, 1.0]]),
                        np.array([4.0, 6.0]))
    # optimum at the constraint intersection (1.6, 1.2)
    assert sol.x == pytest.approx([1.6, 1.2], abs=1e-9)
    assert float(sol.x.sum()) == pytest.approx(2.8, abs=1e-9)


def test_simplex_unbounded():
    with pytest.raises(RuntimeError, match="unbounded"):
        simplex_solve(np.array([1.0]), np.array([[-1.0]]), np.array([1.0]))


def test_simplex_iteration_limit(monkeypatch):
    monkeypatch.setattr(lp_bounds, "MAX_ITERATIONS", 1)
    with pytest.raises(RuntimeError, match="iteration_limit"):
        simplex_solve(np.array([1.0, 1.0]), np.array([[1.0, 2.0], [3.0, 1.0]]),
                      np.array([4.0, 6.0]))


def test_simplex_solves_beales_cycling_example():
    # Dantzig's most negative reduced cost cycles through six degenerate
    # bases here forever; the steepest edge leaves them in 3 pivots, and the
    # switch to Bland's rule after a run of degenerate pivots would end any
    # cycle the steepest edge fell into
    c = np.array([0.75, -20.0, 0.5, -6.0])
    sol = simplex_solve(c,
                        np.array([[0.25, -8.0, -1.0, 9.0],
                                  [0.5, -12.0, -0.5, 3.0],
                                  [0.0, 0.0, 1.0, 0.0]]),
                        np.array([0.0, 0.0, 1.0]))
    assert float(c @ sol.x) == pytest.approx(1.25, abs=1e-12)
    assert sol.x == pytest.approx([1.0, 0.0, 1.0, 0.0], abs=1e-12)


def test_simplex_blands_rule_alone_solves_beales_example(monkeypatch):
    # Bland's rule from the first pivot on: the steepest edge solves Beale's
    # LP before the fallback starts, so this is where the fallback is tested
    monkeypatch.setattr(lp_bounds, "_DEGENERATE_RUN", 0)
    c = np.array([0.75, -20.0, 0.5, -6.0])
    sol = simplex_solve(c,
                        np.array([[0.25, -8.0, -1.0, 9.0],
                                  [0.5, -12.0, -0.5, 3.0],
                                  [0.0, 0.0, 1.0, 0.0]]),
                        np.array([0.0, 0.0, 1.0]))
    assert sol.x == pytest.approx([1.0, 0.0, 1.0, 0.0], abs=1e-12)


def test_simplex_against_scipy_oracle():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(1234)
    agreements = unbounded = 0
    for _ in range(60):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        A = rng.normal(size=(m, n)).round(3)
        b = np.abs(rng.normal(scale=2.0, size=m)).round(3)
        c = rng.normal(size=n).round(3)
        ref = scipy_opt.linprog(-c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
        if ref.status == 0:
            ours = simplex_solve(c, A, b)
            assert float(c @ ours.x) == pytest.approx(-ref.fun, abs=1e-7)
            agreements += 1
        else:
            assert ref.status == 3, ref.message  # x = 0 is feasible when b >= 0
            with pytest.raises(RuntimeError, match="unbounded"):
                simplex_solve(c, A, b)
            unbounded += 1
    assert agreements >= 10  # the sample must contain real optima
    assert unbounded >= 1


def test_simplex_dual_values_certify_optimum():
    # duals of max c.x s.t. Ax <= b: nonnegative, dual-feasible, zero gap
    rng = np.random.default_rng(77)
    for _ in range(20):
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        A = np.abs(rng.normal(size=(m, n))) + 0.1
        b = np.abs(rng.normal(size=m)) + 0.5
        c = np.abs(rng.normal(size=n))
        sol = simplex_solve(c, A, b)
        assert (sol.y >= -1e-9).all()
        assert (A.T @ sol.y >= c - 1e-8).all()
        assert float(sol.y @ b) == pytest.approx(float(c @ sol.x), abs=1e-8)


def test_simplex_warm_start_matches_cold_solve():
    # columns appended to a solved LP enter its final tableau; the warm
    # start must reach the cold solve's optimum with dual-feasible prices
    rng = np.random.default_rng(4321)
    agreements = unbounded = idle = 0
    for _ in range(100):
        n0, m = (int(v) for v in rng.integers(1, 7, size=2))
        extra = int(rng.integers(0, 7))
        A = rng.normal(size=(m, n0 + extra)).round(3)
        b = np.abs(rng.normal(scale=2.0, size=m)).round(3)
        c = rng.normal(size=n0 + extra).round(3)
        try:
            first = simplex_solve(c[:n0], A[:, :n0], b)
        except RuntimeError:
            continue  # unbounded already on the first columns
        try:
            cold = simplex_solve(c, A, b)
        except RuntimeError as exc:
            assert "unbounded" in str(exc)
            with pytest.raises(RuntimeError, match="unbounded"):
                simplex_solve(c, A, b, first)
            unbounded += 1
            continue
        warm = simplex_solve(c, A, b, first)
        if extra == 0:  # nothing new to price in
            assert warm.iterations == 0 and (warm.x == first.x).all()
            idle += 1
        assert float(c @ warm.x) == pytest.approx(float(c @ cold.x), abs=1e-9)
        assert (A @ warm.x <= b + 1e-9).all() and (warm.x >= 0.0).all()
        assert (warm.y >= -1e-9).all()
        assert (A.T @ warm.y >= c - 1e-8).all()
        assert float(warm.y @ b) == pytest.approx(float(c @ warm.x), abs=1e-8)
        agreements += 1
    assert agreements >= 30 and unbounded >= 1 and idle >= 1


# --- outer bound (moment LP) ---

def test_dual_outer_bound_small_targets():
    assert dual_outer_bound(0.3) == pytest.approx(-math.log1p(-0.3), abs=1e-9)
    assert dual_outer_bound(0.5) == pytest.approx(math.log(2.0), abs=1e-9)


def test_dual_outer_bound_known_region():
    value = dual_outer_bound(0.6)
    assert 0.7625 <= value <= 0.763576 + 1e-9
    assert value == pytest.approx(known_region_rate(0.6), abs=1e-9)
    value = dual_outer_bound(2.0 / 3.0)
    assert 0.8229 <= value <= 0.823960
    assert value == pytest.approx(0.75 * math.log(3.0), abs=2e-3)


def test_dual_outer_bound_validates():
    with pytest.raises(ValueError):
        dual_outer_bound(1.0)
    with pytest.raises(ValueError):
        dual_outer_bound(0.5, grid_step=0.5)


def test_dual_solution_support_is_inspectable():
    value, xs, masses = dual_outer_bound_details(0.75)
    assert value == pytest.approx(dual_outer_bound(0.75), abs=1e-12)
    assert xs[-1] == pytest.approx(0.75, abs=1e-15)
    support = xs[masses > 1e-9]
    assert support.size >= 2  # mass spreads beyond a single point here


def test_moment_constraints_certified_by_explicit_point():
    # the two-point distribution with mass 1/(2z) at z is feasible for the
    # moment LP and achieves -log(1-z)/(2z) exactly on z in [1/2, 2/3]
    for z in np.linspace(0.5, 2.0 / 3.0, 7):
        xs, objective, rhs = build_outer_bound_problem(float(z))
        f = np.zeros_like(xs)
        f[0] = 1.0 - 1.0 / (2.0 * z)
        f[-1] = 1.0 / (2.0 * z)
        residual = _moment_columns(xs, rhs.size) @ f - rhs
        assert (residual <= 1e-12).all()
        assert float(objective @ f) == pytest.approx(known_region_rate(float(z)), abs=1e-12)
        assert dual_outer_bound(float(z)) >= float(objective @ f) - 1e-9


def test_moment_lp_memory_stays_small():
    # only the working set's columns are built, never the m x N moment
    # matrix (19 rows x 95,001 grid points, 14 MB, here); the peak is 3.7 MB
    tracemalloc.start()
    try:
        dual_outer_bound(0.95, 1e-5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak / 2**20


# --- primal (cheapest distribution) ---

def test_primal_min_r_examples():
    dist, r = primal_min_r(0.3)
    assert dist.as_dict() == {1: 1.0}
    assert r == pytest.approx(0.356675, abs=5e-4)
    dist, r = primal_min_r(0.6)
    assert dist.as_dict() == {2: 1.0}
    assert r == pytest.approx(0.763576, abs=2e-3)
    dist, r = primal_min_r(0.75)
    assert dual_outer_bound(0.75) - 1e-9 <= r <= 0.877065


def test_primal_min_r_validates():
    with pytest.raises(ValueError):
        primal_min_r(0.0)
    with pytest.raises(ValueError):
        primal_min_r(1.0)


def test_primal_min_r_just_above_one_half():
    # the grid closes at z, so degree 2 wins as soon as z > 1/2
    z = 0.5005
    dist, r = primal_min_r(z, 1e-3)
    assert dist.support == (2,)
    assert dist.mass(2) == pytest.approx(1.0, abs=1e-12)
    assert r == pytest.approx(known_region_rate(z), abs=1e-9)


def test_upper_never_below_certified_lower():
    zs = [round(0.01 * j, 2) for j in range(2, 97)] + [2.0 / 3.0, 0.4995, 0.5005]
    for z in zs:
        assert primal_min_r(z)[1] >= dual_outer_bound(z), z


def test_bracket_is_tight_above_two_thirds():
    for z in (0.7, 0.75, 0.8, 0.85, 0.9, 0.95):
        lower = dual_outer_bound(z, 1e-3)
        _, upper = primal_min_r(z, 1e-3)
        assert (upper - lower) / lower <= 1e-5, z


def test_design_holds_between_check_points():
    # a coarse grid leaves room for the margin to dip between its points;
    # the design is certified on all of [0, z], and a million points of
    # [0, z] would see a dip
    cases = [(z, 1e-2) for z in (0.75, 0.9, 0.95, 0.96, 0.97, 0.98)]
    cases += [(z, step) for step in (5e-3, 1e-3) for z in (0.75, 0.9, 0.95)]
    cases += [(0.985, 1e-2), (0.99, 5e-3)]
    for z, step in cases:
        dist, r = primal_min_r(z, step)
        ts = np.linspace(0.0, z, 10**6)
        margin = r * pgf_derivative(dist, ts) + np.log1p(-ts)
        worst = int(np.argmin(margin))
        assert margin[worst] >= -1e-12, (z, step, ts[worst], margin[worst])


def test_outer_masses_hold_every_moment_row_exactly():
    for z in (0.3, 0.6, 0.75, 0.9, 0.95):
        xs, objective, rhs = build_outer_bound_problem(z)
        value, _, masses = dual_outer_bound_details(z)
        assert (masses >= 0.0).all()
        support = masses > 0.0
        rows = _moment_columns(xs[support], rhs.size)
        assert (rows @ masses[support] <= rhs).all(), z
        assert value == float(np.dot(objective[support], masses[support]))


def count_simplex_calls(monkeypatch):
    """Wrap lp_bounds.simplex_solve; returns the list of each call's pivots."""
    pivots = []
    solve = lp_bounds.simplex_solve

    def counted(*args):
        solution = solve(*args)
        pivots.append(solution.iterations)
        return solution

    monkeypatch.setattr(lp_bounds, "simplex_solve", counted)
    return pivots


def test_warm_started_rounds_stay_within_pivot_budget(monkeypatch):
    # restarting every round from the slack basis took 6,516 pivots here,
    # over 1,000 in each of six rounds; the warm start redoes none of them
    pivots = count_simplex_calls(monkeypatch)
    _solve_moment_lp(0.995, 1e-4)
    assert len(pivots) >= 2
    assert sum(pivots) <= 1500, pivots


# the z values of BOUND_GOLDEN below
GOLDEN_ZS = [0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 0.975, 0.98, 0.99, 0.995]


@pytest.mark.parametrize("step", [1e-3, 1e-4])
def test_exchange_rounds_stay_few(monkeypatch, step):
    # each round adds every undervalued grid point, so a contact point's
    # neighbourhood enters at once, not by bisection over many rounds
    pivots = count_simplex_calls(monkeypatch)
    for z in GOLDEN_ZS:
        pivots.clear()
        _solve_moment_lp(z, step)
        assert 1 <= len(pivots) <= 4, (z, step, pivots)


@pytest.mark.parametrize("step", [1e-3, 1e-4])
def test_steepest_edge_pivots_in_proportion_to_the_atoms(monkeypatch, step):
    # the optimum has 14 atoms, and the steepest edge makes about 250
    # pivots for them; the most negative reduced cost made over 1,100
    pivots = count_simplex_calls(monkeypatch)
    _solve_moment_lp(0.995, step)
    assert sum(pivots) <= 400, pivots


def test_bound_curve_solves_once_per_z(monkeypatch):
    cases = [0.75, 0.95]
    pivots = count_simplex_calls(monkeypatch)
    rounds = []
    for z in cases:
        pivots.clear()
        _solve_moment_lp(z, 1e-3)
        rounds.append(len(pivots))
    assert rounds[1] > 1  # several column-generation rounds per solve
    for _ in range(2):  # a second call keeps nothing from the first
        pivots.clear()
        curve = outer_bound_curve(cases, 1e-3)
        assert len(pivots) == sum(rounds)
    pivots.clear()  # nor does a call outside outer_bound_curve
    dual_outer_bound(cases[-1], 1e-3)
    assert len(pivots) == rounds[-1]
    for row in curve.rows:
        assert row.r_lower_dual == dual_outer_bound(row.z, 1e-3)
        assert row.r_upper_primal == primal_min_r(row.z, 1e-3)[1]


def test_moment_lp_against_scipy_oracle():
    scipy_opt = pytest.importorskip("scipy.optimize")
    cases = [(z, 1e-3) for z in (0.75, 0.9, 0.95, 0.975, 0.98, 0.985, 0.99, 0.995)]
    cases += [(0.98, 5e-3), (0.985, 1e-2)]
    for z, step in cases:
        xs, objective, rhs = build_outer_bound_problem(z, step)
        ref = scipy_opt.linprog(-objective, A_ub=_moment_columns(xs, rhs.size), b_ub=rhs,
                                bounds=(0, None), method="highs")
        assert ref.status == 0
        assert dual_outer_bound(z, step) == pytest.approx(-ref.fun, abs=1e-7), (z, step)


def test_column_generation_prices_hold_on_the_whole_grid():
    # the rounds stop only when no grid point outside the working set has a
    # positive reduced cost; at the final prices none has one anywhere, and
    # the prices' value b.y is the LP value (strong duality)
    cases = ((0.75, 1e-3), (0.95, 1e-4), (0.98, 5e-3), (0.985, 1e-2), (0.99, 5e-3), (0.99, 1e-3))
    for z, step in cases:
        value, xs, masses, prices = _solve_moment_lp(z, step)
        _, objective, rhs = build_outer_bound_problem(z, step)
        reduced = objective - _power_sum(np.arange(prices.size), prices, xs)
        assert reduced.max() <= PIVOT_TOL, (z, step, xs[np.argmax(reduced)])
        assert float(rhs @ prices) == pytest.approx(value, abs=1e-9), (z, step)
        assert np.count_nonzero(masses) <= rhs.size  # a basic solution


@pytest.mark.parametrize("z, step", [
    *((z, 1e-3) for z in (0.7, 0.8, 0.9, 0.95, 0.99, 0.995)), (0.98, 5e-3),
])
def test_design_check_over_the_nonzero_prices_matches_all_rows(monkeypatch, z, step):
    # the check sums A', t A'' and t^2 A''' over the nonzero prices only, in
    # one stacked call at all its cell starts; at each start, each sum is the
    # one over all m rows, zeros included
    y = np.clip(_solve_moment_lp(z, step)[3], 0.0, None)
    priced = np.flatnonzero(y)
    assert priced.size
    seen = []

    def spy(exponents, weights, t):
        out = _power_sum(exponents, weights, t)
        seen.append((exponents, weights, t, out))
        return out

    monkeypatch.setattr(degree_dist, "_power_sum", spy)
    _worst_ratio(z, y)
    assert len(seen) == 1
    exponents, weights, t, out = seen[0]
    assert exponents.size == priced.size and weights.shape == (3, priced.size)
    # the starts of cells of equal width in -log(1 - t), from 0 to below z
    assert t[0] == 0.0 and np.allclose(np.diff(-np.log1p(-t)), lp_bounds._CELL_WIDTH)
    assert -math.log1p(-z) - lp_bounds._CELL_WIDTH <= -math.log1p(-t[-1]) < -math.log1p(-z)
    rows = np.zeros((3, y.size))
    for row, w in zip(rows, weights):
        np.add.at(row, exponents, w)
    assert np.allclose(out, _power_sum(np.arange(y.size), rows, t), rtol=1e-14, atol=0.0)


def dense_max_ratio(z, y):
    """Largest -log(1-t)/A'(t) over a million evenly spaced t in (0, z]."""
    ts = np.linspace(0.0, z, 10**6)[1:]
    priced = np.flatnonzero(y)
    return float(_rate_ratio(ts, _power_sum(priced, y[priced], ts)).max())


def test_design_check_finds_a_peak_between_check_points():
    # A'(t) = 0.4 + 2.4 t^3: the ratio -log(1-t)/A'(t) peaks near t = 0.566,
    # between two points of a 1e-3 grid, which alone misses it
    z = 0.8
    y = np.array([0.4, 0.0, 0.0, 2.4])
    dense = dense_max_ratio(z, y)
    check = np.arange(1, 801) * 1e-3
    assert dense - float(_rate_ratio(check, 0.4 + 2.4 * check**3).max()) > 1e-8
    assert dense <= _worst_ratio(z, y) <= dense * (1.0 + 1e-8)


@pytest.mark.parametrize("z", [0.3, 0.6])
def test_design_check_of_one_price_peaks_at_z(z):
    # degree 1 or 2 alone: the ratio rises on (0, z], so its largest value
    # is the one at t = z, and the bound comes within 1e-8 of it
    y = np.clip(_solve_moment_lp(z, 1e-3)[3], 0.0, None)
    priced = np.flatnonzero(y)
    assert priced.size == 1
    at_z = float(_rate_ratio(z, _power_sum(priced, y[priced], np.array([z])))[0])
    assert at_z <= _worst_ratio(z, y) <= at_z * (1.0 + 1e-8)


@pytest.mark.parametrize("step", [1e-3, 1e-4])
def test_design_check_bounds_the_dense_maximum(step):
    # the cell bound is at least the ratio's largest value at a million
    # points of (0, z], and at most 1e-8 above it
    for z in [0.3, *GOLDEN_ZS]:
        y = np.clip(_solve_moment_lp(z, step)[3], 0.0, None)
        dense = dense_max_ratio(z, y)
        assert dense <= _worst_ratio(z, y) <= dense * (1.0 + 1e-8), (z, step)


def test_design_check_bounds_r_of_z_of_a_distribution():
    # with y(d) = d P(d) at exponent d - 1, A' is P' and the design check
    # bounds the supremum that r_of_z finds on its grid; the scan of s_of_r
    # then reaches z at that rate
    dists = [ideal_soliton(10**4), robust_soliton(10**4, 0.1, 0.5), raptor_omega(0.5),
             raptor_omega(0.05), DegreeDistribution.from_mapping({1: 0.3, 2: 0.5, 40: 0.2}),
             DegreeDistribution.from_mapping({1: 1.0}), DegreeDistribution.from_mapping({2: 1.0}),
             DegreeDistribution.from_mapping({1: 0.5, 10**4: 0.5})]
    dists += [truncated_soliton(z).distribution for z in (0.7, 0.8, 0.9, 0.99)]
    for dist in dists:
        y = np.zeros(dist.max_degree)
        y[dist.degree_array - 1] = dist.degree_array * dist.mass_array
        for z in (0.25, 0.5, 0.9, 0.99, 0.999):
            rate, bound = r_of_z(z, dist), _worst_ratio(z, y)
            assert rate <= bound <= rate * (1.0 + 1e-6), (dist.label, z)
            assert s_of_r(bound, dist) >= z, (dist.label, z)


def test_design_check_near_zero():
    # without degree 1 the ratio tends to 1/A''(0) as t -> 0+, here its
    # supremum, and without degree 2 as well it diverges there
    assert 0.5 <= _worst_ratio(0.01, np.array([0.0, 2.0, 3.0])) <= 0.5 * (1.0 + 1e-8)
    # one cell, whose start t = 0 keeps only the constant term of A'; A''(0)
    # and A'''(0) still come from the terms in t and t^2
    assert _worst_ratio(5e-4, np.array([0.0, 2.0, 3.0])) == 0.500000000005
    assert _worst_ratio(0.9, np.array([0.0, 0.0, 3.0])) == math.inf


def test_design_check_evaluates_in_a_few_batches(monkeypatch):
    # A', A'' and A''' at all the cell starts at once
    y = np.clip(_solve_moment_lp(0.95, 1e-3)[3], 0.0, None)
    calls = []

    def counted(*args):
        calls.append(args[2].size)
        return _power_sum(*args)

    monkeypatch.setattr(degree_dist, "_power_sum", counted)
    _worst_ratio(0.95, y)
    assert calls == [math.ceil(-math.log1p(-0.95) / lp_bounds._CELL_WIDTH)]


def test_design_from_all_zero_prices_is_refused(monkeypatch):
    value, xs, masses, prices = _solve_moment_lp(0.9, 1e-3)
    monkeypatch.setattr(lp_bounds, "_moment_lp",
                        lambda z, step: (value, xs, masses, np.zeros_like(prices)))
    assert _worst_ratio(0.9, np.zeros_like(prices)) == math.inf
    with pytest.raises(RuntimeError, match="moment LP gave an empty design"):
        primal_min_r(0.9, 1e-3)


# `bound --z ...` CSV rows at the default grid
BOUND_GOLDEN = """\
z,r_lower,r_upper,m
0.55,0.725916087,0.725916088,2
0.6,0.76357561,0.76357561,2
0.65,0.80755548,0.80755548,2
0.7,0.841715003,0.841716386,3
0.75,0.870305944,0.870306854,3
0.8,0.901534618,0.901534684,4
0.85,0.929003731,0.929003863,6
0.9,0.95439859,0.954398861,9
0.95,0.97804716,0.97804726,19
0.975,0.98923148,0.989231601,39
0.98,0.99141755,0.9914177,49
0.99,0.995741219,0.995741612,99
0.995,0.997878508,0.997879702,199
"""


def test_bound_curve_golden_csv():
    buf = io.StringIO()
    outer_bound_curve(GOLDEN_ZS, 1e-3).write_csv(buf)
    assert buf.getvalue() == BOUND_GOLDEN


def test_weak_duality_everywhere():
    for z in (0.1, 0.25, 0.4, 0.5, 0.6, 2.0 / 3.0, 0.7, 0.8, 0.9, 0.95):
        _, upper = primal_min_r(z)
        assert dual_outer_bound(z) <= upper


def test_zero_gap_on_known_region():
    # exact rate is -log(1-z) up to z = 1/2 and -log(1-z)/(2z) beyond
    for z in (0.50, 0.55, 0.60, 0.65, 2.0 / 3.0):
        target = known_region_rate(z)
        _, upper = primal_min_r(z)
        assert abs(upper - target) <= 2e-3
        assert abs(dual_outer_bound(z) - target) <= 2e-3


def test_support_cap_holds_with_headroom():
    # moment rows above m = max_useful_degree(z) must get no price, so
    # degrees above the useful cap would stay unused in the design
    for z in (0.3, 0.5, 0.55, 0.6, 2.0 / 3.0, 0.75, 0.9):
        m = max_useful_degree(z)
        xs, objective, _ = build_outer_bound_problem(z)
        sol = simplex_solve(objective, _moment_columns(xs, m + 3), 1.0 / np.arange(1, m + 4))
        assert (sol.y[m:] <= 1e-9).all(), (z, sol.y)


def test_inner_design_sits_between_bounds():
    for z in (0.70, 0.75, 0.80, 0.85, 0.90):
        design = truncated_soliton(z)
        lower = dual_outer_bound(z)
        assert lower <= design.a
        assert design.a - lower < 0.05


# --- curve assembly ---

def test_bound_curve_empty():
    curve = outer_bound_curve([])
    assert curve.rows == ()


def test_bound_curve_boundary_row():
    curve = outer_bound_curve([0.5])
    row = curve.rows[0]
    assert row.m == 1
    assert row.r_lower_dual == pytest.approx(math.log(2.0), abs=2e-3)
    assert row.r_upper_primal == pytest.approx(math.log(2.0), abs=2e-3)


def test_bound_curve_monotone_rows():
    curve = outer_bound_curve([2.0 / 3.0, 0.75, 0.9])
    lowers = [row.r_lower_dual for row in curve.rows]
    uppers = [row.r_upper_primal for row in curve.rows]
    assert lowers == sorted(lowers) and len(set(lowers)) == 3
    assert uppers == sorted(uppers) and len(set(uppers)) == 3


def test_bound_row_validates_m_and_gap():
    with pytest.raises(ValueError):
        BoundRow(z=0.75, r_lower_dual=1.0, r_upper_primal=0.9, m=3)
    with pytest.raises(ValueError):  # no slack: lower <= upper holds exactly
        BoundRow(z=0.75, r_lower_dual=math.nextafter(0.9, 1.0), r_upper_primal=0.9, m=3)
    with pytest.raises(ValueError):
        BoundRow(z=0.75, r_lower_dual=0.8, r_upper_primal=0.9, m=5)


def test_bound_curve_csv_round_trip():
    curve = outer_bound_curve([0.4, 0.75])
    buf = io.StringIO()
    curve.write_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "z,r_lower,r_upper,m"
    for line, row in zip(lines[1:], curve.rows):
        z, lo, hi, m = line.split(",")
        assert float(z) == pytest.approx(row.z, rel=1e-9)
        assert float(lo) == pytest.approx(row.r_lower_dual, rel=1e-8)
        assert float(hi) == pytest.approx(row.r_upper_primal, rel=1e-8)
        assert int(m) == row.m
        # nine significant digits round-trip
        assert f"{float(lo):.9g}" == lo
