import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from fountain_lab import (
    DegreeDistribution,
    asymptotics,
    check_margin_condition,
    ideal_soliton,
    limiting_soliton,
    optimal_distribution,
    peeling_margin,
    perturb,
    robust_soliton,
    r_of_z,
    s_of_r,
    truncated_soliton,
)
from fountain_lab.asymptotics import _crossing, _golden_max, _rate_ratio
from fountain_lab.degree_dist import pgf_derivative

DEG1 = DegreeDistribution.from_mapping({1: 1.0})
DEG2 = DegreeDistribution.from_mapping({2: 1.0})


def random_distribution(rng, max_degree=15):
    degrees = sorted(rng.choice(np.arange(1, max_degree + 1),
                                size=rng.integers(1, 6), replace=False).tolist())
    weights = rng.random(len(degrees)) + 0.05
    weights /= weights.sum()
    return DegreeDistribution.from_mapping(
        {int(d): float(w) for d, w in zip(degrees, weights)})


def test_margin_formula():
    # g(t) = r P'(t) + log(1-t); for the degree-2 point mass P'(t) = 2t
    assert peeling_margin(0.25, 1.0, DEG2) == pytest.approx(
        0.5 + math.log(0.75), abs=1e-15)
    with pytest.raises(ValueError):
        peeling_margin(1.0, 1.0, DEG2)


@pytest.mark.parametrize("t", [math.nan, [0.2, math.nan], [math.nan]])
def test_margin_rejects_nan(t):
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        peeling_margin(t, 1.0, ideal_soliton(100))


def test_s_of_r_degree1_at_log2():
    s = s_of_r(math.log(2.0), DEG1)
    assert s == pytest.approx(0.5, abs=1e-8)


def test_s_of_r_zero_rate():
    assert s_of_r(0.0, random_distribution(np.random.default_rng(0))) <= 1e-8


def test_s_of_r_degree1_closed_form():
    for r in np.linspace(0.0, 3.0, 16):
        assert s_of_r(float(r), DEG1) == pytest.approx(1.0 - math.exp(-r), abs=1e-6)


def test_s_of_r_limiting_soliton_collapses():
    dist = limiting_soliton(10_000)
    assert s_of_r(0.9, dist) <= 1e-4


def test_s_of_r_finite_soliton_keeps_a_sliver():
    # the 1/k degree-one mass of the finite-k soliton sustains peeling to
    # about r/(k(1-r)), unlike the heavy-tailed limit which collapses to 0
    s = s_of_r(0.9, ideal_soliton(10_000))
    assert 2e-4 < s < 5e-3
    assert s == pytest.approx(0.9 / (10_000 * 0.1), rel=0.2)


def test_s_of_r_knife_edge_returns_one():
    assert s_of_r(1.0, limiting_soliton(10_000)) == 1.0


def test_huge_rate_gives_infinite_margin_without_warning():
    # r * P'(t) overflows to +inf, which is the margin's right sign: s = 1
    dist = ideal_soliton(100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in (1e308, np.finfo(float).max):
            assert peeling_margin(0.99, r, dist) == math.inf  # P'(0.99) > 4
            margins = peeling_margin(np.array([0.0, 0.5, 0.99]), r, dist)
            assert np.all(margins > 1e305) and margins[-1] == math.inf
            assert s_of_r(r, dist) == 1.0
            assert check_margin_condition(r, dist)


def test_s_of_r_monotone_in_r():
    rng = np.random.default_rng(21)
    for _ in range(8):
        dist = random_distribution(rng)
        values = [s_of_r(r, dist) for r in np.linspace(0.05, 2.0, 12)]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_s_of_r_validates_parameters():
    with pytest.raises(ValueError):
        s_of_r(-0.1, DEG1)
    with pytest.raises(ValueError):
        s_of_r(1.0, DEG1, grid_step=0.5)
    with pytest.raises(ValueError):
        s_of_r(1.0, DEG1, grid_step=1e-4, refine_tol=1e-3)


def test_round_trip_r_of_z_then_s_of_r():
    grid_step = 1e-4
    for z in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6):
        dist, _ = optimal_distribution(z)
        r = r_of_z(z, dist, grid_step)
        assert s_of_r(r + 1e-6, dist, grid_step) >= z - 2 * grid_step


def test_perturbation_sandwich():
    dist = limiting_soliton(10_000)
    r = 0.95
    base = s_of_r(r, dist)
    widened = {}
    for delta in (0.01, 0.001):
        widened[delta] = s_of_r(r / (1 - delta), perturb(dist, delta))
        assert widened[delta] >= base
    assert abs(widened[0.001] - base) < abs(widened[0.01] - base)


def test_r_of_z_examples():
    assert r_of_z(0.5, DEG1) == pytest.approx(math.log(2.0), abs=1e-9)
    assert r_of_z(2.0 / 3.0, DEG2) == pytest.approx(0.823959, abs=1e-6)
    design = truncated_soliton(0.75)
    assert r_of_z(0.75, design.distribution) == pytest.approx(design.a, abs=1e-6)


def test_r_of_z_edges():
    assert r_of_z(0.0, DEG1) == 0.0
    with pytest.raises(ValueError):
        r_of_z(1.0, DEG1)


def test_r_of_z_unreachable_without_low_degrees():
    # with neither degree-1 nor degree-2 mass the needed rate diverges near
    # t = 0, so no finite rate reaches a positive target
    dist = DegreeDistribution.from_mapping({3: 0.5, 5: 0.5})
    assert r_of_z(0.4, dist) == math.inf


def test_r_of_z_degree2_origin_limit():
    # for degree-2-led distributions the binding ratio tends to 1/(2 P(2))
    # at the origin, which dominates for small targets
    dist = DegreeDistribution.from_mapping({2: 0.25, 3: 0.75})
    assert r_of_z(0.05, dist) == pytest.approx(2.0, abs=1e-9)


def test_r_of_z_monotone_in_z():
    rng = np.random.default_rng(2)
    dist = random_distribution(rng)
    values = [r_of_z(z, dist) for z in np.linspace(0.05, 0.9, 10)]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_golden_max_finds_known_peaks():
    # one scalar bracket with the peak inside it
    assert _golden_max(lambda t: 1.0 - (t - 0.3) ** 2, 0.0, 1.0) == pytest.approx(1.0, abs=1e-10)

    # a peak at a bracket end: only interior points are evaluated, so the
    # value comes within the final bracket of it, never beyond
    best = _golden_max(lambda t: t, 0.25, 0.5)
    assert 0.5 - 1e-5 < best < 0.5


def test_r_of_z_polishes_between_coarse_grid_points():
    # P'(t) = 0.4 + 2.4 t^3: the ratio -log(1-t)/P'(t) peaks near t = 0.566,
    # inside a cell of the 0.05 grid, where the grid alone misses it by 4e-4
    dist = DegreeDistribution.from_mapping({1: 0.4, 4: 0.6})
    z = 0.8
    ts = np.linspace(0.0, z, 10**6)[1:]
    dense = float(_rate_ratio(ts, 0.4 + 2.4 * ts**3).max())
    coarse = np.arange(1, 17) * 0.05
    assert dense - float(_rate_ratio(coarse, 0.4 + 2.4 * coarse**3).max()) > 1e-4
    assert r_of_z(z, dist, grid_step=0.05) == pytest.approx(dense, abs=1e-12)


def test_r_of_z_memory_on_large_support():
    # a dense evaluator holds a 5,000 x 10^4 power matrix here (400 MB)
    dist = ideal_soliton(10_000)
    tracemalloc.start()
    try:
        r_of_z(0.5, dist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20


def test_margin_condition_degree1():
    assert check_margin_condition(1.0, DEG1) is True


def test_margin_condition_heavy_tail_fails():
    # identically-zero margin: strict positivity cannot hold anywhere inside
    assert check_margin_condition(1.0, limiting_soliton(10_000)) is False


def test_margin_condition_truncated_design_holds():
    design = truncated_soliton(0.75)
    assert check_margin_condition(design.a, design.distribution) is True


# --- golden values on the three 10^4-degree distributions of the benchmark ---
#
# Computed with a dense, untruncated P'(t) (the whole t x degree power
# matrix at once); truncation and chunking may move only the last bits.

BIG_K = 10_000


@pytest.fixture(scope="module")
def big_dists():
    return {
        "ideal": ideal_soliton(BIG_K),
        "robust": robust_soliton(BIG_K, 0.1, 0.5),
        "heavy": perturb(limiting_soliton(BIG_K), 1e-3),
    }


R_OF_Z_GOLDEN = [
    ("ideal", 0.25, 0.9996525148382317),
    ("ideal", 0.5, 0.9998557513065989),
    ("ideal", 0.9, 0.9999565724378449),
    ("robust", 0.25, 1.054959399474294),
    ("robust", 0.5, 1.0729345512788395),
    ("robust", 0.9, 1.0747099343701745),
    ("heavy", 0.25, 0.9975300562309436),
    ("heavy", 0.5, 0.9995575008512899),
    ("heavy", 0.9, 1.0005660257219713),
]

S_OF_R_GOLDEN = [
    ("ideal", 0.5, 9.999732971191406e-05, True),
    ("ideal", 0.9, 0.0008996051788330079, True),
    ("ideal", 1.0, 0.999287446975708, True),
    ("ideal", 1.2, 1.0, True),
    ("robust", 0.5, 0.00831848487854004, True),
    ("robust", 0.9, 0.04520495719909668, True),
    ("robust", 1.0, 0.10167584953308108, True),
    ("robust", 1.2, 1.0, True),
    ("heavy", 0.5, 0.0009985042572021484, True),
    ("heavy", 0.9, 0.008880069351196288, True),
    ("heavy", 1.0, 0.6321209270477297, True),
    ("heavy", 1.2, 1.0, True),
]


@pytest.mark.parametrize("label,z,expected", R_OF_Z_GOLDEN)
def test_r_of_z_golden(big_dists, label, z, expected):
    assert r_of_z(z, big_dists[label]) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("label,r,expected,margin_ok", S_OF_R_GOLDEN)
def test_s_of_r_and_margin_golden(big_dists, label, r, expected, margin_ok):
    assert s_of_r(r, big_dists[label]) == pytest.approx(expected, rel=1e-12)
    assert check_margin_condition(r, big_dists[label]) is margin_ok


# --- _crossing against a full scan with scalar bisection ---


def reference_crossing(r, dist, grid_step, refine_tol):
    """Every grid point in 512-point chunks, then one midpoint per call."""
    n_pts = int(round(1.0 / grid_step))
    weak, hit = [], None
    with np.errstate(over="ignore"):
        for start in range(0, n_pts, 512):
            ts = np.arange(start, min(start + 512, n_pts)) * grid_step
            vals = r * pgf_derivative(dist, ts) + np.log1p(-ts)
            bad = np.flatnonzero(vals < -refine_tol)
            end = int(bad[0]) if bad.size else ts.size
            weak.append(ts[:end][vals[:end] <= refine_tol])
            if bad.size:
                hit = start + end
                break
    weak = np.concatenate(weak)
    if hit is None:
        return 1.0, weak
    lo, hi = (hit - 1) * grid_step, hit * grid_step
    while hi - lo > refine_tol:
        mid = 0.5 * (lo + hi)
        if peeling_margin(mid, r, dist) < -refine_tol:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi), weak


def dip_distribution():
    """P(1) = P(40) = 1/2 and the rate at which the grid's least margin is 0.

    The margin falls to 0 at t = 0.8539, on the 1e-4 grid, and rises again
    within a few grid steps; the first chunk ends far above refine_tol, so
    the Taylor cells up to the dip are bounded.
    """
    dist = DegreeDistribution.from_mapping({1: 0.5, 40: 0.5})
    ts = np.arange(1, 10**4) * 1e-4
    return dist, float(np.max(_rate_ratio(ts, pgf_derivative(dist, ts))))


def assert_crossing_matches_reference(r, dist, grid_step, refine_tol=1e-9):
    s, weak = _crossing(r, dist, grid_step, refine_tol)
    ref_s, ref_weak = reference_crossing(r, dist, grid_step, refine_tol)
    assert s == ref_s, (r, grid_step)
    assert np.array_equal(weak, ref_weak), (r, grid_step)


@pytest.mark.parametrize("grid_step", [1e-3, 1e-4])
def test_crossing_matches_reference_on_large_supports(big_dists, grid_step):
    dists = dict(big_dists, limiting=limiting_soliton(BIG_K))
    for dist in dists.values():
        for r in (0.5, 0.9, 1.0, 1.2):
            assert_crossing_matches_reference(r, dist, grid_step)


@pytest.mark.parametrize("grid_step", [1e-3, 1e-4])
def test_crossing_matches_reference_on_random_distributions(grid_step):
    for seed in range(6):
        dist = random_distribution(np.random.default_rng(seed))
        for r in np.linspace(0.1, 2.5, 9):
            assert_crossing_matches_reference(float(r), dist, grid_step)


def test_crossing_matches_reference_through_a_dip():
    dist, r = dip_distribution()
    s, weak = _crossing(r, dist, 1e-4, 1e-9)
    assert s == 1.0 and weak.tolist() == [0.8539]
    assert check_margin_condition(r, dist) is False
    # just below that rate the dip is the crossing
    below = r * (1.0 - 1e-6)
    assert 0.85 < s_of_r(below, dist) < 0.8539
    for rate in (r, below):
        for grid_step in (1e-3, 1e-4):
            assert_crossing_matches_reference(rate, dist, grid_step)


def test_refine_tol_down_to_float_epsilon_terminates():
    assert s_of_r(0.7, DEG1, refine_tol=2.3e-16) == pytest.approx(1.0 - math.exp(-0.7), abs=1e-6)
    with pytest.raises(ValueError, match="float epsilon"):
        s_of_r(0.7, DEG1, refine_tol=1e-17)


# --- what the scan and the bisection evaluate ---


@pytest.fixture
def margin_calls(monkeypatch):
    """Points per pgf_derivative call, and peeling_margin calls, in asymptotics."""
    calls = {"pgf": [], "margin": 0}

    def counted_pgf(dist, t, inner=asymptotics.pgf_derivative):
        calls["pgf"].append(np.size(t))
        return inner(dist, t)

    def counted_margin(t, r, dist, inner=asymptotics.peeling_margin):
        calls["margin"] += 1
        return inner(t, r, dist)

    monkeypatch.setattr(asymptotics, "pgf_derivative", counted_pgf)
    monkeypatch.setattr(asymptotics, "peeling_margin", counted_margin)
    return calls


def test_cell_bound_skips_clear_stretches(margin_calls):
    # the margin stays positive up to 1 - 1e-4: the full scan evaluates 10^4 points
    assert s_of_r(1.2, ideal_soliton(BIG_K)) == 1.0
    assert sum(margin_calls["pgf"]) < 2_000


def test_cell_bound_gate_holds_on_knife_edge(margin_calls):
    # the margin is about 0 (-8.9e-16 at t = 0.99), below refine_tol: every
    # chunk is evaluated whole, and no Taylor cell is bounded
    assert s_of_r(1.0, limiting_soliton(BIG_K)) == 1.0
    assert margin_calls["pgf"] == [512] * 19 + [272]


def test_cell_bound_skips_cells_before_a_dip(margin_calls):
    dist, r = dip_distribution()
    s_of_r(r, dist)
    # fewer points than lie below the dip at t = 0.8539
    assert sum(margin_calls["pgf"]) < 8_539


def test_default_step_crossing_takes_three_margin_calls(margin_calls):
    for r, dist in ((0.5, DEG1), (math.log(2.0), DEG1), (0.9, ideal_soliton(BIG_K))):
        margin_calls["margin"] = 0
        assert s_of_r(r, dist) < 1.0
        assert margin_calls["margin"] <= 3


def test_margin_condition_stops_at_first_weak_point(margin_calls):
    # the margin is about 0 from t = 1e-4 on, so the first chunk settles it
    assert check_margin_condition(1.0, limiting_soliton(BIG_K)) is False
    assert margin_calls["pgf"] == [512]


def test_taylor_cells_skip_knife_edge_scan(margin_calls):
    # the margin stays near 1e-4 up to the crossing at 0.99929, so Taylor
    # cells stay narrow; the full scan evaluates 10^4 points
    assert s_of_r(1.0, ideal_soliton(BIG_K)) == pytest.approx(0.999287446975708, rel=1e-12)
    assert sum(margin_calls["pgf"]) < 1_500


def test_taylor_cells_span_the_rest_of_a_wide_margin_scan(margin_calls):
    # a margin of about 10^6 would allow cells far wider than the 9.2 left
    # of the scan in -log(1 - t): the cells cover all of it, where the full
    # scan evaluates 10^4 points
    for dist in (ideal_soliton(BIG_K), DEG1):
        margin_calls["pgf"] = []
        assert s_of_r(1e6, dist) == 1.0
        assert sum(margin_calls["pgf"]) <= 600, dist.label


def test_taylor_cells_near_the_grid_end():
    # on 513 points the first chunk ends at index 511 with a wide margin,
    # and one grid point is left: too few for a Taylor cell
    assert s_of_r(10.0, DEG1, grid_step=1 / 513) == 1.0
    for n_pts in (513, 514, 520, 1025, 1031):
        for dist in (DEG1, ideal_soliton(100)):
            for r in (2.0, 10.0, 1e6):
                assert_crossing_matches_reference(r, dist, 1.0 / n_pts)


def test_taylor_cells_leave_numpy_ma_unimported():
    # np.union1d imports numpy.ma on first use, some milliseconds of a
    # process's first knife-edge scan
    code = (
        "import sys\n"
        "from fountain_lab import ideal_soliton, s_of_r\n"
        "s_of_r(1.0, ideal_soliton(10**4))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    # the child imports the same fountain_lab as this process
    src = str(Path(asymptotics.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# --- Taylor cells near the threshold, and the early answer of check_margin_condition ---


def knife_edge_cases(big_dists):
    """The ideal soliton at r in {0.99, 1, 1.01} and both truncated designs at r = a."""
    cases = [(r, big_dists["ideal"]) for r in (0.99, 1.0, 1.01)]
    for z in (0.75, 0.9):
        design = truncated_soliton(z)
        cases.append((design.a, design.distribution))
    return cases


@pytest.mark.parametrize("grid_step", [1e-3, 1e-4])
def test_crossing_matches_reference_on_knife_edges(big_dists, grid_step):
    for r, dist in knife_edge_cases(big_dists):
        assert_crossing_matches_reference(r, dist, grid_step)


@pytest.mark.parametrize("grid_step", [1e-3, 1e-4])
def test_margin_condition_matches_reference(big_dists, grid_step):
    design = truncated_soliton(0.75)
    limiting = limiting_soliton(BIG_K)
    cases = knife_edge_cases(big_dists) + [
        # the benchmark's margin cells
        (0.9, big_dists["robust"]),
        (1.2, big_dists["heavy"]),
        (1.0, big_dists["ideal"]),
        (1.0, limiting),
        (design.a, design.distribution),
        # weak points from t = 1e-4 on, then a crossing near t = 0.01
        (1.0 - 1e-7, limiting),
    ]
    for r, dist in cases:
        s, weak = reference_crossing(r, dist, grid_step, 1e-9)
        expected = not np.any((weak > 0.0) & (weak < s - 2.0 * grid_step))
        assert check_margin_condition(r, dist, grid_step) is expected, (r, dist.label)


@pytest.fixture
def taylor_batches(monkeypatch):
    """Each batch of Taylor cells a scan bounds, with the cells left open."""
    seen = []

    def spy(r, dist, lo, hi, grid_step, refine_tol, inner=asymptotics._taylor_open):
        keep = inner(r, dist, lo, hi, grid_step, refine_tol)
        seen.append((r, dist, lo, hi, grid_step, refine_tol, keep))
        return keep

    monkeypatch.setattr(asymptotics, "_taylor_open", spy)
    return seen


def test_taylor_cells_skip_only_clear_cells(big_dists, taylor_batches):
    cases = [(r, dist) for dist in big_dists.values() for r in (0.99, 1.0, 1.01)]
    for seed in range(6):
        dist = random_distribution(np.random.default_rng(seed))
        for z in (0.3, 0.6, 0.9):
            # at r_of_z the margin touches 0 near its peak
            rate = r_of_z(z, dist)
            if math.isfinite(rate):
                cases += [(rate, dist), (rate * 1.001, dist)]
    for r, dist in cases:
        for grid_step in (1e-3, 1e-4):
            _crossing(r, dist, grid_step, 1e-9)
    skipped = 0
    for r, dist, lo, hi, grid_step, refine_tol, keep in taylor_batches:
        # every grid point of every skipped cell, evaluated
        widths = hi[~keep] - lo[~keep]
        starts = np.repeat(lo[~keep] - np.cumsum(widths) + widths, widths)
        ts = (starts + np.arange(widths.sum())) * grid_step
        assert np.all(peeling_margin(ts, r, dist) > refine_tol), (r, dist.label)
        skipped += widths.size
    assert skipped > 1_000


def least_margins(r, dist, lo, hi, grid_step):
    """The least margin on the grid points of each cell lo..hi-1."""
    return np.array([np.min(peeling_margin(np.arange(a, b) * grid_step, r, dist))
                     for a, b in zip(lo, hi)])


def test_taylor_bound_lies_below_every_grid_margin():
    # with refine_tol set to each cell's least margin on the grid, a sound
    # lower bound cannot clear the cell: every cell must stay open
    rng = np.random.default_rng(11)
    dip, dip_rate = dip_distribution()
    cases = [(dip_rate, dip), (1.0, ideal_soliton(1_000)), (0.9, DEG2)]
    for seed in range(8):
        dist = random_distribution(np.random.default_rng(seed))
        cases += [(float(r), dist) for r in rng.uniform(0.2, 2.0, 3)]
    # cells next to t = 1, where cells are widest and 1 / (1 - b)^2 largest:
    # cells ending at the last grid point, at grids 1e-4 and 1e-5, and cells
    # anywhere on the 1e-5 grid
    wide = np.random.default_rng(12)
    for r, dist in cases:
        lo = np.sort(rng.integers(1, 9_000, 60))
        hi = lo + rng.integers(2, 512, 60)
        least = least_margins(r, dist, lo, hi, 1e-4)
        keep = asymptotics._taylor_open(r, dist, lo, hi, 1e-4, least)
        assert np.all(keep), (r, dist.label)
        for grid_step in (1e-4, 1e-5):
            n_pts = round(1.0 / grid_step)
            lo = np.sort(n_pts - wide.integers(2, 512, 20))
            hi = np.full(lo.size, n_pts)
            if grid_step == 1e-5:
                inner = np.sort(wide.integers(1, n_pts - 512, 40))
                lo, hi = np.append(inner, lo), np.append(inner + wide.integers(2, 512, 40), hi)
            least = least_margins(r, dist, lo, hi, grid_step)
            keep = asymptotics._taylor_open(r, dist, lo, hi, grid_step, least)
            assert np.all(keep), (r, dist.label, grid_step)


def test_margin_condition_keeps_weak_points_next_to_the_crossing():
    # at grid 1e-3 and refine_tol 1e-3 the two grid points before the
    # crossing are weak; they lie within two grid steps of s, so they pass
    for r in (0.01, 0.015, 0.02, 0.025):
        s, weak = reference_crossing(r, DEG1, 1e-3, 1e-3)
        assert np.count_nonzero(weak > 0.0) == 2
        assert check_margin_condition(r, DEG1, 1e-3, 1e-3) is True


def test_margin_condition_waits_on_a_weak_point_at_a_chunk_end():
    # P(1) = 0.00735, P(3) = 0.99265 at its largest grid ratio: the margin is
    # 0 at t = 0.051 alone, grid index 510 of the first 512-point chunk. It
    # lies within two steps of that chunk's end, so the chunk settles nothing
    dist = DegreeDistribution.from_mapping({1: 0.00735, 3: 0.99265})
    ts = np.arange(1, 10**4) * 1e-4
    r = float(np.max(_rate_ratio(ts, pgf_derivative(dist, ts))))
    s, weak = _crossing(r, dist, 1e-4, 1e-9)
    assert s == 1.0 and weak.tolist() == [510 * 1e-4]
    assert check_margin_condition(r, dist) is False
