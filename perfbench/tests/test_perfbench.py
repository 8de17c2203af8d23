"""Tests of the benchmark's own checkers, and a quick pass of every workload.

Each checker must accept the right value and reject a wrong one. The quick
pass runs one untraced and one traced round of each workload at reduced
size; the whole file takes a few seconds.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from fountain_lab import (  # noqa: E402
    DegreeDistribution,
    decode,
    dual_outer_bound_details,
    encode,
    limiting_soliton,
    primal_min_r,
    r_of_z,
    robust_soliton,
    s_of_r,
    truncated_soliton,
)

from perfbench import checks, run, tracing, workloads  # noqa: E402
from perfbench.checks import CheckError  # noqa: E402

DEG1 = DegreeDistribution.from_mapping({1: 1.0})
ROBUST = robust_soliton(1_000, 0.1, 0.5)
ROBUST_SMALL = robust_soliton(200, 0.1, 0.5)


def entries(dist):
    return [d for d, _ in dist.entries], [m for _, m in dist.entries]


def test_tail_is_highest_ladder_percentile_with_ten_beyond():
    values = [float(i) for i in range(1, 151)]
    assert run.tail(values) == (90.0, 135.0, 15)
    assert run.tail(values[:60])[0] == 75.0
    assert run.tail(values[:12]) == (100.0, 12.0, 0)


def test_degree1_cell_tolerance():
    r, k, trials = 0.5, 10_000, 2
    tol = checks.degree1_tolerance(r, k, trials)
    expected = checks.degree1_fraction(r)
    checks.check_close(expected + 0.5 * tol, expected, tol, "degree1")
    with pytest.raises(CheckError):
        checks.check_close(expected + 0.05, expected, tol, "degree1")


def test_own_margin_scan_matches_closed_forms():
    d, m = entries(DEG1)
    assert checks.s_of_r(0.7, d, m) == pytest.approx(1 - math.exp(-0.7), abs=1e-8)
    design = truncated_soliton(0.75)
    assert checks.s_of_r(design.a, *entries(design.distribution)) == pytest.approx(0.75, abs=1e-3)
    ts = np.linspace(0.0, 0.99, 50)
    assert np.allclose(checks.margin(ts, 0.7, d, m), 0.7 + np.log1p(-ts))


def test_robust_cell_reference_rejects_shifted_fraction():
    s = checks.s_of_r(0.9, *entries(ROBUST))
    checks.check_close(s + 0.01, s, 0.035, "robust")
    with pytest.raises(CheckError):
        checks.check_close(s + 0.05, s, 0.035, "robust")


def test_bound_row_checks():
    exact = checks.closed_form_rate(0.3)
    checks.check_bound_row(0.3, exact - 1e-4, exact + 1e-4, 1)
    with pytest.raises(CheckError, match="closed form"):
        checks.check_bound_row(0.3, exact - 0.01, exact - 0.005, 1)
    with pytest.raises(CheckError, match="exceeds"):
        checks.check_bound_row(0.6, 0.77, 0.76, 2)
    with pytest.raises(CheckError, match="m column"):
        checks.check_bound_row(0.6, 0.76, 0.77, 3)
    a = truncated_soliton(0.9).a
    checks.check_bound_row(0.9, a - 0.01, a + 0.01, 9)
    with pytest.raises(CheckError, match="design rate"):
        checks.check_bound_row(0.9, a + 0.001, a + 0.01, 9)


def test_truncated_soliton_rate_by_direct_summation():
    for z in (0.7, 0.75, 0.9, 0.95):
        assert checks.truncated_soliton_rate(z) == pytest.approx(truncated_soliton(z).a, rel=1e-12)


def test_moment_certificate():
    value, xs, masses = dual_outer_bound_details(0.75, 1e-2)
    checks.check_moment_certificate(0.75, value, xs, masses, float("%.9g" % value))
    with pytest.raises(CheckError, match="moment row"):
        checks.check_moment_certificate(0.75, value, xs, masses * 1.01, value)
    with pytest.raises(CheckError, match="CSV r_lower"):
        checks.check_moment_certificate(0.75, value, xs, masses, value + 1e-4)


def test_design_grid_holds_points_off_the_library_grid():
    ts = checks.design_grid(0.75, 1e-2)
    fine = checks.fine_grid(0.75, 1e-3)
    assert set(fine) <= set(ts)
    assert np.isclose(ts, 0.7495).any()
    assert ts.min() == 0.0 and ts.max() == 0.75


def test_design_fine_grid_check():
    design, r = primal_min_r(0.75, 1e-2)
    checks.check_design(0.75, 1e-2, r, *entries(design), float("%.9g" % r))
    with pytest.raises(CheckError, match="design margin"):
        checks.check_design(0.75, 1e-2, 0.99 * r, *entries(design), 0.99 * r)


def test_s_crossing_check():
    d, m = entries(ROBUST)
    s = s_of_r(0.9, ROBUST)
    checks.check_s_crossing(s, 0.9, d, m, 1e-4)
    with pytest.raises(CheckError, match="does not cross"):
        checks.check_s_crossing(s - 0.01, 0.9, d, m, 1e-4)
    with pytest.raises(CheckError, match="below s"):
        checks.check_s_crossing(s + 0.01, 0.9, d, m, 1e-4)
    checks.check_s_crossing(1.0, 1.2, d, m, 1e-4)
    with pytest.raises(CheckError, match="below s"):
        checks.check_s_crossing(1.0, 0.9, d, m, 1e-4)


def test_sup_ratio_matches_r_of_z():
    for z, dist in ((0.5, ROBUST), (0.9, truncated_soliton(0.9).distribution)):
        expected = checks.sup_ratio(z, *entries(dist), 1e-3)
        value = r_of_z(z, dist, 1e-3)
        checks.check_close(value, expected, 1e-6 * value, "r_of_z")
        with pytest.raises(CheckError):
            checks.check_close(value * 1.001, expected, 1e-6 * value, "r_of_z")


def test_margin_condition():
    assert checks.margin_condition(1.0, *entries(DEG1), 1 - math.exp(-1.0), 1e-4)
    heavy = limiting_soliton(1_000)
    d, m = entries(heavy)
    assert not checks.margin_condition(1.0, d, m, checks.s_of_r(1.0, d, m), 1e-4)


def test_repeat_and_codec_checks():
    checks.check_repeat(0.25, 0.25, "op")
    with pytest.raises(CheckError):
        checks.check_repeat(0.25, 0.2501, "op")
    inputs = [bytes([i % 256, (7 * i) % 256]) for i in range(200)]
    symbols = encode(inputs, ROBUST_SMALL, 260, 5)
    recovered, _ = decode(symbols, len(inputs))
    checks.check_codec(inputs, symbols, recovered)
    bad = list(symbols)
    sym = bad[3]
    bad[3] = type(sym)(sym.neighbors, bytes([sym.payload[0] ^ 1, sym.payload[1]]))
    with pytest.raises(CheckError, match="XOR"):
        checks.check_codec(inputs, bad, recovered)
    wrong = [None if v is None else bytes([v[0] ^ 1, v[1]]) for v in recovered]
    with pytest.raises(CheckError, match="recovered"):
        checks.check_codec(inputs, symbols, wrong)


@pytest.mark.parametrize("name", run.NAMES)
def test_quick_pass(name):
    workload = workloads.build(name, seed=3, quick=True)
    workload.warm_up()
    result = run.measure(workload, seconds=0.0, trace=True)
    assert result["problems"] == []
    assert result["rounds"] == 2
    assert result["attempted"] == 2 * len(workload.ops)
    # the only operation allowed to fail is the one the simplex is known
    # to fail on; when the simplex is mended it stops failing
    assert result["failed"] <= (2 if name == "lp_bound" else 0)
    assert all("z=0.98" in msg for msg in result["failures"])
    layers = tracing.layer_metrics(result["recorder"])
    expected = {
        "mc_trials": ("sim_harness.self_s", "lt_codec.peel_s", "lt_codec.edges"),
        "lp_bound": ("cli.self_s", "lp_bounds.pivots", "lp_bounds.primal_self_s"),
        "asym_scan": ("asymptotics.scan_s", "asymptotics.polish_s", "asymptotics.r_of_z_peak_alloc_mb"),
    }[name]
    for key in expected:
        assert layers[key] > 0, key
