import dataclasses
import io
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fountain_lab import (
    DegreeDistribution,
    UnknownRegionError,
    ideal_soliton,
    limiting_soliton,
    max_useful_degree,
    optimal_distribution,
    perturb,
    pgf_derivative,
    pgf_eval,
    raptor_omega,
    read_distribution,
    robust_soliton,
    truncated_soliton,
    write_distribution,
)
from fountain_lab import degree_dist
from fountain_lab.degree_dist import MASS_SUM_TOL


def assert_valid(dist):
    degrees = dist.support
    assert all(d >= 1 for d in degrees)
    assert list(degrees) == sorted(set(degrees))
    assert all(m >= 0.0 for m in dist.mass_array)
    assert abs(math.fsum(dist.mass_array) - 1.0) <= MASS_SUM_TOL


def random_distribution(rng, max_degree=20):
    degrees = sorted(rng.choice(np.arange(1, max_degree + 1),
                                size=rng.integers(1, 8), replace=False).tolist())
    weights = rng.random(len(degrees)) + 0.05
    weights /= weights.sum()
    return DegreeDistribution.from_mapping(
        {int(d): float(w) for d, w in zip(degrees, weights)})


# --- constructors ---

def test_ideal_soliton_k2():
    assert ideal_soliton(2).as_dict() == {1: 0.5, 2: 0.5}


def test_ideal_soliton_k4_exact():
    expected = {1: Fraction(1, 4), 2: Fraction(1, 2), 3: Fraction(1, 6), 4: Fraction(1, 12)}
    dist = ideal_soliton(4)
    for d, frac in expected.items():
        assert dist.mass(d) == pytest.approx(float(frac), abs=1e-15)
    assert sum(expected.values()) == 1


@pytest.mark.parametrize("k", range(2, 11))
def test_ideal_soliton_telescopes_exactly(k):
    # rational oracle: 1/k + sum 1/(i(i-1)) telescopes to exactly 1
    total = Fraction(1, k) + sum(Fraction(1, i * (i - 1)) for i in range(2, k + 1))
    assert total == 1
    assert_valid(ideal_soliton(k))


def test_ideal_soliton_rejects_small_k():
    with pytest.raises(ValueError):
        ideal_soliton(1)


def test_limiting_soliton_shape():
    dist = limiting_soliton(100)
    assert dist.mass(1) == 0.0
    assert dist.mass(2) == 0.5
    assert dist.mass(50) == pytest.approx(1.0 / (50 * 49), abs=1e-18)
    assert dist.mass(100) == pytest.approx(1.0 / 99, abs=1e-18)
    assert_valid(dist)


def test_robust_soliton_valid_and_boosted():
    dist = robust_soliton(1000, 0.1, 0.5)
    assert_valid(dist)
    # the correction adds R/k at degree one before normalizing
    assert dist.mass(1) > ideal_soliton(1000).mass(1)


def test_robust_soliton_spike_in_support():
    k, c, fail = 1000, 0.03, 0.5
    R = c * math.log(k / fail) * math.sqrt(k)
    spike = int(round(k / R))
    dist = robust_soliton(k, c, fail)
    assert 2 <= spike <= k
    assert spike in dist.support
    # the spike mass exceeds the plain soliton mass at that degree
    assert dist.mass(spike) > 1.0 / (spike * (spike - 1))


def test_robust_soliton_degenerate():
    with pytest.raises(ValueError):
        robust_soliton(4, 2.0, 0.5)  # k/R < 2


@pytest.mark.parametrize("build, args, message", [
    (DegreeDistribution, (((2, 0.5), (1, 0.5)),), "degrees must be strictly ascending"),
    (limiting_soliton, (1,), "needs integer max_degree >= 2, got 1"),
    (robust_soliton, (1, 0.1, 0.5), "needs integer k >= 2, got 1"),
    (robust_soliton, (100, 0.1, 1.5), r"fail_prob must lie in \(0, 1\)"),
    (robust_soliton, (100, 1e-4, 0.5), "spike degree 18874 outside support for k=100"),
    (raptor_omega, (0.0,), "eps must be positive and finite, got 0.0"),
    (optimal_distribution, (1.0,), r"z must lie in \[0, 1\), got 1.0"),
    (max_useful_degree, (1.0,), r"z must lie in \(0, 1\), got 1.0"),
    # a subnormal c: k / R overflows to inf
    (robust_soliton, (100, 1e-310, 0.5), "degenerate ripple size R=5.29"),
    # R = 0.996 < fail_prob while the spike round(k / R) = 100 = k stays in range
    (robust_soliton, (100, 0.996 / (math.log(100 / 0.997) * 10), 0.997),
     "degenerate parameters: R must exceed fail_prob"),
])
def test_constructors_reject_out_of_range_arguments(build, args, message):
    with pytest.raises(ValueError, match=message):
        build(*args)


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, 0.0, -0.1])
def test_robust_soliton_rejects_bad_c(c):
    with pytest.raises(ValueError, match="c must be positive and finite"):
        robust_soliton(100, c, 0.5)


def test_truncated_soliton_075_against_series_oracle():
    design = truncated_soliton(0.75)
    assert design.m == 3
    # independent oracle: the tail sum evaluated term by term
    tail, term, i = 0.0, 0.0, 3
    while True:
        term = 0.75**i / i
        if term < 1e-20:
            break
        tail += term
        i += 1
    a_oracle = 2.0 / 3.0 + tail / (3 * 0.75**2)
    assert design.a == pytest.approx(a_oracle, abs=1e-12)
    assert design.a == pytest.approx(0.8770633, abs=1e-6)
    assert design.distribution.mass(2) == pytest.approx(1.0 / (2 * design.a), abs=1e-15)
    assert design.distribution.mass(3) == pytest.approx(1.0 - 1.0 / (2 * design.a), abs=1e-15)
    assert_valid(design.distribution)


@pytest.mark.parametrize("z", [0.70, 0.75, 0.80, 0.85, 0.90, 0.99])
def test_truncated_soliton_invariants(z):
    design = truncated_soliton(z)
    m = design.m
    assert (m - 1) / m <= z + 1e-12
    assert z <= m / (m + 1) + 1e-12
    assert design.a >= (m - 2) / (m - 1)
    assert design.distribution.support[0] >= 2
    assert design.distribution.max_degree <= m
    assert_valid(design.distribution)


@pytest.mark.parametrize("z", [0.5, 2.0 / 3.0, 1.0, 0.0])
def test_truncated_soliton_range(z):
    with pytest.raises(ValueError):
        truncated_soliton(z)


@pytest.mark.parametrize("change, message", [
    ({"z": 0.5}, r"z must lie in \(2/3, 1\)"),
    ({"m": 5}, "m=5 inconsistent with z=0.75"),
    ({"a": 0.4}, "scale a too small"),
    ({"distribution": ideal_soliton(3)}, r"support must lie within \{2..m\}"),
    ({"distribution": limiting_soliton(4)}, r"support must lie within \{2..m\}"),
])
def test_truncated_soliton_design_checks_its_fields(change, message):
    design = truncated_soliton(0.75)
    assert design.m == 3
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(design, **change)


@pytest.mark.parametrize("z", [0.72, 0.75, 0.80])
def test_truncated_soliton_margin_positive(z):
    # a P'(t) + log(1-t) stays positive inside (0, z) and lands on ~0 at z
    design = truncated_soliton(z)
    dist, a = design.distribution, design.a
    ts = np.linspace(z / 400, z - z / 400, 399)
    margins = a * pgf_derivative(dist, ts) + np.log1p(-ts)
    assert (margins > 0.0).all()
    at_z = a * pgf_derivative(dist, z) + math.log1p(-z)
    assert abs(at_z) <= 1e-6


def test_truncated_soliton_approaches_heavy_tail():
    dist = truncated_soliton(0.99).distribution
    for i in (2, 3, 4, 5):
        assert dist.mass(i) == pytest.approx(1.0 / (i * (i - 1)), abs=0.05)


def test_raptor_omega_eps1_exact():
    mu = Fraction(3, 4)
    expected = {1: mu / (1 + mu)}
    for i in range(2, 9):
        expected[i] = Fraction(1, 1) / ((1 + mu) * i * (i - 1))
    expected[9] = Fraction(1, 1) / ((1 + mu) * 8)
    assert sum(expected.values()) == 1
    dist = raptor_omega(1.0)
    assert dist.support == tuple(range(1, 10))
    for d, frac in expected.items():
        assert dist.mass(d) == pytest.approx(float(frac), abs=1e-15)
    assert dist.mass(1) == pytest.approx(3 / 7, abs=1e-15)
    assert dist.mass(9) == pytest.approx(1 / 14, abs=1e-15)


def test_raptor_omega_eps01_top_degree():
    # D = ceil(4 * 1.1 / 0.1) = 44, top degree D + 1
    dist = raptor_omega(0.1)
    assert dist.max_degree == 45


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.3, 0.5, 1.0, 2.0])
def test_raptor_omega_sums_to_one(eps):
    assert_valid(raptor_omega(eps))


def test_raptor_omega_rejects_eps_whose_mu_overflows():
    # mu = eps/2 + (eps/2)^2 leaves float64 just above eps = 2 * sqrt(max float)
    assert_valid(raptor_omega(2.6e154))
    for eps in (2.7e154, 1e300, 1.7e308):
        with pytest.raises(ValueError, match="eps="):
            raptor_omega(eps)


def test_perturb_examples():
    deg2 = DegreeDistribution.from_mapping({2: 1.0})
    assert perturb(deg2, 0.1).as_dict() == pytest.approx({1: 0.1, 2: 0.9})
    deg1 = DegreeDistribution.from_mapping({1: 1.0})
    assert perturb(deg1, 0.37).as_dict() == pytest.approx({1: 1.0})
    got = perturb(ideal_soliton(4), 0.5).as_dict()
    assert got == pytest.approx({1: 0.625, 2: 0.25, 3: 1 / 12, 4: 1 / 24})


@pytest.mark.parametrize("delta", [0.0, 1.0, -0.1, 1.5])
def test_perturb_range(delta):
    with pytest.raises(ValueError):
        perturb(ideal_soliton(4), delta)


def test_perturb_generating_function_identity():
    rng = np.random.default_rng(7)
    ts = np.linspace(0.0, 1.0, 21)
    for _ in range(20):
        dist = random_distribution(rng)
        delta = float(rng.uniform(0.01, 0.99))
        mixed = perturb(dist, delta)
        lhs = pgf_eval(mixed, ts)
        rhs = (1 - delta) * pgf_eval(dist, ts) + delta * ts
        assert np.abs(lhs - rhs).max() <= 1e-12


def test_optimal_distribution_examples():
    dist, r = optimal_distribution(0.3)
    assert dist.as_dict() == {1: 1.0}
    assert r == pytest.approx(0.35667494, abs=1e-8)
    dist, r = optimal_distribution(2.0 / 3.0)
    assert dist.as_dict() == {2: 1.0}
    assert r == pytest.approx(0.75 * math.log(3.0), abs=1e-12)
    dist, r = optimal_distribution(0.5)  # boundary: degree-one form, rate log 2
    assert dist.as_dict() == {1: 1.0}
    assert r == pytest.approx(math.log(2.0), abs=1e-12)
    with pytest.raises(UnknownRegionError):
        optimal_distribution(0.8)


def test_max_useful_degree():
    assert max_useful_degree(0.3) == 1
    assert max_useful_degree(0.5) == 1  # boundary: smaller choice
    assert max_useful_degree(0.55) == 2
    assert max_useful_degree(2.0 / 3.0) == 2
    assert max_useful_degree(0.75) == 3
    assert max_useful_degree(0.8) == 4
    assert max_useful_degree(0.9) == 9


# --- generating function ---

def test_pgf_eval_examples():
    deg2 = DegreeDistribution.from_mapping({2: 1.0})
    assert pgf_eval(deg2, 0.5) == pytest.approx(0.25, abs=1e-15)
    mix = DegreeDistribution.from_mapping({1: 0.5, 3: 0.5})
    assert pgf_eval(mix, 0.5) == pytest.approx(0.3125, abs=1e-15)
    rng = np.random.default_rng(3)
    for _ in range(10):
        assert pgf_eval(random_distribution(rng), 1.0) == pytest.approx(1.0, abs=1e-12)


def test_pgf_eval_monotone_and_bounded():
    rng = np.random.default_rng(11)
    ts = np.linspace(0.0, 1.0, 101)
    for _ in range(10):
        vals = pgf_eval(random_distribution(rng), ts)
        assert (np.diff(vals) >= -1e-15).all()
        assert vals.min() >= 0.0 and vals.max() <= 1.0 + 1e-12


def test_pgf_derivative_examples():
    deg2 = DegreeDistribution.from_mapping({2: 1.0})
    assert pgf_derivative(deg2, 0.5) == pytest.approx(1.0, abs=1e-15)
    deg1 = DegreeDistribution.from_mapping({1: 1.0})
    for t in (0.0, 0.3, 1.0):
        assert pgf_derivative(deg1, t) == pytest.approx(1.0, abs=1e-15)
    mix = DegreeDistribution.from_mapping({1: 0.25, 4: 0.75})
    assert pgf_derivative(mix, 0.0) == pytest.approx(0.25, abs=1e-15)


def test_pgf_derivative_soliton_near_log():
    k = 10_000
    val = pgf_derivative(ideal_soliton(k), 0.5)
    # the derivative tends to -log(1-t); truncation plus the 1/k degree-one
    # mass keep the finite-k value within ~1/k of it
    assert abs(val - (-math.log(0.5))) <= 1.5 / k


def test_pgf_derivative_matches_finite_difference():
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(20):
        dist = random_distribution(rng, max_degree=12)
        for t in (0.1, 0.4, 0.7):
            fd = (pgf_eval(dist, t + h) - pgf_eval(dist, t - h)) / (2 * h)
            assert pgf_derivative(dist, t) == pytest.approx(fd, abs=1e-6)


@pytest.mark.parametrize("t", [-0.1, 1.1])
def test_pgf_range_errors(t):
    dist = ideal_soliton(4)
    with pytest.raises(ValueError):
        pgf_eval(dist, t)
    with pytest.raises(ValueError):
        pgf_derivative(dist, t)


# --- the chunked, truncated evaluator against the dense t x degree matrix ---

def dense_pgf(dist, t):
    return np.power.outer(np.asarray(t, dtype=float), dist.degree_array) @ dist.mass_array


def dense_pgf_derivative(dist, t):
    weights = dist.mass_array * dist.degree_array
    return np.power.outer(np.asarray(t, dtype=float), dist.degree_array - 1) @ weights


def wide_distribution(rng, size):
    degrees = np.sort(rng.choice(np.arange(1, 5001), size=size, replace=False))
    weights = rng.random(size) + 0.05
    weights /= weights.sum()
    return DegreeDistribution.from_mapping(dict(zip(degrees.tolist(), weights.tolist())))


def assert_matches_dense(dist, t):
    for evaluate, dense, total in ((pgf_eval, dense_pgf, 1.0),
                                   (pgf_derivative, dense_pgf_derivative, dist.mean_degree())):
        got, want = evaluate(dist, t), dense(dist, t)
        if np.ndim(t) == 0:
            assert type(got) is float
        else:
            assert got.shape == want.shape
        # the dropped terms sum to less than e^-46 times the weights' total
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=2e-20 * total)


@pytest.mark.parametrize("budget", [64, degree_dist._CHUNK_ELEMENTS])
def test_power_sum_matches_dense(monkeypatch, budget):
    monkeypatch.setattr(degree_dist, "_CHUNK_ELEMENTS", budget)
    rng = np.random.default_rng(17)
    for size in (1, 3, 40, 600):
        dist = wide_distribution(rng, size)
        ts = rng.random(700)
        ts[[5, 50]] = 0.0, 1.0
        for t in (0.0, 1.0, 0.37, np.float64(0.999), np.asarray(0.9), ts[:0],
                  ts, np.sort(ts), ts.reshape(35, 20), ts[ts < 0.5]):
            assert_matches_dense(dist, t)


@pytest.mark.parametrize("budget", [64, degree_dist._CHUNK_ELEMENTS])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_power_sum_at_chunk_boundary(monkeypatch, budget, extra):
    # with t = 1 among the points every exponent is kept, so n points need
    # n * 16 powers: one pass up to the budget, chunks above it
    monkeypatch.setattr(degree_dist, "_CHUNK_ELEMENTS", budget)
    rng = np.random.default_rng(5)
    dist = wide_distribution(rng, 16)
    ts = rng.random(budget // 16 + extra)
    ts[-1] = 1.0
    assert_matches_dense(dist, ts)
    assert_matches_dense(dist, ts[::-1])


def dense_rows(exponents, weights, ts):
    """The dense sum one point at a time, so long supports need no big matrix."""
    return np.array([np.power(t, exponents) @ weights for t in ts])


def test_power_sum_matches_dense_on_long_contiguous_support():
    # exponents 0..10^5: near t = 1 every one is kept, and the split's grid
    # holds 316 x 317 cells against 10^5 powers per point
    rng = np.random.default_rng(23)
    exponents = np.arange(100_001)
    weights = rng.random(exponents.size)
    ts = np.concatenate(([0.0, 1.0], rng.random(30), 1.0 - rng.random(30) * 1e-3))
    got, want = degree_dist._power_sum(exponents, weights, ts), dense_rows(exponents, weights, ts)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=2e-20 * weights.sum())


@pytest.mark.parametrize("size", [50, 200, 3000])
def test_power_sum_matches_dense_on_mixed_sign_weights(size):
    # LP prices y(i) take either sign, so terms cancel: compare each sum
    # against the size of its terms, sum |w| t^e
    rng = np.random.default_rng(size)
    exponents = np.arange(size)
    weights = rng.standard_normal(size)
    ts = np.sort(np.concatenate(([0.0, 1.0], rng.random(997))))
    got = degree_dist._power_sum(exponents, weights, ts)
    want = dense_rows(exponents, weights, ts)
    scale = dense_rows(exponents, np.abs(weights), ts)
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


@pytest.mark.parametrize("size", [5, 3000])
@pytest.mark.parametrize("first", [0, 1])
def test_power_sum_at_zero_and_one(size, first):
    # 0^0 = 1 on both paths: at t = 0 only the exponent 0 counts, exactly;
    # at t = 1 the sum is the weights' total
    exponents = np.arange(first, first + size)
    weights = np.random.default_rng(3).random(size)
    ts = np.linspace(0.0, 1.0, 1001)
    for points in (ts, ts[::-1], np.array([0.0, 1.0])):
        got = degree_dist._power_sum(exponents, weights, points)
        ends = got[points == 0.0], got[points == 1.0]
        assert np.all(ends[0] == (weights[0] if first == 0 else 0.0))
        np.testing.assert_allclose(ends[1], math.fsum(weights), rtol=1e-13)
    assert degree_dist._power_sum(exponents, weights, 0.0) == (weights[0] if first == 0 else 0.0)


def test_power_sum_keeps_sparse_wide_supports_dense():
    # 100 degrees over [1, 10^6]: a baby-step/giant-step grid would hold
    # 10^6 cells (8 MB) for 100 weights, so the sum stays on the dense path
    rng = np.random.default_rng(31)
    exponents = np.sort(rng.choice(np.arange(1, 10**6 + 1), size=100, replace=False))
    exponents[-1] = 10**6
    weights = rng.random(100)
    ts = np.concatenate(([0.0, 1.0], 1.0 - rng.random(2000) * 1e-7))
    tracemalloc.start()
    try:
        got = degree_dist._power_sum(exponents, weights, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(got, dense_rows(exponents, weights, ts),
                               rtol=1e-13, atol=2e-20 * weights.sum())
    assert peak < 8 * degree_dist._CHUNK_ELEMENTS + 2**20


def test_power_sum_holds_one_chunk_at_a_time():
    # the points near t = 1 keep all 2,000 exponents; the dense matrix is
    # 32 MB. The contiguous support takes the split path (2 x 45 numbers per
    # point plus a 45 x 45 grid), the sparser one the dense path
    weights = np.full(2000, 1e-3)
    ts = np.linspace(0.0, 1.0, 2000)
    for exponents in (np.arange(2000), np.arange(0, 4000, 2)):
        tracemalloc.start()
        try:
            degree_dist._power_sum(exponents, weights, ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * degree_dist._CHUNK_ELEMENTS + 2**20


# --- validation and text format ---

def test_distribution_validation():
    with pytest.raises(ValueError):
        DegreeDistribution.from_mapping({0: 1.0})
    with pytest.raises(ValueError):
        DegreeDistribution.from_mapping({1: 0.5, 2: 0.6})
    with pytest.raises(ValueError):
        DegreeDistribution.from_mapping({1: -0.1, 2: 1.1})
    with pytest.raises(ValueError):
        DegreeDistribution(entries=())


def test_text_format_round_trip(tmp_path):
    dist = robust_soliton(50, 0.1, 0.5)
    path = tmp_path / "dist.tsv"
    write_distribution(dist, path)
    back = read_distribution(path)
    assert back.entries == dist.entries


def test_text_format_lexical_order_and_comments():
    dist = DegreeDistribution.from_mapping({2: 0.5, 10: 0.5})
    buf = io.StringIO()
    write_distribution(dist, buf)
    lines = [l for l in buf.getvalue().splitlines() if l and not l.startswith("#")]
    assert lines == sorted(lines)  # lexical: "10..." sorts before "2..."
    assert lines[0].startswith("10\t")
    back = read_distribution(io.StringIO("# comment\n" + "\n".join(lines) + "\n"))
    assert back.entries == dist.entries


def test_text_format_rejects_garbage():
    with pytest.raises(ValueError):
        read_distribution(io.StringIO("1 0.5\n"))
    with pytest.raises(ValueError):
        read_distribution(io.StringIO("1\t0.5\n1\t0.5\n"))
    for bad in ("1.5\t1.0", "1\tmuch"):
        with pytest.raises(ValueError, match=r"^line 2: expected an integer degree"):
            read_distribution(io.StringIO(f"# comment\n{bad}\n"))


@pytest.mark.parametrize("text, message", [
    ("1\t0.5\n# comment\n0\t0.5\n", "line 3: degrees must be integers >= 1, got 0"),
    ("2\t1.5\n1\t-0.5\n", "line 2: masses must be finite and >= 0, got -0.5"),
    ("\n1\tnan\n", "line 2: masses must be finite and >= 0, got nan"),
    # the first bad record in the file, not in degree order
    ("3\tinf\n-1\t0.5\n", "line 1: masses must be finite and >= 0, got inf"),
    # a degree beyond int64 would fail only when degree_array is first built
    ("1\t0.5\n10000000000000000000\t0.5\n",
     "line 2: degrees must be at most 2**63 - 1, got 10000000000000000000"),
])
def test_text_format_names_the_line_of_a_bad_entry(text, message):
    with pytest.raises(ValueError) as info:
        read_distribution(io.StringIO(text))
    assert str(info.value) == message


def test_text_format_keeps_degrees_up_to_int64():
    back = read_distribution(io.StringIO("1\t0.5\n9223372036854775807\t0.5\n"))
    assert back.degree_array.tolist() == [1, 2**63 - 1]


def test_text_format_mass_sum_error_names_no_line():
    with pytest.raises(ValueError, match=r"^masses sum to 0\.9,"):
        read_distribution(io.StringIO("1\t0.5\n2\t0.4\n"))
