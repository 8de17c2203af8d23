"""Independent checks of fountain-lab's outputs.

Every reference value here is computed from the paper's formulas by this
file's own code, never by a library function, so a fault in the library
cannot hide by also shaping the reference. A check returns None on success
and raises CheckError, with a message naming the value, on failure.
"""

from __future__ import annotations

import math

import numpy as np

# the library's scans treat a margin above -1e-9 as not negative
SCAN_TOL = 1e-9
# float64 sums of ~1e4 terms of P'(t) may differ in the last bits
EVAL_SLACK = 1e-11
# %.9g keeps nine significant digits: half a unit in the ninth digit
CSV_REL = 5e-9
# degree-one cells: accept a mean within this many standard errors
DEGREE1_SIGMAS = 5.0


class CheckError(Exception):
    """An output of the library disagrees with the benchmark's reference."""


def _fail(message: str) -> None:
    raise CheckError(message)


# --- P'(t) and the peeling margin, evaluated by the benchmark itself ---


def pgf_derivative(degrees, masses, ts, chunk: int = 256) -> np.ndarray:
    """P'(t) = sum_d d P(d) t^(d-1) on an array of t in [0, 1).

    Works in chunks of t to bound memory. Per chunk it drops the degrees
    whose power t_max^(d-1) is below 1e-30; with masses summing to 1 and
    degrees up to 1e4 the dropped terms add up to less than 1e-25.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    weights = np.asarray(masses, dtype=np.float64) * degrees
    ts = np.asarray(ts, dtype=np.float64)
    out = np.empty(ts.shape)
    flat = ts.reshape(-1)
    res = out.reshape(-1)
    for start in range(0, flat.size, chunk):
        t = flat[start : start + chunk]
        t_max = float(t.max())
        hi = degrees.size
        if 0.0 < t_max < 1.0:
            cutoff = 1 + 69.1 / -math.log(t_max)
            hi = max(1, int(np.searchsorted(degrees, cutoff, side="right")))
        powers = np.power.outer(t, (degrees[:hi] - 1).astype(np.float64))
        res[start : start + chunk] = powers @ weights[:hi]
    return out


def margin(ts, r: float, degrees, masses) -> np.ndarray:
    """g(t) = r P'(t) + log(1 - t), the paper's peeling margin."""
    ts = np.asarray(ts, dtype=np.float64)
    return r * pgf_derivative(degrees, masses, ts) + np.log1p(-ts)


def s_of_r(r: float, degrees, masses, step: float = 1e-4, tol: float = 1e-9) -> float:
    """First zero of the margin: a grid scan for g < 0, then bisection."""
    ts = np.arange(int(round(1.0 / step))) * step
    below = np.nonzero(margin(ts, r, degrees, masses) < 0.0)[0]
    if below.size == 0:
        return 1.0
    hi = float(ts[below[0]])
    lo = hi - step
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if margin(np.array([mid]), r, degrees, masses)[0] < 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def sup_ratio(z: float, degrees, masses, step: float = 1e-4) -> float:
    """sup over t in (0, z] of -log(1 - t) / P'(t), the least rate reaching z.

    A grid scan, then a 2001-point scan of the two cells around the grid
    maximum. The limit at t -> 0+ is 0 with degree-one mass and 1/(2 P(2))
    with only degree-two mass; with neither the ratio diverges.
    """
    degrees = np.asarray(degrees)
    masses = np.asarray(masses, dtype=np.float64)
    p1 = float(masses[degrees == 1].sum())
    p2 = float(masses[degrees == 2].sum())
    if p1 == 0.0 and p2 == 0.0:
        return math.inf
    origin = 0.0 if p1 > 0.0 else 1.0 / (2.0 * p2)
    n = int(math.floor(z / step))
    ts = np.append(np.arange(1, n + 1) * step, z)
    ts = np.unique(ts[ts <= z])

    def ratio(t: np.ndarray) -> np.ndarray:
        return -np.log1p(-t) / pgf_derivative(degrees, masses, t)

    vals = ratio(ts)
    best = int(np.argmax(vals))
    lo = ts[best - 1] if best > 0 else ts[0] / 2.0
    hi = ts[min(best + 1, ts.size - 1)]
    fine = np.linspace(lo, hi, 2001)
    return max(float(vals[best]), float(ratio(fine).max()), origin)


# --- Monte Carlo cells ---


def degree1_fraction(r: float) -> float:
    """Asymptotic recovered fraction of the all-degree-one code: 1 - e^-r."""
    return -math.expm1(-r)


def degree1_tolerance(r: float, k: int, trials: int) -> float:
    """DEGREE1_SIGMAS standard errors of a mean over `trials` trials.

    A degree-one symbol covers one uniform input, so the decoded count is
    the number of occupied bins when n balls land in k bins. Under the
    Poisson receive model each bin is empty independently with probability
    e^-r, so the fraction has variance e^-r (1 - e^-r) / k; a fixed n gives
    a smaller variance, so this bounds both models.
    """
    p = math.exp(-r)
    return DEGREE1_SIGMAS * math.sqrt(p * (1.0 - p) / k / trials)


def check_close(value: float, expected: float, tol: float, what: str) -> None:
    if not abs(value - expected) <= tol:
        _fail(f"{what}: {value!r} differs from {expected!r} by more than {tol:g}")


def check_repeat(value, first, what: str) -> None:
    """An operation repeated with the same inputs returns the same output."""
    if value != first:
        _fail(f"{what}: repeat returned {value!r}, first run returned {first!r}")


def check_codec(inputs, symbols, recovered) -> None:
    """Coded payloads are the XOR of their neighbours; recovered = input."""
    data = np.frombuffer(b"".join(inputs), dtype=np.uint8).reshape(len(inputs), -1)
    if symbols:
        neighbors = np.fromiter(
            (v for sym in symbols for v in sym.neighbors), dtype=np.int64
        )
        degrees = np.fromiter((len(sym.neighbors) for sym in symbols), dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(degrees)[:-1]))
        expected = np.bitwise_xor.reduceat(data[neighbors], offsets, axis=0)
        got = np.frombuffer(b"".join(sym.payload for sym in symbols), dtype=np.uint8)
        bad = np.nonzero((expected != got.reshape(expected.shape)).any(axis=1))[0]
        if bad.size:
            _fail(f"coded symbol {int(bad[0])}: payload is not the XOR of its neighbours")
    for i, value in enumerate(recovered):
        if value is not None and value != inputs[i]:
            _fail(f"input {i}: recovered {value!r}, sent {inputs[i]!r}")


# --- LP bounds ---


def useful_degree(z: float) -> int:
    """The m with (m-1)/m <= z <= m/(m+1), the smaller one at a boundary."""
    return max(1, math.ceil(z / (1.0 - z) - 1e-9))


def closed_form_rate(z: float) -> float:
    """The paper's optimal rate for z <= 2/3: degree one, then degree two."""
    if z <= 0.5:
        return -math.log1p(-z)
    return -math.log1p(-z) / (2.0 * z)


def truncated_soliton_rate(z: float) -> float:
    """Rate a of the truncated soliton for z in (2/3, 1), by direct summation.

    a = (m-1)/m + (1/(m z^(m-1))) sum_{i >= m} z^i / i, m = max(useful m, 3).
    """
    m = max(useful_degree(z), 3)
    terms = []
    i = m
    term = z**i / i
    while term > 1e-22:
        terms.append(term)
        i += 1
        term = z**i / i
    return (m - 1) / m + math.fsum(terms) / (m * z ** (m - 1))


def check_bound_row(z: float, lower: float, upper: float, m: int) -> None:
    """Method properties of one row of `bound`'s CSV."""
    if m != useful_degree(z):
        _fail(f"z={z!r}: m column {m}, expected {useful_degree(z)}")
    if not lower <= upper:
        _fail(f"z={z!r}: r_lower {lower!r} exceeds r_upper {upper!r}")
    if z <= 2.0 / 3.0 + 1e-12:
        exact = closed_form_rate(z)
        check_close(lower, exact, 2e-3, f"z={z!r} r_lower vs closed form")
        check_close(upper, exact, 2e-3, f"z={z!r} r_upper vs closed form")
        if lower > exact * (1.0 + CSV_REL):
            _fail(f"z={z!r}: lower bound {lower!r} above the optimum {exact!r}")
    else:
        a = truncated_soliton_rate(z)
        if lower > a * (1.0 + CSV_REL):
            _fail(f"z={z!r}: lower bound {lower!r} above the design rate a={a!r}")


def check_moment_certificate(z: float, value: float, xs, masses, csv_lower: float) -> None:
    """Grid masses from the outer-bound LP: feasible, and they give r_lower.

    Feasible means masses >= 0 on points of [0, z] with E[X^(i-1)] <= 1/i
    for i = 1..m; then E[-log(1 - X)] bounds the rate from below.
    """
    xs = np.asarray(xs, dtype=np.float64)
    masses = np.asarray(masses, dtype=np.float64)
    if xs.size != masses.size:
        _fail(f"z={z!r}: {xs.size} grid points but {masses.size} masses")
    if xs.min() < 0.0 or xs.max() > z:
        _fail(f"z={z!r}: grid leaves [0, z]")
    if masses.min() < -1e-12:
        _fail(f"z={z!r}: negative grid mass {masses.min()!r}")
    for i in range(1, useful_degree(z) + 1):
        moment = float(np.dot(masses, xs ** (i - 1)))
        if moment > 1.0 / i + 1e-9:
            _fail(f"z={z!r}: moment row {i} is {moment!r} > 1/{i}")
    objective = float(np.dot(masses, -np.log1p(-xs)))
    check_close(objective, value, 1e-9 * max(1.0, abs(value)), f"z={z!r} certificate objective")
    check_close(csv_lower, value, CSV_REL * abs(value), f"z={z!r} CSV r_lower vs LP value")


def fine_grid(z: float, step: float) -> np.ndarray:
    """Points j * step in [0, z), with z itself appended."""
    n = int(math.floor(z / step)) + 1
    ts = np.arange(n) * step
    return np.append(ts[ts < z - 1e-12], z)


def design_grid(z: float, lp_step: float) -> np.ndarray:
    """A grid ten times finer than the LP's, and its midpoints.

    The library scales its design to hold on the 10x finer grid itself, so
    the midpoints are where a dip between those points would show.
    """
    fine = fine_grid(z, lp_step / 10.0)
    return np.sort(np.concatenate((fine, 0.5 * (fine[:-1] + fine[1:]))))


def check_design(z: float, lp_step: float, r: float, degrees, masses, csv_upper: float) -> None:
    """The primal design keeps r P'(t) + log(1 - t) >= 0 on [0, z].

    Evaluated on `design_grid`: ten times finer than the LP's grid, with
    the points halfway between.
    """
    ts = design_grid(z, lp_step)
    g = margin(ts, r, degrees, masses)
    worst = int(np.argmin(g))
    if g[worst] < -SCAN_TOL:
        _fail(f"z={z!r}: design margin {g[worst]!r} < 0 at t={ts[worst]!r}")
    check_close(csv_upper, r, CSV_REL * abs(r), f"z={z!r} CSV r_upper vs design rate")


# --- asymptotic scans ---


def check_s_crossing(s: float, r: float, degrees, masses, step: float) -> None:
    """The margin is >= 0 on grid points below s and < 0 just above s.

    Non-negative is read as the library's scan reads it (above -1e-9). The
    crossing must lie within one grid step above s, unless s = 1 (no
    crossing anywhere on the grid).
    """
    if not 0.0 <= s <= 1.0:
        _fail(f"s={s!r} outside [0, 1]")
    ts = np.arange(int(round(1.0 / step))) * step
    ts = ts[ts < s - SCAN_TOL]
    if ts.size:
        g = margin(ts, r, degrees, masses)
        worst = int(np.argmin(g))
        if g[worst] < -SCAN_TOL - EVAL_SLACK:
            _fail(f"s={s!r}: margin {g[worst]!r} < 0 at t={ts[worst]!r} below s")
    if s < 1.0:
        above = s + step * np.arange(1, 17) / 16.0
        above = above[above < 1.0]
        if above.size == 0 or margin(above, r, degrees, masses).min() >= 0.0:
            _fail(f"s={s!r}: margin does not cross zero within one grid step above s")


def margin_condition(r: float, degrees, masses, s: float, step: float) -> bool:
    """Whether the margin stays above SCAN_TOL on (0, s - 2 step).

    The paper's hypothesis (margin strictly positive before s), with the
    library's documented tolerance band and endpoint slack.
    """
    ts = np.arange(1, int(round(1.0 / step))) * step
    ts = ts[ts < s - 2.0 * step]
    if ts.size == 0:
        return True
    return bool(margin(ts, r, degrees, masses).min() > SCAN_TOL)
